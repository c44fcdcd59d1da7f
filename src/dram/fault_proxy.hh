/**
 * @file
 * Fault-injection / chaos decorator over any memory backend.
 *
 * Wraps a MemoryInterface and perturbs what the wrapped backend
 * returns, for scenario-diversity studies (paper Sections 5.2 and
 * 7.1.5) and for the chaos test suite that proves the recovery stack
 * survives noisy measurement: extra transient read errors —
 * post-correction bit flips on every read, modeling particle strikes /
 * bus noise beyond what the backend itself simulates — stuck-at faults
 * that pin individual post-correction data bits of chosen words to a
 * fixed value, time-varying noise (flip-rate windows keyed to the
 * read-operation count, periodic bursts), per-pattern corruption
 * triggered by the last broadcast-written dataword, and injected read
 * stalls. Because it decorates the abstract interface, it composes
 * with every backend: a SimulatedChip, a TraceReplayBackend, or
 * another proxy.
 *
 * Writes and refresh pauses pass through untouched; only reads (word,
 * bit-plane frame, byte) are perturbed. With every chaos knob at its
 * default the proxy is transparent: reads pass through bit-identical
 * and no Rng draws are consumed.
 */

#ifndef BEER_DRAM_FAULT_PROXY_HH
#define BEER_DRAM_FAULT_PROXY_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dram/memory_interface.hh"
#include "util/rng.hh"

namespace beer::dram
{

/** A post-correction data bit pinned to a fixed read value. */
struct StuckAtFault
{
    std::size_t wordIndex = 0;
    /** Data-bit position within the word, [0, k). */
    std::size_t bit = 0;
    /** Value the bit always reads back as. */
    bool value = false;
};

/**
 * A flip-rate override active for a half-open range of per-word read
 * operations [startReadOp, endReadOp) — transient noise that comes and
 * goes, e.g. one poisoned measurement round.
 */
struct FaultWindow
{
    std::uint64_t startReadOp = 0;
    std::uint64_t endReadOp = 0;
    double flipRate = 0.0;
};

/** Periodic burst noise: the first @c length of every @c period read
 *  ops flip at @c flipRate (0 period disables). */
struct BurstFaults
{
    std::uint64_t period = 0;
    std::uint64_t length = 0;
    double flipRate = 0.0;
};

/**
 * Corruption keyed to the test pattern being measured: while the last
 * writeDatawordsBroadcast() data equals @c triggerData, each word read
 * flips @c bit with probability @c flipRate. Deterministic (rate 1)
 * triggers fabricate a consistently wrong profile entry — the
 * poisoned-round scenario BEER's UNSAT repair must localize.
 */
struct PatternCorruption
{
    gf2::BitVec triggerData;
    std::size_t bit = 0;
    double flipRate = 1.0;
    /** Stop corrupting after this many flipped reads (0 = never). */
    std::uint64_t maxHits = 0;
};

/** Knobs for FaultInjectionProxy. */
struct FaultInjectionConfig
{
    /** Per-data-bit flip probability applied to every read. */
    double transientFlipRate = 0.0;
    /** Bits pinned on read. */
    std::vector<StuckAtFault> stuckAt;
    std::uint64_t seed = 99;

    // ---- chaos extensions (all inert by default) ----------------------
    /** Flip-rate overrides over read-op ranges (max wins vs base). */
    std::vector<FaultWindow> windows;
    /** Periodic burst noise. */
    BurstFaults burst;
    /** Pattern-triggered corruption. */
    std::vector<PatternCorruption> patternFaults;
    /** Sleep on every Nth per-word read op (0 disables). */
    std::uint64_t stallEveryReads = 0;
    /** Stall duration, seconds. */
    double stallSeconds = 0.0;
    /**
     * Infrastructure failure (not data noise): every Nth per-word
     * read op THROWS InjectedReadFailure instead of returning data — a
     * flaky measurement bus / dropped RPC to the test head (0
     * disables). Measurement does not catch it, so the throw ends the
     * caller's measurement; every read route throws at the same op.
     */
    std::uint64_t throwEveryReads = 0;
};

/** Thrown by the proxy's injected read failures. */
struct InjectedReadFailure : std::runtime_error
{
    InjectedReadFailure()
        : std::runtime_error("injected read failure (chaos proxy)")
    {
    }
};

/** Decorator injecting extra read faults; see file comment. */
class FaultInjectionProxy : public MemoryInterface
{
  public:
    FaultInjectionProxy(MemoryInterface &inner,
                        FaultInjectionConfig config);

    const AddressMap &addressMap() const override
    {
        return inner_.addressMap();
    }
    std::size_t datawordBits() const override
    {
        return inner_.datawordBits();
    }

    void writeDataword(std::size_t word_index,
                       const gf2::BitVec &data) override
    {
        inner_.writeDataword(word_index, data);
    }

    gf2::BitVec readDataword(std::size_t word_index) override;

    void writeDatawordsBroadcast(const std::size_t *words,
                                 std::size_t count,
                                 const gf2::BitVec &data) override
    {
        lastBroadcast_ = data;
        inner_.writeDatawordsBroadcast(words, count, data);
    }

    /**
     * The wrapped backend's frame, copied to a reused buffer and
     * perturbed word by word in batch order: reads, counters and throw
     * points match sequential readDataword calls (the two Rng streams
     * are independent). Declines, side-effect free, with the backend.
     */
    bool readDatawordsPlanar(const std::size_t *words, std::size_t count,
                             PlanarReadBatch &out) override;

    /** The planar read transposed; else the backend's batch, perturbed. */
    void readDatawords(const std::size_t *words, std::size_t count,
                       std::vector<gf2::BitVec> &out) override;

    void writeByte(std::size_t byte_addr, std::uint8_t value) override
    {
        inner_.writeByte(byte_addr, value);
    }

    std::uint8_t readByte(std::size_t byte_addr) override;

    void fill(std::uint8_t value) override { inner_.fill(value); }

    void pauseRefresh(double seconds, double temp_c) override
    {
        inner_.pauseRefresh(seconds, temp_c);
    }

    /** Transient flips injected so far (diagnostics). Counted
     *  identically on the scalar and batched read paths: the batched
     *  path perturbs each word in order with the same Rng stream. */
    std::uint64_t injectedFlips() const { return injectedFlips_; }

    /** Stuck-at pins applied to dataword/byte reads so far. Each
     *  (read, matching fault) application counts once, whether or not
     *  the pin changed the read-back value. */
    std::uint64_t stuckAtHits() const { return stuckAtHits_; }

    /** Per-word read operations observed (dataword paths; batched
     *  reads count each word). Windows and bursts key off this. */
    std::uint64_t readOps() const { return readOps_; }

    /** Read stalls injected so far. */
    std::uint64_t stallsInjected() const { return stallsInjected_; }

    /** Pattern-corruption flips injected so far. */
    std::uint64_t patternHits() const { return patternHits_; }

    /** Injected read-failure throws so far. */
    std::uint64_t throwsInjected() const { return throwsInjected_; }

  private:
    struct FrameLane;

    /** Apply one read op's faults to a BitVec or FrameLane (get/flip). */
    template <typename Word>
    void perturbRead(std::size_t word_index, Word &&data);

    /** Flip rate in force for read op @p op (max of base/window/burst). */
    double effectiveFlipRate(std::uint64_t op) const;

    MemoryInterface &inner_;
    FaultInjectionConfig config_;
    std::size_t k_;
    /** Frame readDatawordsPlanar serves (k rows of lane words). */
    std::vector<std::uint64_t> frame_;
    util::Rng rng_;
    gf2::BitVec lastBroadcast_;
    std::uint64_t injectedFlips_ = 0;
    std::uint64_t stuckAtHits_ = 0;
    std::uint64_t readOps_ = 0;
    std::uint64_t stallsInjected_ = 0;
    std::uint64_t patternHits_ = 0;
    std::uint64_t throwsInjected_ = 0;
    /** Per-patternFaults[i] flips, for maxHits expiry. */
    std::vector<std::uint64_t> patternFaultHits_;
};

} // namespace beer::dram

#endif // BEER_DRAM_FAULT_PROXY_HH
