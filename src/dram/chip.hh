/**
 * @file
 * A simulated DRAM chip with on-die ECC.
 *
 * This is the stand-in for the paper's 80 real LPDDR4 chips: the ECC
 * function is a construction-time secret, and the only externally
 * visible interface is writing/reading datawords (or bytes) and
 * manipulating the refresh window — exactly the interface BEER assumes.
 * Ground-truth accessors are provided for validation in simulation and
 * are clearly marked; BEER itself never uses them.
 *
 * Error behaviour implemented (paper Section 3.2):
 *  - data-retention errors: unidirectional CHARGED -> DISCHARGED decay,
 *    spatially uniform-random, controlled by refresh-pause length and
 *    temperature, and repeatable (per-cell deterministic retention
 *    times) unless iid mode is selected;
 *  - transient errors: rare random flips on read that do not persist,
 *    modeling particle strikes / VRT noise (used to evaluate BEER's
 *    thresholding filter, Figure 4).
 *
 * Cells are stored transposed (dram::TransposedCellStore: bit-planes
 * in the simulation engine's lane-major SoA layout), so refresh-pause
 * decay, batched reads, and fills run on whole 64-word lane groups
 * through the width-generic SIMD kernels; the external word/byte
 * MemoryInterface contract is preserved bit-for-bit by a
 * gather/scatter shim. tests/ref/scalar_chip.hh is the one-BitVec-
 * per-word reference model the differential suite checks it against.
 */

#ifndef BEER_DRAM_CHIP_HH
#define BEER_DRAM_CHIP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/cell_store.hh"
#include "dram/layout.hh"
#include "dram/memory_interface.hh"
#include "dram/retention.hh"
#include "dram/types.hh"
#include "ecc/linear_code.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/thread_pool.hh"

namespace beer::dram
{

/** How pauseRefresh() draws iid retention-error candidates. */
enum class InjectionMode
{
    /**
     * SkipSample below kInjectionCrossoverBer, BernoulliMask at or
     * above it — the crossover bench/sim_throughput measures.
     */
    Auto,
    /**
     * Geometric skip-sampling over the cell grid: one Rng draw per
     * candidate cell, O(candidates) cost. Bit-identical error
     * patterns with the reference model; cheapest at low BER.
     */
    SkipSample,
    /**
     * Whole Bernoulli lane masks per (bit-position, lane word):
     * ~log2(64)+2 Rng draws per 64 cells regardless of rate, so it
     * wins at high BER. Same error distribution as SkipSample but a
     * different Rng stream (patterns differ, statistics match).
     */
    BernoulliMask,
};

/**
 * iid BER at or above which InjectionMode::Auto switches from
 * skip-sampling to Bernoulli lane masks. Measured by
 * bench/sim_throughput (reported as injection_crossover_ber in its
 * JSON); the constant tracks the measured value on x86 hosts, where
 * the ratio crosses 1 between the 0.03 and 0.1 grid points.
 */
inline constexpr double kInjectionCrossoverBer = 0.035;

/** Construction parameters for a simulated chip. */
struct ChipConfig
{
    AddressMap map;
    CellTypeLayout cellLayout;
    /** The secret on-die ECC function. k must be 8 * map.bytesPerWord. */
    ecc::LinearCode code = ecc::paperExampleCode();
    RetentionModel retention;
    /** Per-cell per-read transient flip probability (non-persistent). */
    double transientErrorRate = 0.0;
    /**
     * Variable-retention-time rate: on each pauseRefresh(), this
     * fraction of cells (chosen afresh per pause) behaves per a
     * re-drawn retention time instead of its fixed one, modeling VRT
     * cells (one of the noise sources Section 5.2 lists). Only
     * meaningful in the per-cell (non-iid) mode.
     */
    double vrtRate = 0.0;
    /**
     * If true, each pauseRefresh() draws fresh iid errors at the model
     * BER instead of using fixed per-cell retention times. Faster and
     * samples more distinct error patterns per experiment; used by the
     * profile-measurement loops. If false, errors are repeatable.
     */
    bool iidErrors = false;
    std::uint64_t seed = 1;
    /** iid candidate sampling; see InjectionMode. */
    InjectionMode injection = InjectionMode::Auto;
    /**
     * SIMD width of the wide read path; Auto resolves via BEER_SIMD,
     * then CPUID, like the simulation engine. Reads are bit-identical
     * for every width.
     */
    util::simd::Backend simdBackend = util::simd::Backend::Auto;
    /**
     * Worker threads for pauseRefresh()'s retention-error injection
     * (0 = all hardware threads). Words are sharded deterministically
     * — iid shards draw from forked Rng streams keyed by shard index,
     * per-cell mode is a pure function of (seed, cell) — so the error
     * pattern is bit-identical for every thread count.
     */
    std::size_t threads = 1;
};

/** Simulated DRAM chip; see file comment. */
class SimulatedChip : public MemoryInterface
{
  public:
    explicit SimulatedChip(ChipConfig config);

    // ---- geometry -------------------------------------------------------
    std::size_t datawordBits() const override { return config_.code.k(); }
    const AddressMap &addressMap() const override { return config_.map; }

    // ---- data interface (everything a real chip exposes) ----------------
    /** Write a k-bit dataword; the chip encodes and stores it. */
    void writeDataword(std::size_t word_index,
                       const gf2::BitVec &data) override;

    /** Read a dataword through the on-die ECC decoder. */
    gf2::BitVec readDataword(std::size_t word_index) override;

    /**
     * Batched fill: the encoded pattern is broadcast into whole lane
     * words (one operation per plane row and lane word) instead of
     * scattered per word.
     */
    void writeDatawordsBroadcast(const std::size_t *words,
                                 std::size_t count,
                                 const gf2::BitVec &data) override;

    /**
     * Batched read as a bit-plane frame: error-plane windows feed the
     * wide decode kernel directly (no gather copy) and the
     * post-correction data rows land in a chip-owned frame reused
     * across calls, valid until the next operation on the chip.
     * Bit-identical to sequential readDataword calls, including the
     * transient-noise Rng stream; noise-free reads shard over the
     * configured worker threads. Always serves (returns true).
     */
    bool readDatawordsPlanar(const std::size_t *words, std::size_t count,
                             PlanarReadBatch &out) override;

    /**
     * Batched read: the readDatawordsPlanar frame transposed into
     * datawords, so both batched seams share one wide read routine.
     */
    void readDatawords(const std::size_t *words, std::size_t count,
                       std::vector<gf2::BitVec> &out) override;

    /** Byte-granularity accessors through the address map. */
    void writeByte(std::size_t byte_addr, std::uint8_t value) override;
    std::uint8_t readByte(std::size_t byte_addr) override;

    /** Fill every data byte of the chip with @p value. */
    void fill(std::uint8_t value) override;

    /**
     * Disable refresh for @p seconds at @p temp_c, injecting
     * data-retention errors into the stored cells. Errors persist until
     * the affected word is rewritten.
     */
    void pauseRefresh(double seconds, double temp_c) override;

    // ---- ground truth (simulation/validation only) -----------------------
    /** The secret ECC function. BEER never calls this. */
    const ecc::LinearCode &groundTruthCode() const { return config_.code; }

    /** Cell type of the row holding @p word_index. */
    CellType cellTypeOfWord(std::size_t word_index) const;

    /** Raw stored codeword including parity bits (pre-decode view). */
    gf2::BitVec storedCodeword(std::size_t word_index) const;

    /** Raw error count injected by pauseRefresh() so far (validation). */
    std::uint64_t rawErrorCount() const { return rawErrors_; }

    const RetentionModel &retentionModel() const
    {
        return config_.retention;
    }

  private:
    /** One retention shard, words [begin, end) (dispatches on mode). */
    std::uint64_t decayShard(std::size_t begin, std::size_t end,
                             double seconds, double temp_c, double ber,
                             util::Rng *rng);
    /** Whether cell (cell_id) fails this pause (retention + VRT). */
    bool cellFailsThisPause(std::uint64_t cell_id, double seconds,
                            double temp_c) const;
    /** iid injection mode after Auto resolution at @p ber. */
    InjectionMode injectionModeFor(double ber) const;
    /** Lazily resolved wide-read state (decoder + kernel). */
    void prepareWideRead();
    /** Lazily created pool sized to config_.threads. */
    util::ThreadPool &pool();

    ChipConfig config_;
    /** Bit-plane cell store (value domain). */
    TransposedCellStore store_;
    util::Rng rng_;
    std::unique_ptr<util::ThreadPool> pool_;
    /** Wide read path, resolved on first batched read. */
    std::unique_ptr<ecc::BitslicedDecoder> decoder_;
    const sim::EngineKernel *kernel_ = nullptr;
    WideReadScratch readScratch_;
    /** Frame readDatawordsPlanar serves (k rows of lane words). */
    std::vector<std::uint64_t> readFrame_;
    /** Lane-selection scratch for writeDatawordsBroadcast. */
    std::vector<std::uint64_t> broadcastSel_;
    /** Last broadcast dataword and its encoding. */
    gf2::BitVec broadcastData_;
    gf2::BitVec broadcastCodeword_;
    std::uint64_t pauseEpoch_ = 0;
    std::uint64_t rawErrors_ = 0;
};

/** Back-compat name from before the backend abstraction existed. */
using Chip = SimulatedChip;

/**
 * Ground-truth word selection for simulation runs: indices of all words
 * stored in true-cell rows, the subset the paper's methodology tests.
 * Hardware-faithful flows derive the same set externally via
 * beer::discoverCellTypes().
 */
std::vector<std::size_t> trueCellWords(const SimulatedChip &chip);

/**
 * Build a chip configuration in the style of one of the paper's three
 * anonymized manufacturers:
 *  - 'A': all true-cells, unstructured (random) ECC function;
 *  - 'B': all true-cells, structured (canonical) ECC function, whose
 *         regular parity-check matrix produces the repeating
 *         miscorrection patterns the paper observes;
 *  - 'C': alternating true-/anti-cell row blocks, random ECC function.
 *
 * @param vendor 'A', 'B', or 'C'
 * @param k      dataword length in bits (multiple of 8)
 * @param seed   secret-selection and error seed
 */
ChipConfig makeVendorConfig(char vendor, std::size_t k,
                            std::uint64_t seed);

} // namespace beer::dram

#endif // BEER_DRAM_CHIP_HH
