/**
 * @file
 * The single-ECC-word test interface BEEP drives, plus the simulated
 * implementation used for evaluation.
 *
 * BEEP's unit of work is one ECC word: program a dataword, pause
 * refresh, read the post-correction dataword back. SimulatedWord is
 * the stand-in for a real word with unknown error-prone cells: a set
 * of planted cells each fails (CHARGED -> DISCHARGED) independently
 * with a configurable probability on every trial, matching the paper's
 * Figures 8-9 methodology (N injected errors per codeword with per-bit
 * error probability P[error]).
 */

#ifndef BEER_BEEP_WORD_UNDER_TEST_HH
#define BEER_BEEP_WORD_UNDER_TEST_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "dram/memory_interface.hh"
#include "ecc/bitsliced.hh"
#include "ecc/bitsliced_kernel.hh"
#include "ecc/linear_code.hh"
#include "gf2/bitvec.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace beer::beep
{

/** One ECC word reachable only through write/pause/read cycles. */
class WordUnderTest
{
  public:
    virtual ~WordUnderTest() = default;

    /**
     * Run one full test cycle: program @p dataword, pause refresh long
     * enough for error-prone cells to fail, and read back through the
     * on-die ECC decoder.
     *
     * @return the post-correction dataword
     */
    virtual gf2::BitVec test(const gf2::BitVec &dataword) = 0;

    /**
     * Run @p count test cycles, one per entry of @p datawords, and
     * fill @p out with the post-correction reads in order. Must be
     * observably identical to count sequential test() calls —
     * including Rng stream consumption — so batching is purely a
     * throughput knob; the default implementation is that loop.
     * Simulated backends override it to decode all cycles in one pass
     * of the bitsliced engine (BEEP's readsPerPattern cycles share
     * one decode call instead of paying the scalar decoder each).
     */
    virtual void testMany(const gf2::BitVec *datawords,
                          std::size_t count,
                          std::vector<gf2::BitVec> &out);
};

/**
 * Fault behaviour of a planted weak cell (paper Section 7.1.5
 * discusses extending BEEP beyond retention errors).
 */
enum class FaultModel
{
    /** CHARGED cell decays with the configured probability. */
    Retention,
    /**
     * Cell always reads back the DISCHARGED value. Externally this is
     * indistinguishable from a Retention cell with failure
     * probability 1.0 — the ambiguity the paper calls out ("data-
     * retention errors and stuck-at-DISCHARGED errors" are "nearly
     * indistinguishable"); tests/test_beep.cc asserts it.
     */
    StuckAtDischarged,
};

/** Simulated word with planted error-prone cells (all true-cells). */
class SimulatedWord : public WordUnderTest
{
  public:
    /**
     * @param code          ground-truth ECC function (used to encode/
     *                      decode inside the simulated chip)
     * @param error_cells   codeword positions of error-prone cells
     * @param fail_prob     per-trial failure probability of a CHARGED
     *                      error-prone cell (Retention model)
     * @param seed          RNG seed
     * @param fault         fault behaviour of the planted cells
     */
    SimulatedWord(const ecc::LinearCode &code,
                  std::vector<std::size_t> error_cells, double fail_prob,
                  std::uint64_t seed,
                  FaultModel fault = FaultModel::Retention);

    gf2::BitVec test(const gf2::BitVec &dataword) override;

    /**
     * Batched cycles on the bitsliced engine: inject decays
     * trial-major (the exact Rng order of sequential test() calls),
     * decode every trial in one lane-parallel kernel call, and
     * reconstruct each read as dataword ^ (raw error ^ correction)
     * restricted to data bits. Lane-for-lane kernel equivalence makes
     * this bit-identical to the scalar loop.
     */
    void testMany(const gf2::BitVec *datawords, std::size_t count,
                  std::vector<gf2::BitVec> &out) override;

    const std::vector<std::size_t> &errorCells() const
    {
        return errorCells_;
    }

  private:
    const ecc::LinearCode &code_;
    std::vector<std::size_t> errorCells_;
    double failProb_;
    util::Rng rng_;
    FaultModel fault_;
    /** Lazily built engine state, reused across testMany batches. */
    std::unique_ptr<ecc::BitslicedDecoder> decoder_;
    /**
     * Widest backend this word may use, resolved (BEER_SIMD, CPUID)
     * once alongside decoder_ — resolution scans the environment, and
     * testMany sits on BEEP's hottest loop.
     */
    util::simd::Backend capBackend_ = util::simd::Backend::Auto;
    std::vector<std::uint64_t> errorLanes_;
    ecc::WideDecodeLanes decodeLanes_;
    gf2::BitVec codewordScratch_;
};

/**
 * Adapter that drives one ECC word of any dram::MemoryInterface
 * backend, so BEEP can profile a word of a simulated chip, a replayed
 * trace, or a fault-injection proxy through the same WordUnderTest
 * seam it uses for SimulatedWord.
 */
class MemoryWordUnderTest : public WordUnderTest
{
  public:
    /**
     * @param mem            backend holding the word
     * @param word_index     word to exercise
     * @param pause_seconds  refresh-pause length per test cycle
     * @param temp_c         test temperature
     */
    MemoryWordUnderTest(dram::MemoryInterface &mem,
                        std::size_t word_index, double pause_seconds,
                        double temp_c);

    gf2::BitVec test(const gf2::BitVec &dataword) override;

    /**
     * Sequential cycles (a refresh pause cannot be batched on real
     * hardware), but responsive to a shutdown signal
     * (util::shutdownRequested()) between cycles: a batch against a
     * slow chip stops at the next cycle
     * boundary and returns the reads finished so far (out.size() <
     * count), matching measureProfile()'s pattern-boundary behavior.
     */
    void testMany(const gf2::BitVec *datawords, std::size_t count,
                  std::vector<gf2::BitVec> &out) override;

  private:
    dram::MemoryInterface &mem_;
    std::size_t wordIndex_;
    double pauseSeconds_;
    double tempC_;
};

} // namespace beer::beep

#endif // BEER_BEEP_WORD_UNDER_TEST_HH
