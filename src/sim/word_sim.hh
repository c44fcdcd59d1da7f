/**
 * @file
 * EINSim-style Monte-Carlo simulation of ECC words.
 *
 * Substitutes for the authors' EINSim simulator: inject pre-correction
 * errors into codewords, decode, and aggregate per-bit post-correction
 * statistics. Two error modes are provided:
 *
 *  - uniform-random errors across all codeword bits (Figure 1's model
 *    of generic raw bit errors at a given RBER);
 *  - data-retention errors restricted to CHARGED cells (the model BEER
 *    exploits; used for miscorrection-profile sampling).
 *
 * The engine is built for the paper's scale (1e9 words per data
 * point, Sections 5.1.3 and 6):
 *
 *  - skip-sampling: error cells are reached by geometric jumps, so
 *    error-free words and cells cost O(1);
 *  - bitsliced decoding: erroneous words are gathered into transposed
 *    lane groups of 64/256/512 words (SIMD backend, see util/simd.hh
 *    and sim/engine.hh) and decoded/classified lane-parallel
 *    (ecc/bitsliced_kernel.hh);
 *  - deterministic multithreaded sharding: the word count is split
 *    into fixed-size shards, each drawing from its own Rng::fork()ed
 *    stream keyed by shard index and merged in shard order, so results
 *    are bit-identical for every thread count.
 *
 * tests/ref/word_sim.hh is the one-word-at-a-time, one-trial-per-bit
 * reference whose statistics the engine must reproduce.
 */

#ifndef BEER_SIM_WORD_SIM_HH
#define BEER_SIM_WORD_SIM_HH

#include <cstdint>
#include <vector>

#include "dram/types.hh"
#include "ecc/decoder.hh"
#include "ecc/linear_code.hh"
#include "gf2/bitvec.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace beer::util
{
class ThreadPool;
} // namespace beer::util

namespace beer::sim
{

/** Per-bit and per-outcome aggregate of one simulation run. */
struct WordSimStats
{
    /** Raw (pre-correction) error count per codeword bit position. */
    std::vector<std::uint64_t> preCorrectionErrors;
    /** Post-correction error count per data bit position. */
    std::vector<std::uint64_t> postCorrectionErrors;
    /** Words simulated (including skipped error-free words). */
    std::uint64_t wordsSimulated = 0;
    /** Words that contained at least one raw error. */
    std::uint64_t wordsWithRawErrors = 0;
    /** Decode outcome histogram indexed by ecc::DecodeOutcome. */
    std::vector<std::uint64_t> outcomes;

    /** Merge another run's counters into this one. */
    void merge(const WordSimStats &other);

    bool operator==(const WordSimStats &other) const = default;
};

/** SIMD width and scheduling knobs for the Monte-Carlo driver. */
struct SimConfig
{
    /**
     * SIMD width of the bitsliced kernels: Auto resolves via the
     * BEER_SIMD environment variable, then CPUID (widest native
     * kernel). Statistics are bit-identical for every backend — lane
     * grouping never changes what any single word decodes to — so
     * forcing a width only changes speed, and the portable fallback
     * makes every width runnable on every host.
     */
    util::simd::Backend simdBackend = util::simd::Backend::Auto;
    /**
     * Worker threads (including the caller); 0 means all hardware
     * threads. Results are bit-identical for every value: threads only
     * change which worker executes a shard, never the shard streams.
     * Ignored when @ref pool is set.
     */
    std::size_t threads = 1;
    /**
     * Optional non-owning pool to run shards on, so callers issuing
     * many simulate calls (e.g. one per test pattern) reuse one set of
     * workers instead of spawning threads per call. When null and
     * threads != 1, each call creates a transient pool.
     */
    util::ThreadPool *pool = nullptr;
    /**
     * Words per deterministic shard. Each shard consumes its own
     * forked Rng stream, so results depend on this granularity but
     * never on the thread count.
     */
    std::uint64_t wordsPerShard = 1ull << 16;
};

/**
 * Simulate @p num_words transmissions of @p dataword with iid raw
 * errors at rate @p rber in every codeword bit (Figure 1's workload).
 */
WordSimStats simulateUniformErrors(const ecc::LinearCode &code,
                                   const gf2::BitVec &dataword,
                                   double rber, std::uint64_t num_words,
                                   util::Rng &rng,
                                   const SimConfig &config = {});

/**
 * Simulate @p num_words retention tests of one stored codeword:
 * only the cells in @p charged_mask (positions whose cells are CHARGED)
 * may fail, each iid with probability @p ber, and a failure flips the
 * stored bit. This is the fast path used to measure miscorrection
 * profiles; it is equivalent to testing num_words identical ECC words
 * spread across a real chip (paper Section 5.1.3).
 *
 * @param codeword     the stored (error-free) codeword
 * @param charged_mask positions of CHARGED cells, length n
 */
WordSimStats simulateRetentionErrors(const ecc::LinearCode &code,
                                     const gf2::BitVec &codeword,
                                     const gf2::BitVec &charged_mask,
                                     double ber, std::uint64_t num_words,
                                     util::Rng &rng,
                                     const SimConfig &config = {});

/**
 * Positions whose cells are CHARGED when @p codeword is stored in
 * cells of uniform @p cell_type.
 */
gf2::BitVec chargedMask(const gf2::BitVec &codeword,
                        dram::CellType cell_type);

} // namespace beer::sim

#endif // BEER_SIM_WORD_SIM_HH
