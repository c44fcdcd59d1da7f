/**
 * @file
 * Experimental miscorrection-profile measurement (paper Steps 1-2).
 *
 * Runs BEER's testing loop — program a test pattern, lengthen the
 * refresh window, read back, count post-correction errors per bit —
 * against any dram::MemoryInterface backend (simulated chip, trace
 * replay, fault-injection proxy, ...), or through the fast word
 * simulator (the EINSim path used for the large correctness sweeps). A
 * threshold filter (Section 5.2, Figure 4) converts raw counts into the
 * binary miscorrection profile consumed by the solver.
 *
 * Measurement runs can also be recorded to / replayed from operation
 * traces (dram/trace.hh), mirroring the paper's released tooling for
 * applying BEER to experimental data collected elsewhere.
 */

#ifndef BEER_BEER_MEASURE_HH
#define BEER_BEER_MEASURE_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "dram/chip.hh"
#include "dram/memory_interface.hh"
#include "dram/trace.hh"
#include "ecc/linear_code.hh"
#include "sim/word_sim.hh"
#include "util/rng.hh"

namespace beer::util
{
class ThreadPool;
}

namespace beer
{

/** Raw per-(pattern, bit) observation counts before thresholding. */
struct ProfileCounts
{
    std::size_t k = 0;
    std::vector<TestPattern> patterns;
    /** errorCounts[p][bit]: observed post-correction errors. */
    std::vector<std::vector<std::uint64_t>> errorCounts;
    /** Words observed per pattern (denominator for probabilities). */
    std::vector<std::uint64_t> wordsTested;
    /**
     * disagreements[p]: experiments on pattern p where quorum votes
     * returned differing data (transient read noise caught in the
     * act). Empty when measured without quorum (pre-quorum producers);
     * treat missing entries as zero.
     */
    std::vector<std::uint64_t> disagreements;
    /**
     * votesSpent[p]: dataword read sweeps spent on pattern p across
     * all its experiments (1 per experiment without quorum, the base
     * vote count plus any confirm/escalation reads with it). The
     * adaptive-vs-fixed vote-spend comparison in bench/chaos_recovery
     * sums these. Empty for producers that predate the counter; treat
     * missing entries as zero.
     */
    std::vector<std::uint64_t> votesSpent;

    /** True iff quorum votes ever disagreed on this pattern. */
    bool suspect(std::size_t pattern_idx) const
    {
        return pattern_idx < disagreements.size() &&
               disagreements[pattern_idx] > 0;
    }

    /** Sum of per-pattern quorum disagreements. */
    std::uint64_t totalDisagreements() const;

    /** Sum of per-pattern read sweeps (vote spend). */
    std::uint64_t totalVotesSpent() const;

    /** Drop the listed patterns (counts, denominators, disagreements). */
    void removePatterns(const std::vector<TestPattern> &to_remove);

    /**
     * Apply the threshold filter: bit j is miscorrectable under
     * pattern i iff errorCounts[i][j] / wordsTested[i] >
     * @p min_probability, excluding charged positions.
     */
    MiscorrectionProfile threshold(double min_probability) const;

    /** Observed error probability for (pattern, bit). */
    double probability(std::size_t pattern_idx, std::size_t bit) const;

    /** How merge() treats patterns present in both operands. */
    enum class MergeMode
    {
        /**
         * Observation counts and denominators add: both operands
         * measured the same pattern over (independent) word
         * populations, and the union is one larger experiment.
         * Patterns only in @p other are appended. This is the safe
         * default — it is correct for disjoint pattern sets too.
         */
        Accumulate,
        /**
         * The caller asserts the pattern sets are disjoint (each
         * round measures new patterns, as beer::Session and the
         * {1,2}-CHARGED escalation do). Overlap is a caller bug —
         * accumulating would silently change probabilities'
         * denominators — and trips a debug-build assertion; release
         * builds fall back to accumulating.
         */
        AppendDisjoint,
    };

    /**
     * Merge @p other into this object under @p mode. Historically the
     * two modes were one implicit behavior — whether counts
     * accumulated or patterns appended depended silently on pattern
     * overlap; callers now state which contract they rely on.
     */
    void merge(const ProfileCounts &other,
               MergeMode mode = MergeMode::Accumulate);

    /** Total (pattern, word) observations across all patterns. */
    std::uint64_t totalObservations() const;
};

/**
 * Quorum-read configuration: how many times each experiment's read is
 * repeated and cross-checked to mask transient read noise.
 */
struct QuorumConfig
{
    /**
     * Reads per (pattern, pause, repeat) experiment. 1 disables quorum
     * entirely — the measurement loop is the exact pre-quorum code
     * path (same operation sequence, same traces). With votes >= 2 the
     * word data used for counting is the per-(word, bit) majority
     * across the votes.
     */
    std::size_t votes = 1;
    /**
     * Adaptive escalation: when any two votes disagree, the experiment
     * re-reads up to this many total votes before taking the majority,
     * so clean patterns pay votes reads and only noisy ones escalate.
     * Ties (possible with an even vote count) resolve to the first
     * vote's value. Clamped up to @c votes.
     */
    std::size_t escalatedVotes = 5;
    /**
     * Adaptive policy: instead of escalating every disagreeing
     * experiment straight to @c escalatedVotes, track a running
     * (EWMA) per-session disagreement-rate estimate and spend the
     * full escalation only on patterns whose own observed rate
     * exceeds that estimate by @c escalateMargin; other disagreeing
     * experiments settle for the cheaper @c confirmVotes majority.
     * The base read count is max(2, votes) — under zero noise the
     * two votes agree, the first vote's data is used unchanged, and
     * the thresholded profile is bit-identical to votes == 1.
     */
    bool adaptive = false;
    /** EWMA smoothing factor for the disagreement-rate estimate. */
    double ewmaAlpha = 0.2;
    /**
     * A pattern escalates to @c escalatedVotes only when its own
     * smoothed disagreement rate exceeds the running estimate by
     * this much (absolute rate margin).
     */
    double escalateMargin = 0.05;
    /**
     * Votes bought for a disagreeing experiment that stays below the
     * escalation margin: enough for a strict majority over a single
     * transient flip without paying the full escalation.
     */
    std::size_t confirmVotes = 3;
    /**
     * Seed for the disagreement-rate estimate when no estimator is
     * injected through MeasureConfig (trace replay reconstructs the
     * recording run's seed from the trace meta so the adaptive
     * schedule replays bit-identically).
     */
    double initialEstimate = 0.0;
};

/**
 * Running disagreement-rate estimator shared across measurement calls
 * (a beer::Session owns one for its whole multi-round run). Injected
 * via MeasureConfig::estimator; measureProfile() copies it in, updates
 * the copy as experiments complete, and writes it back on return, so
 * the adaptive schedule of one call depends only on the seed state and
 * the observed read data — the property trace replay relies on.
 */
struct QuorumEstimator
{
    /** EWMA of the per-experiment disagreement indicator. */
    double rate = 0.0;
    /** Experiments folded into the estimate. */
    std::uint64_t samples = 0;
    /** Total dataword read sweeps spent by quorum measurement. */
    std::uint64_t votesSpent = 0;
    /** Experiments that escalated to the full vote count. */
    std::uint64_t escalations = 0;
    /** Disagreeing experiments settled at the confirm tier. */
    std::uint64_t confirmations = 0;

    /** Fold one experiment's disagreement outcome into the EWMA. */
    void observe(bool disagreed, double alpha)
    {
        rate = (1.0 - alpha) * rate + (disagreed ? alpha : 0.0);
        ++samples;
    }
};

/** Configuration of a refresh-window sweep. */
struct MeasureConfig
{
    /** Refresh-pause durations to test, seconds. */
    std::vector<double> pausesSeconds;
    /** Ambient temperature during testing. */
    double temperatureC = 80.0;
    /** Read-back repeats per (pattern, pause). */
    std::size_t repeatsPerPause = 1;
    /** Threshold for ProfileCounts::threshold (relative frequency). */
    double thresholdProbability = 1e-3;
    /** Quorum reads (votes == 1 keeps the historical single read). */
    QuorumConfig quorum;
    /**
     * Optional adaptive-quorum estimator carried across calls (see
     * QuorumEstimator). Null runs the call self-contained, seeded
     * from quorum.initialEstimate. Ignored unless quorum.adaptive.
     */
    QuorumEstimator *estimator = nullptr;
    /**
     * Polled before each (pattern, pause, repeat) experiment; a true
     * return abandons the rest of the run and returns the counts
     * accumulated so far (a partially measured pattern keeps its
     * partial denominator). The pipelined session uses this to stop
     * speculative measurement the moment the solve running beside it
     * proves uniqueness — the round is discarded either way, so every
     * further refresh pause would be pure waste. Unset = never.
     */
    std::function<bool()> cancel;
    /**
     * Optional worker pool for the planar counting fast path: when the
     * backend serves reads as bit-plane frames (readDatawordsPlanar —
     * the transposed simulated chip, trace replay v2), the per-plane
     * mismatch popcounts are sharded across this pool. Counting is
     * integer adds per independent plane, so results are
     * bit-identical at any thread count. Null
     * counts on the calling thread. Must not be a pool this call is
     * already running inside of (parallelFor is not reentrant).
     */
    util::ThreadPool *pool = nullptr;

    /** Paper-like default: 2..22 minutes in 1-minute steps at 80C. */
    static MeasureConfig paperDefault();
};

/**
 * Measure profile counts on any memory backend through the external
 * interface only (write datawords, pause refresh, read datawords).
 *
 * @p words_under_test selects the words to program and observe — the
 * true-cell subset in the paper's methodology, obtainable from
 * discoverCellTypes() (hardware-faithful) or dram::trueCellWords()
 * (simulation ground truth). An empty list tests every word, which is
 * correct only for all-true-cell backends. Every selected word is
 * programmed with the same pattern per experiment; each (pause, repeat)
 * contributes one observation per word.
 */
ProfileCounts
measureProfile(dram::MemoryInterface &mem,
               const std::vector<TestPattern> &patterns,
               const MeasureConfig &config,
               const std::vector<std::size_t> &words_under_test = {});

/**
 * Back-compat wrapper: measure on a simulated chip using its
 * ground-truth true-cell rows as the word subset.
 */
ProfileCounts measureProfileOnChip(dram::Chip &chip,
                                   const std::vector<TestPattern> &patterns,
                                   const MeasureConfig &config);

/**
 * Run measureProfile() while recording every backend operation (plus
 * "meta" lines describing the measurement plan) to @p out in the
 * requested dram/trace.hh format (v2 streams must be opened binary),
 * so the run can be replayed offline.
 */
ProfileCounts
recordProfileTrace(dram::MemoryInterface &mem,
                   const std::vector<TestPattern> &patterns,
                   const MeasureConfig &config,
                   const std::vector<std::size_t> &words_under_test,
                   std::ostream &out,
                   const dram::TraceWriteOptions &trace_options);

/** Back-compat overload recording in the historical v1 text format. */
ProfileCounts
recordProfileTrace(dram::MemoryInterface &mem,
                   const std::vector<TestPattern> &patterns,
                   const MeasureConfig &config,
                   const std::vector<std::size_t> &words_under_test,
                   std::ostream &out);

/**
 * Re-run a measurement recorded by recordProfileTrace() against the
 * trace itself: the measurement plan is reconstructed from the trace's
 * meta lines and the observations come from the recorded reads. The
 * result is bit-identical to what the recording run measured,
 * whichever format the trace is stored in.
 *
 * @p pool optionally shards the planar counting fast path (v2 traces)
 * across worker threads; see MeasureConfig::pool. Results stay
 * bit-identical at any thread count.
 */
ProfileCounts replayProfileTrace(dram::TraceReplayBackend &trace,
                                 util::ThreadPool *pool = nullptr);

/**
 * The measurement configuration stored in a recorded trace's meta
 * lines (pauses, temperature, repeats, threshold); fatal if the trace
 * carries no measurement plan.
 */
MeasureConfig traceMeasureConfig(const dram::TraceReplayBackend &trace);

/**
 * Fast-path measurement through the word simulator: statistically
 * equivalent to testing @p words_per_pattern words of a chip whose
 * secret ECC function is @p code, at charged-cell bit error rate
 * @p ber. Used for the large simulation sweeps (Section 6.1).
 * @p sim_config selects the simulation engine and thread count
 * (bitsliced, single-threaded by default); results are bit-identical
 * for every thread count.
 */
ProfileCounts measureProfileSim(const ecc::LinearCode &code,
                                const std::vector<TestPattern> &patterns,
                                double ber,
                                std::uint64_t words_per_pattern,
                                util::Rng &rng,
                                const sim::SimConfig &sim_config = {});

} // namespace beer

#endif // BEER_BEER_MEASURE_HH
