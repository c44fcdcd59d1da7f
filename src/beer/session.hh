/**
 * @file
 * Staged, resumable BEER recovery sessions.
 *
 * beer::Session decomposes the monolithic recovery pipeline into
 * explicit, caller-driven stages over any dram::MemoryInterface
 * backend:
 *
 *   - measureRound()  measures the next chunk of planned test patterns
 *                     and accumulates the observations into the
 *                     running ProfileCounts via merge();
 *   - solve()         thresholds the accumulated counts and runs the
 *                     SAT solve on everything measured so far;
 *   - escalate()      appends the 2-CHARGED pattern class to the plan
 *                     (paper Section 4.2.4, for shortened codes);
 *   - run()           drives the full adaptive loop to completion.
 *
 * The adaptive loop exploits a property of the profile constraints:
 * any subset of a code's true miscorrection profile is satisfied by
 * the code itself, so if the patterns measured so far already admit
 * exactly one ECC function (solve-to-UNSAT proof), that function is
 * the answer and the remaining patterns need not be measured at all.
 * On real chips, where each pattern costs refresh-pause minutes, this
 * early exit is the difference between hours and days of test time;
 * Session.AdaptiveEarlyExitMatchesFullSweep checks that it measures
 * fewer patterns than the full sweep and recovers the same function.
 *
 * Solver side, a session owns ONE beer::IncrementalSolver for its
 * whole lifetime. The structural constraints are encoded exactly
 * once, each solve() round registers only the patterns measured since
 * the previous round (held constraints are encoded lazily, as models
 * violate them), learned clauses and branching activity persist
 * across rounds, and the uniqueness-check blocking clauses of round r
 * are retracted before round r+1 (see solver.hh for the group
 * mechanics). Multi-round adaptive recovery therefore pays the SAT
 * encode cost once instead of O(rounds) times.
 *
 * Every stage records wall-clock and SAT statistics (SessionStats,
 * including the per-round encode/search split) and reports through an
 * optional progress callback, so long-running recoveries are
 * observable and resumable between stages.
 *
 * run() is serial: each round's patterns are ranked by the candidates
 * of the solve that just finished, then measured, then solved. Solving
 * is cheap next to measuring: on a real chip a refresh-pause round
 * costs minutes, while all the solves of a k=32 session spend about
 * 17 ms in search (perfbench `recover`, traced, on a 4-core x86
 * container).
 */

#ifndef BEER_BEER_SESSION_HH
#define BEER_BEER_SESSION_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "beer/solver.hh"
#include "dram/memory_interface.hh"

namespace beer
{

/** What a Session is currently doing (progress reporting). */
enum class SessionStage
{
    Measure,
    Solve,
    Escalate,
    Done,
};

/** Snapshot passed to SessionConfig::onProgress after every stage. */
struct SessionProgress
{
    SessionStage stage = SessionStage::Measure;
    /** Distinct patterns measured so far. */
    std::size_t patternsMeasured = 0;
    /** Patterns in the current plan (measured + still pending). */
    std::size_t patternsPlanned = 0;
    /** Solutions found by the most recent solve (0 before any solve). */
    std::size_t solutionsFound = 0;
    /** True iff the most recent solve proved its enumeration total. */
    bool solveComplete = false;
    /** 2-CHARGED escalations performed. */
    std::size_t escalations = 0;
};

/** Solver-side accounting for one Session::solve() round. */
struct SolveRoundStats
{
    /** Seconds encoding the eager constraints (CNF construction and
     *  addProfile()). */
    double encodeSeconds = 0.0;
    /** Seconds enumerating solutions (SAT search, including the
     *  refinement that encodes held constraints a model violates). */
    double searchSeconds = 0.0;
    /** Problem clauses added to the SAT context this round. */
    std::uint64_t clausesAdded = 0;
    /** Profile entries newly encoded this round. */
    std::size_t patternsEncoded = 0;
    /** Solutions the round's enumeration returned. */
    std::size_t solutions = 0;
};

/** Per-stage accounting accumulated across a session's lifetime. */
struct SessionStats
{
    /** Wall-clock seconds spent inside measureRound(). */
    double measureSeconds = 0.0;
    /** Wall-clock seconds spent inside solve(). */
    double solveSeconds = 0.0;
    /** solveSeconds split: constraint encoding vs SAT search. */
    double solveEncodeSeconds = 0.0;
    double solveSearchSeconds = 0.0;
    /** One entry per solve() call, in order. */
    std::vector<SolveRoundStats> solveRounds;
    std::size_t measureRounds = 0;
    std::size_t solveCalls = 0;
    std::size_t escalations = 0;
    /** Distinct patterns measured. */
    std::size_t patternsMeasured = 0;
    /**
     * (pattern, pause, repeat) experiments issued — the unit of
     * physical test time the adaptive early exit saves.
     */
    std::uint64_t patternMeasurements = 0;
    /** Total word read-backs observed. */
    std::uint64_t wordObservations = 0;
    /** SAT statistics accumulated across all solve() calls. */
    sat::SolverStats sat;
    /** UNSAT-repair loop iterations run (SessionConfig::repair). */
    std::size_t repairAttempts = 0;
    /** Measurement rounds retracted as corrupted by the repair loop. */
    std::size_t roundsRetracted = 0;
    /** Patterns re-measured at escalated quorum by the repair loop. */
    std::size_t patternsRemeasured = 0;
    /** Quorum vote disagreements observed across all rounds. */
    std::uint64_t quorumDisagreements = 0;
    /**
     * Dataword read sweeps spent by measurement rounds — the
     * adaptive-vs-fixed quorum comparison's cost metric (1 per
     * experiment without quorum).
     */
    std::uint64_t quorumVotesSpent = 0;
    /** Experiments escalated to the full quorum vote count (repair
     *  re-measurement included). */
    std::uint64_t quorumEscalations = 0;
};

/**
 * UNSAT-core repair of noise-poisoned measurement rounds.
 *
 * When a solve proves the accumulated profile unsatisfiable — no ECC
 * function exists, so some round recorded corrupted evidence — run()
 * localizes a minimal set of measurement rounds the contradiction
 * depends on by suspending the incremental solver's retractable
 * per-round clause groups in suspicion order (quorum-flagged rounds
 * first, then newest first) and probing satisfiability after each,
 * then minimizing the suspended set. The localized rounds are
 * permanently retracted, their patterns re-measured at escalated
 * quorum (with optional exponential backoff to wait out noise
 * bursts), and the solve resumes on the repaired evidence — all
 * bounded by @c maxAttempts. Enabling repair forces
 * BeerSolverConfig::retractableProfile, whose grouped encoding the
 * localization requires.
 */
struct SessionRepairConfig
{
    bool enabled = false;
    /** Retract / re-measure / re-solve iterations before giving up. */
    std::size_t maxAttempts = 3;
    /** Quorum votes used when re-measuring retracted patterns (the
     *  evidence was bad once, so every repeat read is voted); clamped
     *  up to the session's configured quorum. */
    std::size_t remeasureVotes = 5;
    /** Sleep backoffBaseSeconds * 2^attempt before each re-measure
     *  (0 disables). On real chips this waits out the transient noise
     *  burst that poisoned the round in the first place. */
    double backoffBaseSeconds = 0.0;
    /** SAT conflict cap per localization probe (0 = unlimited). A
     *  probe that exhausts it counts as "still contradictory". */
    std::uint64_t probeConflictLimit = 0;
};

/** Knobs for a recovery session. */
struct SessionConfig
{
    /**
     * How each round measures. The session measures through a copy
     * whose estimator is its own running quorum estimate and whose
     * cancel is its own deadline check (deadlineSeconds), so the
     * estimator and cancel set here are never used.
     */
    MeasureConfig measure = MeasureConfig::paperDefault();
    BeerSolverConfig solver;
    /**
     * Add 2-CHARGED patterns when the 1-CHARGED profile does not
     * identify a unique function (needed for shortened codes).
     */
    bool escalateToTwoCharged = true;
    /**
     * Solve after every measurement round and stop measuring as soon
     * as the solution is provably unique. Disable for the full sweep:
     * measure every 1-CHARGED pattern, then solve once (twice when the
     * 2-CHARGED escalation runs).
     */
    bool adaptiveEarlyExit = true;
    /**
     * Patterns measured per measureRound() when adaptive
     * (0 = automatic: max(1, k/8)). Ignored without adaptive early
     * exit, where every round measures all pending patterns.
     */
    std::size_t patternsPerRound = 0;
    /**
     * Words to program and observe; see measureProfile(). Empty means
     * every word (correct only for all-true-cell backends).
     */
    std::vector<std::size_t> wordsUnderTest;
    /** UNSAT-core repair of corrupted rounds; see SessionRepairConfig. */
    SessionRepairConfig repair;
    /**
     * Wall-clock budget for run(), seconds (0 = none). Checked
     * between rounds AND between experiments inside a round (refresh
     * pauses dominate round cost, so waiting for the round boundary
     * could overshoot by many pause durations — or hang forever on a
     * stalling chip). On expiry the session stops measuring and
     * reports a DeadlineExceeded diagnosis with the ranked candidate
     * set the committed evidence admits.
     */
    double deadlineSeconds = 0.0;
    /**
     * Cap on (pattern, pause, repeat) experiments issued (0 = none),
     * repair re-measurement included; checked at round granularity.
     * On exhaustion the session degrades exactly like the deadline
     * does, with a BudgetExhausted diagnosis.
     */
    std::uint64_t measurementBudget = 0;
    /** Invoked after every stage when set. */
    std::function<void(const SessionProgress &)> onProgress;
};

/** Terminal classification of a recovery session. */
enum class SessionOutcome
{
    /** Exactly one ECC function is consistent with the evidence. */
    Unique,
    /** Multiple candidates remain (plan or evidence exhausted). */
    Ambiguous,
    /** No function is consistent with the evidence and repair could
     *  not fix it (persistent corruption, e.g. stuck-at faults). */
    Unsatisfiable,
    /** SessionConfig::deadlineSeconds expired first. */
    DeadlineExceeded,
    /** SessionConfig::measurementBudget ran out first. */
    BudgetExhausted,
};

/** Stable lower_snake name for logs and JSON (e.g. "unique"). */
const char *sessionOutcomeName(SessionOutcome outcome);

/**
 * Machine-readable post-mortem attached to every RecoveryReport: how
 * the session ended and why, plus the noise/repair accounting fleet
 * tooling needs to decide what to do next (retry the chip, accept the
 * best-ranked candidate, quarantine) without parsing logs.
 */
struct SessionDiagnosis
{
    SessionOutcome outcome = SessionOutcome::Ambiguous;
    /** One-line human-readable explanation. */
    std::string detail;
    /** Candidate functions in the final solve (0 if none ran). */
    std::size_t candidates = 0;
    /** Patterns whose quorum votes disagreed at least once. */
    std::vector<TestPattern> suspectPatterns;
    std::size_t repairAttempts = 0;
    std::size_t roundsRetracted = 0;
    std::size_t patternsRemeasured = 0;
    std::uint64_t quorumDisagreements = 0;
    /** Session wall-clock at report time, seconds. */
    double elapsedSeconds = 0.0;
    /** Single-line JSON object (stable keys). */
    std::string toJson() const;
};

/** Everything a recovery produced, for reporting and validation. */
struct RecoveryReport
{
    ProfileCounts counts;
    MiscorrectionProfile profile;
    /**
     * The final solve. When the session ends ambiguous the surviving
     * candidates are ranked by agreement with the raw observation
     * counts (best first), so front() is the best guess even without
     * a uniqueness proof.
     */
    BeerSolveResult solve;
    /** Post-mortem: outcome classification + repair accounting. */
    SessionDiagnosis diagnosis;
    /** True iff the 2-CHARGED escalation ran. */
    bool usedTwoCharged = false;
    /** Per-stage accounting (measurement effort, solver cost). */
    SessionStats stats;

    bool succeeded() const { return solve.unique(); }
    const ecc::LinearCode &recoveredCode() const
    {
        return solve.solutions.front();
    }
};

/** Staged BEER recovery; see file comment. */
class Session
{
  public:
    /**
     * Plan a recovery against @p mem starting from the 1-CHARGED
     * pattern class. @p mem must outlive the session.
     */
    explicit Session(dram::MemoryInterface &mem,
                     SessionConfig config = {});

    /**
     * Measure the next chunk of pending patterns and merge the
     * observations into counts().
     *
     * @return false if no patterns were pending (nothing measured)
     */
    bool measureRound();

    /**
     * Threshold the accumulated counts and solve for all consistent
     * ECC functions. While more measurement is available (pending
     * patterns or a possible escalation) and adaptive early exit is
     * on, enumeration is capped at two solutions — enough to decide
     * uniqueness; the final solve honors the configured cap.
     */
    const BeerSolveResult &solve();

    /**
     * Append the 2-CHARGED pattern class to the measurement plan.
     *
     * @return false if the escalation already happened
     */
    bool escalate();

    /** Drive measure/solve/escalate to completion and report. */
    RecoveryReport run();

    /** True iff solved unique, or nothing is left to measure or try. */
    bool finished() const;

    /** Patterns planned but not yet measured. */
    std::size_t pendingPatternCount() const
    {
        return pending_.size() - nextPending_;
    }

    const ProfileCounts &counts() const { return counts_; }
    const SessionStats &stats() const { return stats_; }
    const dram::MemoryInterface &memory() const { return mem_; }

    /** Report of everything produced so far. */
    RecoveryReport report() const;

  private:
    bool canEscalate() const;
    /** True while another measurement could still refine the solve. */
    bool moreEvidenceAvailable() const;
    void notify(SessionStage stage);

    /** Patterns one round may take from @p available pending ones. */
    std::size_t chunkLimit(std::size_t available) const;
    /** Active pattern selection over the pending tail (see .cc). */
    void partitionPending();
    /** Measure @p round (no bookkeeping); wall-clock into @p seconds. */
    ProfileCounts measureChunk(const std::vector<TestPattern> &round,
                               double &seconds);
    /** Merge measured observations + stats + progress notification. */
    void commitRound(const std::vector<TestPattern> &round,
                     const ProfileCounts &observed, double seconds);
    /** Experiments one pattern round costs (pauses x repeats). */
    std::uint64_t experimentsFor(std::size_t patterns) const;

    bool deadlineExceeded() const;
    bool budgetExhausted() const;
    /** Latch stopReason_ on deadline/budget expiry; true = stop now. */
    bool checkDegraded();
    /** True iff the last solve proved the profile unsatisfiable and
     *  the retractable-round machinery is armed to act on it. */
    bool repairNeeded() const;
    /** The UNSAT-core repair loop (see SessionRepairConfig); true iff
     *  the profile is satisfiable again. */
    bool attemptRepair();
    /** Minimal set of profile rounds the contradiction depends on,
     *  found by suspend+probe in suspicion order then minimized;
     *  empty if localization failed (every returned round is left
     *  suspended for the caller to drop). */
    std::vector<std::size_t> localizeCorruptRounds();
    /** Order @p cands by agreement with the raw counts, best first. */
    void rankCandidatesByEvidence(
        std::vector<ecc::LinearCode> &cands) const;
    /** Classify how the session ended; see SessionDiagnosis. */
    SessionDiagnosis diagnose() const;

    dram::MemoryInterface &mem_;
    SessionConfig config_;
    std::vector<TestPattern> pending_;
    std::size_t nextPending_ = 0;
    ProfileCounts counts_;
    MiscorrectionProfile profile_;
    /** Persistent solve context, created by the first solve(). */
    std::optional<IncrementalSolver> incremental_;
    std::optional<BeerSolveResult> solve_;
    /** True iff solve_ was produced under the uniqueness-only cap. */
    bool solveWasCapped_ = false;
    /** True iff counts_ changed since solve_ was produced. */
    bool countsDirty_ = false;
    bool escalated_ = false;
    /** Session construction time (deadline + elapsed accounting). */
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    /** Degraded-stop reason, latched once triggered. */
    std::optional<SessionOutcome> stopReason_;
    /**
     * Adaptive-quorum disagreement-rate estimator carried across every
     * measurement this session issues (repair re-measurement
     * included) — escalation decisions late in a run lean on the
     * noise level the whole run observed.
     */
    QuorumEstimator quorumEstimator_;
    SessionStats stats_;
};

} // namespace beer

#endif // BEER_BEER_SESSION_HH
