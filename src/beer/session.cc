#include "beer/session.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>

#include "ecc/hamming.hh"
#include "util/logging.hh"

namespace beer
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Solution cap for the final solve after a deadline/budget stop,
 *  when no explicit BeerSolverConfig::maxSolutions bounds it. */
constexpr std::size_t kDegradedCandidateCap = 16;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * True iff measuring @p pattern can tell codes @p x and @p y apart:
 * their ground-truth profiles under the pattern differ at some
 * discharged bit.
 */
bool
distinguishes(const TestPattern &pattern, const ecc::LinearCode &x,
              const ecc::LinearCode &y)
{
    for (std::size_t bit = 0; bit < x.k(); ++bit) {
        if (patternContains(pattern, bit))
            continue;
        if (miscorrectionPossible(x, pattern, bit) !=
            miscorrectionPossible(y, pattern, bit))
            return true;
    }
    return false;
}

/**
 * Order [@p begin, @p end) so patterns that distinguish more pairs of
 * the candidate set come first (stable within equal scores). With two
 * candidates this is the classic active-selection partition; with
 * more it compensates for a stale candidate set — a pattern that
 * splits several still-plausible pairs is far more likely to also
 * split whatever pair survives the solve currently in flight.
 */
void
rankPatterns(std::vector<TestPattern>::iterator begin,
             std::vector<TestPattern>::iterator end,
             const std::vector<ecc::LinearCode> &cands)
{
    if (cands.size() < 2 || begin == end)
        return;
    std::vector<std::pair<std::size_t, TestPattern>> ranked;
    ranked.reserve((std::size_t)(end - begin));
    for (auto it = begin; it != end; ++it) {
        std::size_t score = 0;
        for (std::size_t i = 0; i + 1 < cands.size(); ++i)
            for (std::size_t j = i + 1; j < cands.size(); ++j)
                if (distinguishes(*it, cands[i], cands[j]))
                    ++score;
        ranked.emplace_back(score, std::move(*it));
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (auto &entry : ranked)
        *begin++ = std::move(entry.second);
}

} // anonymous namespace

const char *
sessionOutcomeName(SessionOutcome outcome)
{
    switch (outcome) {
    case SessionOutcome::Unique:
        return "unique";
    case SessionOutcome::Ambiguous:
        return "ambiguous";
    case SessionOutcome::Unsatisfiable:
        return "unsatisfiable";
    case SessionOutcome::DeadlineExceeded:
        return "deadline_exceeded";
    case SessionOutcome::BudgetExhausted:
        return "budget_exhausted";
    }
    return "unknown";
}

std::string
SessionDiagnosis::toJson() const
{
    // detail strings are fixed ASCII literals chosen in diagnose();
    // nothing needs escaping.
    std::ostringstream out;
    out << "{\"outcome\":\"" << sessionOutcomeName(outcome)
        << "\",\"detail\":\"" << detail
        << "\",\"candidates\":" << candidates
        << ",\"suspect_patterns\":" << suspectPatterns.size()
        << ",\"repair_attempts\":" << repairAttempts
        << ",\"rounds_retracted\":" << roundsRetracted
        << ",\"patterns_remeasured\":" << patternsRemeasured
        << ",\"quorum_disagreements\":" << quorumDisagreements
        << ",\"elapsed_seconds\":" << elapsedSeconds << "}";
    return out.str();
}

Session::Session(dram::MemoryInterface &mem, SessionConfig config)
    : mem_(mem), config_(std::move(config))
{
    // Repair retracts per-round clause groups, which exist only in
    // the persistent context's retractable encoding.
    if (config_.repair.enabled) {
        config_.incrementalSolve = true;
        config_.solver.retractableProfile = true;
    }
    const std::size_t k = mem_.datawordBits();
    BEER_ASSERT(k > 0);
    pending_ = chargedPatterns(k, 1);
    // Adaptive schedules measure high-index patterns first. Structured
    // (canonical) parity-check matrices place their largest-support
    // columns at high data-bit indices, and a pattern's measurement
    // constrains every column whose support is included in its own —
    // so large-support patterns prune the candidate space fastest and
    // the solve becomes provably unique after fewer patterns (the
    // manufacturer-B configuration drops from 16 to 10 measured
    // patterns at k=16). The legacy (non-adaptive) sweep keeps the
    // natural order for bit-exact reproducibility.
    if (config_.adaptiveEarlyExit)
        std::reverse(pending_.begin(), pending_.end());
    counts_.k = k;
}

std::size_t
Session::chunkLimit(std::size_t available) const
{
    if (!config_.adaptiveEarlyExit)
        return available;
    std::size_t per_round = config_.patternsPerRound;
    if (per_round == 0)
        per_round = std::max<std::size_t>(1, mem_.datawordBits() / 8);
    return std::min(available, per_round);
}

void
Session::rankPendingBy(const std::vector<ecc::LinearCode> &cands)
{
    rankPatterns(pending_.begin() + (std::ptrdiff_t)nextPending_,
                 pending_.end(), cands);
}

void
Session::partitionPending()
{
    // Active pattern selection: when a solve surfaced two candidate
    // functions, prefer pending patterns whose ground-truth profiles
    // differ between them. Measuring such a pattern is guaranteed to
    // eliminate at least one of the pair (the backend's answer can
    // match at most one), so the candidate space shrinks every round
    // instead of waiting for the sweep order to stumble on a
    // discriminating pattern.
    if (config_.deferredPartition && !config_.pipelined) {
        // Deferred-partition schedule: order the round by the pair of
        // the solve BEFORE the most recent one — the freshest solve a
        // pipelined session has joined when it selects the same chunk
        // (the most recent one is still in flight there; escalation
        // rounds included, since the pipeline measures the first
        // 2-CHARGED chunk speculatively beside the solve that decides
        // the escalation). Bit-exact twin of the pipelined schedule;
        // see session.hh. Round 2 is the exception: the pipeline
        // joins the session's first solve inline (it is the cheap,
        // underconstrained one and nothing runs beside round 1
        // anyway), so round 2 partitions by the fresh pair in both
        // schedules.
        if (!staleCands_.empty())
            rankPendingBy(staleCands_);
        else if (stats_.solveCalls <= 1 && solve_ && !countsDirty_ &&
                 solve_->solutions.size() >= 2)
            rankPendingBy(solve_->solutions);
        return;
    }
    if (solve_ && !countsDirty_ && solve_->solutions.size() >= 2)
        rankPendingBy(solve_->solutions);
}

std::vector<TestPattern>
Session::peekChunk() const
{
    const std::size_t chunk = chunkLimit(pendingPatternCount());
    return std::vector<TestPattern>(
        pending_.begin() + (std::ptrdiff_t)nextPending_,
        pending_.begin() + (std::ptrdiff_t)(nextPending_ + chunk));
}

ProfileCounts
Session::measureChunk(const std::vector<TestPattern> &round,
                      double &seconds,
                      const std::function<bool()> &cancel)
{
    const auto start = Clock::now();
    std::function<bool()> stop = cancel;
    if (config_.deadlineSeconds > 0.0) {
        // The deadline cuts into a round, between experiments: a
        // round costs many refresh pauses, so stopping only at round
        // boundaries could overshoot by minutes — or never return on
        // a stalling chip.
        stop = [this, cancel] {
            return deadlineExceeded() || (cancel && cancel());
        };
    }
    // Always measure through a config copy: the session's estimator is
    // injected per call (and written back by measureProfile), so every
    // round — speculative and repair re-measurement included — feeds
    // the same running disagreement estimate.
    MeasureConfig measure = config_.measure;
    measure.cancel = std::move(stop);
    measure.estimator = &quorumEstimator_;
    const ProfileCounts observed = measureProfile(
        mem_, round, measure, config_.wordsUnderTest);
    seconds = secondsSince(start);
    return observed;
}

bool
Session::deadlineExceeded() const
{
    return config_.deadlineSeconds > 0.0 &&
           secondsSince(start_) >= config_.deadlineSeconds;
}

bool
Session::budgetExhausted() const
{
    return config_.measurementBudget != 0 &&
           stats_.patternMeasurements >= config_.measurementBudget;
}

bool
Session::checkDegraded()
{
    if (stopReason_)
        return true;
    if (deadlineExceeded())
        stopReason_ = SessionOutcome::DeadlineExceeded;
    else if (budgetExhausted())
        stopReason_ = SessionOutcome::BudgetExhausted;
    return stopReason_.has_value();
}

std::uint64_t
Session::experimentsFor(std::size_t patterns) const
{
    return (std::uint64_t)patterns *
           config_.measure.pausesSeconds.size() *
           config_.measure.repeatsPerPause;
}

void
Session::commitRound(const std::vector<TestPattern> &round,
                     const ProfileCounts &observed, double seconds)
{
    stats_.measureSeconds += seconds;
    // Rounds only ever measure patterns pending_ has not handed out
    // before, so overlap with the accumulated counts is a bug.
    counts_.merge(observed, ProfileCounts::MergeMode::AppendDisjoint);
    countsDirty_ = true;
    ++stats_.measureRounds;
    stats_.patternsMeasured = counts_.patterns.size();
    stats_.patternMeasurements += experimentsFor(round.size());
    stats_.wordObservations += observed.totalObservations();
    stats_.quorumDisagreements += observed.totalDisagreements();
    stats_.quorumVotesSpent += observed.totalVotesSpent();
    stats_.quorumEscalations = quorumEstimator_.escalations;

    notify(SessionStage::Measure);
}

bool
Session::measureRound()
{
    if (nextPending_ >= pending_.size())
        return false;

    if (config_.adaptiveEarlyExit)
        partitionPending();
    const std::vector<TestPattern> round = peekChunk();
    nextPending_ += round.size();

    double seconds = 0.0;
    const ProfileCounts observed = measureChunk(round, seconds);
    commitRound(round, observed, seconds);
    return true;
}

void
Session::prepareSolve(PendingSolve &ps)
{
    profile_ = counts_.threshold(config_.measure.thresholdProbability);

    // While more measurement is still available, enumeration only has
    // to decide uniqueness: two solutions suffice. The stale-partition
    // schedules enumerate a few more (SessionConfig::
    // deferredCandidates) so the next round's ranking sees pairs the
    // already-measured round has not eliminated yet.
    ps.maxSolutions = config_.solver.maxSolutions;
    ps.capped = config_.adaptiveEarlyExit && moreEvidenceAvailable() &&
                !stopReason_;
    if (ps.capped) {
        std::size_t cap = 2;
        if (config_.deferredPartition || config_.pipelined)
            cap = std::max<std::size_t>(cap, config_.deferredCandidates);
        if (ps.maxSolutions == 0 || ps.maxSolutions > cap)
            ps.maxSolutions = cap;
    } else if (stopReason_ && ps.maxSolutions == 0) {
        // A degraded stop (deadline/budget) will not measure again;
        // its final solve reports a ranked candidate set. That set
        // must stay bounded: the evidence committed when a tiny
        // budget trips may admit astronomically many functions, and
        // "enumerate them all" would turn a deadline stop into an
        // unbounded solve.
        ps.maxSolutions = kDegradedCandidateCap;
    }
}

void
Session::solveCore(PendingSolve &ps)
{
    // Runs on a pool task in pipelined mode. Exclusive ownership of
    // incremental_ and read-only access to profile_ for the task's
    // whole lifetime; the session thread touches neither until join.
    ps.start = Clock::now();
    std::uint64_t clauses_before = 0;
    std::size_t rebuilds_before = 0;
    auto start = Clock::now();
    if (config_.incrementalSolve && incremental_) {
        clauses_before = incremental_->satSolver().stats().addedClauses;
        rebuilds_before = incremental_->rebuilds();
    } else {
        // First round, or from-scratch mode: (re)build the context.
        // Construction encodes the eager structural constraints.
        incremental_.emplace(profile_.k,
                             ecc::parityBitsForDataBits(profile_.k),
                             config_.solver);
    }
    ps.round.patternsEncoded = incremental_->addProfile(profile_);
    ps.round.encodeSeconds = secondsSince(start);

    start = Clock::now();
    ps.result = incremental_->solve(ps.maxSolutions);
    ps.round.searchSeconds = secondsSince(start);
    // A non-monotone rebuild replaces the SAT solver, resetting its
    // counters; the round then paid for the whole re-encode.
    if (incremental_->rebuilds() != rebuilds_before)
        clauses_before = 0;
    ps.round.clausesAdded =
        incremental_->satSolver().stats().addedClauses - clauses_before;
    ps.round.solutions = ps.result.solutions.size();
    ps.end = Clock::now();
}

void
Session::recordSolve(PendingSolve &ps)
{
    // The candidates being displaced become the deferred-partition
    // set: when the next round is measured, the solve recorded here
    // is the one running beside it in the pipelined schedule, so the
    // displaced solve is the freshest one that schedule has joined.
    // Cleared (not kept sticky) when the displaced solve surfaced
    // fewer than two candidates, mirroring the pipelined arm's
    // "rank only when the joined solve has candidates" guard.
    if (solve_ && solve_->solutions.size() >= 2)
        staleCands_ = solve_->solutions;
    else
        staleCands_.clear();

    solve_ = std::move(ps.result);

    stats_.solveEncodeSeconds += ps.round.encodeSeconds;
    stats_.solveSearchSeconds += ps.round.searchSeconds;
    stats_.solveSeconds +=
        ps.round.encodeSeconds + ps.round.searchSeconds;
    stats_.solveRounds.push_back(ps.round);

    solveWasCapped_ = ps.capped;
    countsDirty_ = false;
    ++stats_.solveCalls;
    stats_.sat.accumulate(solve_->stats);

    notify(SessionStage::Solve);
}

const BeerSolveResult &
Session::solve()
{
    PendingSolve ps;
    prepareSolve(ps);
    solveCore(ps);
    recordSolve(ps);
    return *solve_;
}

void
Session::warmStart(const MiscorrectionProfile &shared)
{
    if (!config_.incrementalSolve || shared.patterns.empty())
        return;
    if (!incremental_) {
        const std::size_t k = mem_.datawordBits();
        incremental_.emplace(k, ecc::parityBitsForDataBits(k),
                             config_.solver);
    }
    incremental_->warmStart(shared);
}

bool
Session::repairNeeded() const
{
    return config_.repair.enabled && solve_ && solve_->complete &&
           solve_->solutions.empty() && incremental_ &&
           incremental_->roundCount() > 0;
}

std::vector<std::size_t>
Session::localizeCorruptRounds()
{
    IncrementalSolver &inc = *incremental_;
    const std::size_t n = inc.roundCount();

    // Probe order encodes suspicion: rounds whose patterns the quorum
    // flagged as noisy first, then newest first — transient noise is
    // far more likely to have hit the round that just broke the solve
    // than evidence many earlier solves already digested.
    const auto round_suspect = [&](std::size_t r) {
        for (const TestPattern &pattern : inc.roundPatterns(r))
            for (std::size_t i = 0; i < counts_.patterns.size(); ++i)
                if (counts_.patterns[i] == pattern &&
                    counts_.suspect(i))
                    return true;
        return false;
    };
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t pass = 0; pass < 2; ++pass)
        for (std::size_t i = n; i-- > 0;) {
            if (inc.roundDropped(i))
                continue;
            if (round_suspect(i) == (pass == 0))
                order.push_back(i);
        }

    // Grow the suspended set until the remaining constraints are
    // satisfiable: the contradiction lives inside what was suspended.
    const std::uint64_t budget = config_.repair.probeConflictLimit;
    std::vector<std::size_t> suspended;
    bool sat = false;
    for (std::size_t r : order) {
        inc.suspendRound(r);
        suspended.push_back(r);
        if (inc.probe(budget) == sat::SolveResult::Sat) {
            sat = true;
            break;
        }
    }
    if (!sat) {
        // Possible only when budgeted probes ran out of conflicts
        // (structural constraints alone are satisfiable, so with the
        // whole profile suspended an unbounded probe returns Sat).
        for (std::size_t r : suspended)
            inc.resumeRound(r);
        return {};
    }

    // Minimize: resume each suspended round and keep it suspended
    // only if the contradiction comes back with it enforced.
    std::vector<std::size_t> needed;
    for (std::size_t r : suspended) {
        inc.resumeRound(r);
        if (inc.probe(budget) != sat::SolveResult::Sat) {
            inc.suspendRound(r);
            needed.push_back(r);
        }
    }
    // needed can only end up empty if a budgeted probe flip-flopped
    // between Unknown and Sat; treat that as localization failure
    // (everything is resumed at this point).
    return needed;
}

bool
Session::attemptRepair()
{
    for (std::size_t attempt = 0;
         attempt < config_.repair.maxAttempts; ++attempt) {
        if (checkDegraded())
            return false;
        ++stats_.repairAttempts;

        const std::vector<std::size_t> bad = localizeCorruptRounds();
        if (bad.empty())
            return false;

        std::vector<TestPattern> patterns;
        for (std::size_t r : bad) {
            const auto round_patterns = incremental_->roundPatterns(r);
            patterns.insert(patterns.end(), round_patterns.begin(),
                            round_patterns.end());
            incremental_->dropRound(r);
        }
        stats_.roundsRetracted += bad.size();

        // Forget the poisoned observations so the re-measurement
        // commits as a fresh, disjoint round.
        counts_.removePatterns(patterns);
        countsDirty_ = true;

        if (config_.repair.backoffBaseSeconds > 0.0) {
            // Wait out the noise burst that poisoned the round before
            // burning refresh-pause time on re-measuring through it.
            const double delay = config_.repair.backoffBaseSeconds *
                                 (double)(1ULL << attempt);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(delay));
        }

        // Re-measure the retracted patterns at escalated quorum: this
        // evidence was bad once, so every repeat read gets voted.
        const MeasureConfig saved = config_.measure;
        config_.measure.quorum.votes =
            std::max({saved.quorum.votes, saved.quorum.escalatedVotes,
                      config_.repair.remeasureVotes});
        config_.measure.quorum.escalatedVotes =
            config_.measure.quorum.votes;
        double seconds = 0.0;
        const ProfileCounts observed = measureChunk(patterns, seconds);
        config_.measure = saved;
        stats_.patternsRemeasured += patterns.size();
        commitRound(patterns, observed, seconds);

        solve();
        if (!repairNeeded())
            return true;
    }
    return false;
}

void
Session::rankCandidatesByEvidence(
    std::vector<ecc::LinearCode> &cands) const
{
    if (cands.size() < 2)
        return;
    // Every candidate satisfies the *thresholded* profile by
    // construction, so rank by the raw counts instead: sub-threshold
    // residue (noise leftovers, partially measured patterns) still
    // separates candidates the binary profile cannot.
    const auto mismatches = [this](const ecc::LinearCode &code) {
        std::size_t score = 0;
        for (std::size_t p = 0; p < counts_.patterns.size(); ++p) {
            const TestPattern &pattern = counts_.patterns[p];
            for (std::size_t bit = 0; bit < counts_.k; ++bit) {
                if (patternContains(pattern, bit))
                    continue;
                const bool observed = counts_.errorCounts[p][bit] > 0;
                if (miscorrectionPossible(code, pattern, bit) !=
                    observed)
                    ++score;
            }
        }
        return score;
    };
    std::vector<std::pair<std::size_t, ecc::LinearCode>> ranked;
    ranked.reserve(cands.size());
    for (ecc::LinearCode &code : cands)
        ranked.emplace_back(mismatches(code), std::move(code));
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    cands.clear();
    for (auto &entry : ranked)
        cands.push_back(std::move(entry.second));
}

SessionDiagnosis
Session::diagnose() const
{
    SessionDiagnosis d;
    d.candidates = solve_ ? solve_->solutions.size() : 0;
    d.repairAttempts = stats_.repairAttempts;
    d.roundsRetracted = stats_.roundsRetracted;
    d.patternsRemeasured = stats_.patternsRemeasured;
    d.quorumDisagreements = stats_.quorumDisagreements;
    d.elapsedSeconds = secondsSince(start_);
    for (std::size_t i = 0; i < counts_.patterns.size(); ++i)
        if (counts_.suspect(i))
            d.suspectPatterns.push_back(counts_.patterns[i]);

    if (solve_ && solve_->unique() && !countsDirty_) {
        d.outcome = SessionOutcome::Unique;
        d.detail = "recovered a provably unique ECC function";
        return d;
    }
    if (stopReason_) {
        d.outcome = *stopReason_;
        d.detail = *stopReason_ == SessionOutcome::DeadlineExceeded
                       ? "session deadline expired before the evidence "
                         "pinned a unique function"
                       : "measurement budget exhausted before the "
                         "evidence pinned a unique function";
        return d;
    }
    if (solve_ && solve_->complete && solve_->solutions.empty()) {
        d.outcome = SessionOutcome::Unsatisfiable;
        d.detail =
            stats_.repairAttempts > 0
                ? "no ECC function is consistent with the evidence; "
                  "UNSAT repair could not isolate a repairable round "
                  "set (persistent corruption, e.g. stuck-at faults)"
                : "no ECC function is consistent with the evidence "
                  "(corrupted measurements; enable "
                  "SessionConfig::repair)";
        return d;
    }
    d.outcome = SessionOutcome::Ambiguous;
    d.detail = "multiple candidate functions remain, ranked by "
               "agreement with the raw counts";
    return d;
}

std::vector<TestPattern>
Session::escalationPlan() const
{
    auto two_charged = chargedPatterns(mem_.datawordBits(), 2);
    if (config_.adaptiveEarlyExit)
        std::reverse(two_charged.begin(), two_charged.end());
    return two_charged;
}

bool
Session::escalate()
{
    if (escalated_)
        return false;
    escalated_ = true;
    const auto two_charged = escalationPlan();
    pending_.insert(pending_.end(), two_charged.begin(),
                    two_charged.end());
    ++stats_.escalations;
    notify(SessionStage::Escalate);
    return true;
}

bool
Session::canEscalate() const
{
    return config_.escalateToTwoCharged && !escalated_ &&
           mem_.datawordBits() >= 2;
}

bool
Session::moreEvidenceAvailable() const
{
    return pendingPatternCount() > 0 || canEscalate();
}

bool
Session::finished() const
{
    if (solve_ && solve_->unique() && !countsDirty_)
        return true;
    return !moreEvidenceAvailable() && solve_ && !countsDirty_ &&
           !solveWasCapped_;
}

RecoveryReport
Session::run()
{
    if (config_.pipelined)
        return runPipelined();
    while (true) {
        if (checkDegraded())
            break;
        if (measureRound()) {
            // Outside adaptive mode the round covered every pending
            // pattern; either way, decide on the evidence so far.
            solve();
            if (repairNeeded() && !attemptRepair())
                break;
            if (solve_->unique())
                break;
            continue;
        }
        // Nothing pending. Success, escalation, or a final uncapped
        // solve listing the surviving candidates.
        if (solve_ && !countsDirty_ && solve_->unique())
            break;
        if (canEscalate()) {
            escalate();
            continue;
        }
        if (!solve_ || countsDirty_ || solveWasCapped_) {
            solve();
            if (repairNeeded())
                attemptRepair();
        }
        break;
    }
    // Graceful degradation: a deadline/budget stop still reports the
    // ranked candidate set the committed evidence admits (prepareSolve
    // lifts the uniqueness cap once stopReason_ is latched). The
    // deadline bounds measurement — the dominant, refresh-pause cost —
    // not this one last solve.
    if (stopReason_ && (countsDirty_ || solveWasCapped_) &&
        !counts_.patterns.empty())
        solve();
    notify(SessionStage::Done);
    return report();
}

namespace
{

/** Seconds the two steady-clock windows overlap. */
double
windowOverlap(std::chrono::steady_clock::time_point a_start,
              std::chrono::steady_clock::time_point a_end,
              std::chrono::steady_clock::time_point b_start,
              std::chrono::steady_clock::time_point b_end)
{
    const auto start = std::max(a_start, b_start);
    const auto end = std::min(a_end, b_end);
    if (end <= start)
        return 0.0;
    return std::chrono::duration<double>(end - start).count();
}

} // anonymous namespace

RecoveryReport
Session::runPipelined()
{
    util::ThreadPool *pool = config_.solverPool;
    if (!pool) {
        // Background priority: the solve task should consume only CPU
        // time the measurement loop is not using (refresh-pause idle,
        // join blocks) — competing with the measurement datapath for
        // cycles would stretch its wall clock by exactly the cycles
        // borrowed and hide nothing.
        if (!privatePool_)
            privatePool_ = std::make_unique<util::ThreadPool>(
                2, /*background=*/true);
        pool = privatePool_.get();
    }

    // Round 1 has nothing else to overlap with (no solve exists yet),
    // and its solve joins inline too: the remaining first-solve work
    // is cheap (the search is underconstrained and the two-solution
    // cap is hit almost immediately), and joining it before selecting
    // round 2 keeps that round's partition fresh — the deferred
    // schedule would otherwise spend round 2 on an unranked pattern.
    measureRound();
    solve();
    if (repairNeeded() && !attemptRepair()) {
        notify(SessionStage::Done);
        return report();
    }
    if (solve_->unique()) {
        notify(SessionStage::Done);
        return report();
    }
    if (pendingPatternCount() > 0) {
        measureRound(); // round 2: fresh partition, like the twin
    } else if (canEscalate()) {
        // Round 1 consumed the whole plan: mirror the serial loop
        // (escalate, then a fresh-partitioned first 2-CHARGED round)
        // before the pipeline takes over.
        escalate();
        measureRound();
    } else {
        // Round 1 consumed the whole plan and nothing is left to try:
        // the inline solve was launched uncapped and is final.
        notify(SessionStage::Done);
        return report();
    }

    while (true) {
        if (checkDegraded())
            break;
        // Launch this round's solve asynchronously. prepareSolve runs
        // on this thread (it reads counts_ and the pending plan);
        // solveCore owns incremental_/profile_ until the join.
        PendingSolve ps;
        prepareSolve(ps);
        ps.task = util::ClaimableTask(*pool, [this, &ps] {
            solveCore(ps);
        });

        // Measure the next round while the solve runs. Its chunk is
        // selected by the deferred-partition policy: ranked by the
        // candidates of the freshest JOINED solve — the one whose
        // evidence the in-flight solve is consuming — because the
        // in-flight outcome is not available yet. The serial twin
        // (SessionConfig::deferredPartition) makes the identical
        // choice from staleCands_, so both arms issue the identical
        // chip-operation sequence and recover bit-identical results.
        // When the plan is dry but an escalation is still possible,
        // the escalation that the in-flight solve may trigger is
        // speculated the same way: the would-be first 2-CHARGED chunk
        // (same partition policy over the escalation plan) is
        // measured beside the solve, committed only if the solve
        // comes back non-unique.
        std::vector<TestPattern> ahead;
        ProfileCounts ahead_counts;
        double ahead_seconds = 0.0;
        bool ahead_escalates = false;
        // Stop the speculative measurement early once the in-flight
        // solve has finished AND already proved uniqueness: the round
        // is then certain to be discarded, so its remaining refresh
        // pauses would be pure waste. ready() synchronizes with the
        // worker's completion, so reading ps.result after it returns
        // true is race-free; a false return touches nothing.
        const auto doomed = [&ps] {
            return ps.task.ready() && ps.result.unique();
        };
        const auto meas_start = Clock::now();
        if (pendingPatternCount() > 0) {
            if (config_.adaptiveEarlyExit && solve_ &&
                solve_->solutions.size() >= 2)
                rankPendingBy(solve_->solutions);
            ahead = peekChunk();
            nextPending_ += ahead.size();
            ahead_counts = measureChunk(ahead, ahead_seconds, doomed);
        } else if (canEscalate()) {
            std::vector<TestPattern> plan = escalationPlan();
            if (config_.adaptiveEarlyExit && solve_ &&
                solve_->solutions.size() >= 2)
                rankPatterns(plan.begin(), plan.end(),
                             solve_->solutions);
            plan.resize(chunkLimit(plan.size()));
            ahead = std::move(plan);
            ahead_escalates = true;
            ahead_counts = measureChunk(ahead, ahead_seconds, doomed);
        }
        const auto meas_end = Clock::now();

        const bool ran_inline = ps.task.join();
        recordSolve(ps);
        if (!ran_inline && !ahead.empty()) {
            ++stats_.speculatedRounds;
            stats_.overlapSeconds += windowOverlap(
                ps.start, ps.end, meas_start, meas_end);
        }

        // An UNSAT solve means corrupted evidence; repair runs
        // serially here (the solve task is joined, so this thread
        // owns the context again). On failure the measured-ahead
        // round is abandoned with the session — committing evidence
        // into a profile already proven contradictory helps nobody.
        if (repairNeeded() && !attemptRepair())
            break;

        if (solve_->unique()) {
            // Committed evidence already pins the function; the round
            // measured beside this solve overshot the early exit and
            // is dropped unseen (a speculated escalation never
            // happens at all). Its chip operations all came after
            // every committed one, so committed evidence (and the
            // serial twin's RNG stream) is untouched.
            if (!ahead.empty()) {
                ++stats_.discardedRounds;
                // Count what the chip actually executed, not the
                // round's plan: the doomed() cancel usually aborts
                // the measurement partway through.
                const std::size_t words_per_experiment =
                    config_.wordsUnderTest.empty()
                        ? mem_.numWords()
                        : config_.wordsUnderTest.size();
                std::uint64_t observations = 0;
                for (const std::uint64_t tested :
                     ahead_counts.wordsTested)
                    observations += tested;
                stats_.discardedMeasurements +=
                    observations / words_per_experiment;
            }
            break;
        }
        if (ahead.empty()) {
            // Plan dry, no escalation left: the solve above was
            // launched with moreEvidenceAvailable() false, hence
            // uncapped — exactly the serial loop's final solve.
            break;
        }
        if (ahead_escalates) {
            // The solve confirmed the escalation the measured-ahead
            // chunk anticipated. Replaying its selection over the
            // now-appended plan (same candidates — recordSolve()
            // banked them in staleCands_ — same stable ranking)
            // consumes exactly the patterns already measured.
            escalate();
            if (config_.adaptiveEarlyExit && !staleCands_.empty())
                rankPendingBy(staleCands_);
            nextPending_ += ahead.size();
        }
        commitRound(ahead, ahead_counts, ahead_seconds);
    }

    // Same graceful-degradation final solve as the serial loop.
    if (stopReason_ && (countsDirty_ || solveWasCapped_) &&
        !counts_.patterns.empty())
        solve();
    notify(SessionStage::Done);
    return report();
}

RecoveryReport
Session::report() const
{
    RecoveryReport report;
    report.counts = counts_;
    report.profile = profile_;
    if (solve_)
        report.solve = *solve_;
    // An ambiguous ending still hands callers a best guess: order the
    // surviving candidates by raw-count agreement so front() is the
    // likeliest function (the provably-unique case is unaffected).
    if (report.solve.solutions.size() > 1)
        rankCandidatesByEvidence(report.solve.solutions);
    report.usedTwoCharged = escalated_;
    report.stats = stats_;
    report.diagnosis = diagnose();
    return report;
}

void
Session::notify(SessionStage stage)
{
    if (!config_.onProgress)
        return;
    SessionProgress progress;
    progress.stage = stage;
    progress.patternsMeasured = counts_.patterns.size();
    progress.patternsPlanned = pending_.size();
    progress.solutionsFound = solve_ ? solve_->solutions.size() : 0;
    progress.solveComplete = solve_ && solve_->complete;
    progress.escalations = stats_.escalations;
    config_.onProgress(progress);
}

} // namespace beer
