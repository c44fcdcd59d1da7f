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

/** Solution cap for the final solve after a deadline stop, when no
 *  explicit BeerSolverConfig::maxSolutions bounds it. */
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
    // the retractable encoding.
    if (config_.repair.enabled)
        config_.solver.retractableProfile = true;
    const std::size_t k = mem_.datawordBits();
    BEER_ASSERT(k > 0);
    pending_ = chargedPatterns(k, 1);
    // Measure high-index patterns first. Structured (canonical)
    // parity-check matrices place their largest-support columns at
    // high data-bit indices, and a pattern's measurement constrains
    // every column whose support is included in its own — so
    // large-support patterns prune the candidate space fastest and the
    // solve becomes provably unique after fewer patterns (the
    // manufacturer-B configuration drops from 16 to 10 measured
    // patterns at k=16).
    std::reverse(pending_.begin(), pending_.end());
    counts_.k = k;
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
    // discriminating pattern. While patterns are pending, solve()
    // stops at two candidates, so the pair is the whole set.
    if (!solve_ || countsDirty_ || solve_->solutions.size() < 2)
        return;
    const ecc::LinearCode &x = solve_->solutions[0];
    const ecc::LinearCode &y = solve_->solutions[1];
    std::stable_partition(
        pending_.begin() + (std::ptrdiff_t)nextPending_, pending_.end(),
        [&](const TestPattern &pattern) {
            return distinguishes(pattern, x, y);
        });
}

ProfileCounts
Session::measureChunk(const std::vector<TestPattern> &round,
                      double &seconds)
{
    const auto start = Clock::now();
    // Always measure through a config copy: the session's estimator is
    // injected per call (and written back by measureProfile), so every
    // round — repair re-measurement included — feeds the same running
    // disagreement estimate.
    MeasureConfig measure = config_.measure;
    // The session's deadline is the only cancel a round honors.
    measure.cancel = nullptr;
    if (config_.deadlineSeconds > 0.0) {
        // The deadline cuts into a round, between experiments: a
        // round costs many refresh pauses, so stopping only at round
        // boundaries could overshoot by minutes — or never return on
        // a stalling chip.
        measure.cancel = [this] { return deadlineExceeded(); };
    }
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
Session::checkDeadline()
{
    if (!deadlineHit_)
        deadlineHit_ = deadlineExceeded();
    return deadlineHit_;
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

    partitionPending();
    const std::size_t chunk = std::min(
        pendingPatternCount(),
        std::max<std::size_t>(1, mem_.datawordBits() / 8));
    const std::vector<TestPattern> round(
        pending_.begin() + (std::ptrdiff_t)nextPending_,
        pending_.begin() + (std::ptrdiff_t)(nextPending_ + chunk));
    nextPending_ += chunk;

    double seconds = 0.0;
    const ProfileCounts observed = measureChunk(round, seconds);
    commitRound(round, observed, seconds);
    return true;
}

const BeerSolveResult &
Session::solve()
{
    profile_ = counts_.threshold(config_.measure.thresholdProbability);

    // While more measurement is still available, enumeration only has
    // to decide uniqueness: two solutions suffice, and they are the
    // pair the next round is ranked by.
    std::size_t max_solutions = config_.solver.maxSolutions;
    const bool capped = moreEvidenceAvailable() && !deadlineHit_;
    if (capped) {
        if (max_solutions == 0 || max_solutions > 2)
            max_solutions = 2;
    } else if (deadlineHit_ && max_solutions == 0) {
        // A deadline stop will not measure again; its final solve
        // reports a ranked candidate set. That set must stay bounded:
        // the evidence committed when an early deadline trips may
        // admit astronomically many functions, and "enumerate them
        // all" would turn a deadline stop into an unbounded solve.
        max_solutions = kDegradedCandidateCap;
    }

    SolveRoundStats round;
    std::uint64_t clauses_before = 0;
    std::size_t rebuilds_before = 0;
    auto start = Clock::now();
    if (incremental_) {
        clauses_before = incremental_->satSolver().stats().addedClauses;
        rebuilds_before = incremental_->rebuilds();
    } else {
        // First round: construction encodes the eager structural
        // constraints.
        incremental_.emplace(profile_.k,
                             ecc::parityBitsForDataBits(profile_.k),
                             config_.solver);
    }
    round.patternsEncoded = incremental_->addProfile(profile_);
    round.encodeSeconds = secondsSince(start);

    start = Clock::now();
    solve_ = incremental_->solve(max_solutions);
    round.searchSeconds = secondsSince(start);
    // A non-monotone rebuild replaces the SAT solver, resetting its
    // counters; the round then paid for the whole re-encode.
    if (incremental_->rebuilds() != rebuilds_before)
        clauses_before = 0;
    round.clausesAdded =
        incremental_->satSolver().stats().addedClauses - clauses_before;
    round.solutions = solve_->solutions.size();

    stats_.solveEncodeSeconds += round.encodeSeconds;
    stats_.solveSearchSeconds += round.searchSeconds;
    stats_.solveSeconds += round.encodeSeconds + round.searchSeconds;
    stats_.solveRounds.push_back(round);

    solveWasCapped_ = capped;
    countsDirty_ = false;
    ++stats_.solveCalls;
    stats_.sat.accumulate(solve_->stats);

    notify(SessionStage::Solve);
    return *solve_;
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
        if (checkDeadline())
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
    if (deadlineHit_) {
        d.outcome = SessionOutcome::DeadlineExceeded;
        d.detail = "session deadline expired before the evidence "
                   "pinned a unique function";
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

void
Session::escalate()
{
    escalated_ = true;
    auto two_charged = chargedPatterns(mem_.datawordBits(), 2);
    std::reverse(two_charged.begin(), two_charged.end());
    pending_.insert(pending_.end(), two_charged.begin(),
                    two_charged.end());
    ++stats_.escalations;
    notify(SessionStage::Escalate);
}

bool
Session::canEscalate() const
{
    return !escalated_ && mem_.datawordBits() >= 2;
}

bool
Session::moreEvidenceAvailable() const
{
    return pendingPatternCount() > 0 || canEscalate();
}

RecoveryReport
Session::run()
{
    while (true) {
        if (checkDeadline())
            break;
        if (measureRound()) {
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
    // Graceful degradation: a deadline stop still reports the ranked
    // candidate set the committed evidence admits (solve() lifts the
    // uniqueness cap once deadlineHit_ is latched). The deadline
    // bounds measurement — the dominant, refresh-pause cost — not this
    // one last solve.
    if (deadlineHit_ && (countsDirty_ || solveWasCapped_) &&
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
