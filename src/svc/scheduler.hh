/**
 * @file
 * Sharded recovery-job scheduler.
 *
 * Bridges the service's job-oriented API onto util::ThreadPool's task
 * queue: every submitted job becomes one pool task, so concurrent
 * recovery jobs shard across the pool's workers while the pool's
 * FIFO task order keeps job execution order deterministic (job i
 * starts no later than job i+1). The queue is bounded — submissions
 * beyond maxQueuedJobs are rejected with a zero JobId instead of
 * building unbounded backlog, the service layer's load-shedding
 * contract (HTTP 429).
 *
 * The scheduler tracks per-job state (Queued/Running/Done/Failed/
 * Quarantined) and aggregate counters, including the peak number of
 * concurrently running jobs — the observable the acceptance test uses
 * to prove multiple jobs really make progress simultaneously.
 *
 * Jobs carry an optional resilience policy (JobPolicy): a throwing
 * attempt is retried automatically with exponential backoff up to
 * maxRetries, after which the job is *quarantined* — a terminal state
 * distinct from Failed that marks "this chip keeps failing, stop
 * feeding it work" for fleet tooling. A start deadline bounds how
 * stale a queued job may get: jobs picked up (or retried) past their
 * deadline fail without running. Journal replay after a crash re-
 * submits jobs under their original ids (the forced-id submit form),
 * so poll URLs and dedup keys survive a restart.
 */

#ifndef BEER_SVC_SCHEDULER_HH
#define BEER_SVC_SCHEDULER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "util/thread_pool.hh"

namespace beer::svc
{

/** Monotonically increasing job identity; 0 is "no job" (rejected). */
using JobId = std::uint64_t;

/** Steady-clock seconds elapsed since @p start. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Lifecycle of a scheduled job. */
enum class JobState
{
    Queued,
    Running,
    Done,
    Failed,
    /** Terminal: failed every attempt of a retry policy. The fleet
     *  reads this as "stop submitting this chip until a human looks". */
    Quarantined,
};

/** Per-job resilience policy (all off by default). */
struct JobPolicy
{
    /** Automatic re-runs after a throwing attempt (0 = fail fast).
     *  A job that exhausts its retries is Quarantined, not Failed. */
    std::size_t maxRetries = 0;
    /** Sleep backoffBaseSeconds * 2^(attempt-1) before retry attempt
     *  N (0 disables). The sleep runs on the worker, trading one pool
     *  slot for not hammering a noisy chip back-to-back. */
    double backoffBaseSeconds = 0.0;
    /**
     * Seconds after submission by which the job must *start* (0 =
     * none). A job dequeued — or considered for retry — past this is
     * failed without running: the scheduler cannot preempt a running
     * body, so in-flight timeout enforcement belongs to the body.
     */
    double deadlineSeconds = 0.0;
};

/** Knobs for the scheduler. */
struct SchedulerConfig
{
    /** Max jobs queued-but-not-running before submissions shed. */
    std::size_t maxQueuedJobs = 256;
    /**
     * Invoked (without scheduler locks held) whenever a job reaches a
     * terminal state — Done, Failed, or Quarantined, once per job.
     * Retried attempts are not terminal. The service layer journals
     * completions through this.
     */
    std::function<void(JobId, JobState)> onTerminal;
};

/** Aggregate counters (instantaneous + cumulative). */
struct SchedulerStats
{
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    /** Jobs currently waiting for a worker. */
    std::uint64_t queued = 0;
    /** Jobs currently executing. */
    std::uint64_t running = 0;
    /** Peak of `running` over the scheduler's lifetime. */
    std::uint64_t peakConcurrent = 0;
    /** Attempts re-queued by a retry policy. */
    std::uint64_t retries = 0;
    /** Jobs that exhausted their retries (terminal Quarantined). */
    std::uint64_t quarantined = 0;
    /** Jobs failed unrun because their start deadline had passed. */
    std::uint64_t expired = 0;
};

/** Jobs per lifecycle state, counted over every job ever issued —
 * the health endpoint's load-shedding diagnostic (a full queue shows
 * up as `queued` pinned at maxQueuedJobs). */
struct JobStateCounts
{
    std::uint64_t queued = 0;
    std::uint64_t running = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t quarantined = 0;
};

/** Job scheduler over a shared thread pool; see file comment. */
class SessionScheduler
{
  public:
    /** @p pool must outlive the scheduler. */
    explicit SessionScheduler(util::ThreadPool &pool,
                              SchedulerConfig config = {});
    /** Drains: blocks until every accepted job has finished. */
    ~SessionScheduler();

    SessionScheduler(const SessionScheduler &) = delete;
    SessionScheduler &operator=(const SessionScheduler &) = delete;

    /**
     * Schedule @p work under @p policy. Returns the assigned JobId,
     * or 0 if the bounded queue is full. @p work receives its own
     * JobId. A throwing job is retried per the policy, then recorded
     * Failed (no policy) or Quarantined (retries exhausted); the
     * exception never propagates (the pool worker must survive).
     *
     * @p force_id reuses a specific id (journal replay after a crash:
     * resumed jobs keep the ids clients are polling). Forced ids must
     * not collide with live ones; the id counter advances past them
     * so later organic submissions cannot collide either.
     */
    JobId submit(std::function<void(JobId)> work,
                 JobPolicy policy = {}, JobId force_id = 0);

    /**
     * Reserve the next JobId without scheduling anything; pass it to
     * submit() as @p force_id afterwards. This is the journal-before-
     * schedule ordering: the service journals `submit <id>` durably
     * BEFORE the scheduler can start the job, so a crash between the
     * two replays the job instead of losing it, and the id in the
     * journal is the id clients poll.
     */
    JobId allocateId();

    /**
     * Register a job whose answer the caller already has (the
     * service's inline exact cache hit): it is Done with one attempt,
     * so wait(), state(), attempts() and stateCounts() see it like
     * any finished job. It never takes a queue slot, never reaches
     * the pool, and onTerminal is not invoked — the caller owns its
     * terminal side effects. @p force_id as for submit().
     */
    JobId submitDone(JobId force_id);

    /**
     * Block until @p id reaches a terminal state (Done, Failed, or
     * Quarantined).
     *
     * @return false if @p id was never issued
     */
    bool wait(JobId id);

    /** Block until every accepted job has finished. */
    void drain();

    /** State of @p id; nullopt if never issued. */
    std::optional<JobState> state(JobId id) const;

    /** Attempts started for @p id so far (0 if unknown/not started). */
    std::size_t attempts(JobId id) const;

    SchedulerStats stats() const;

    /** Per-state job census under one lock acquisition. */
    JobStateCounts stateCounts() const;

  private:
    struct Job
    {
        JobState state = JobState::Queued;
        JobPolicy policy;
        std::size_t attempts = 0;
        std::chrono::steady_clock::time_point submitted;
    };

    /** @p force_id, or the next organic id (caller holds mutex_). */
    JobId takeId(JobId force_id);
    void runJob(JobId id, const std::function<void(JobId)> &work);
    /** Terminal transition + notify; returns the hook to invoke. */
    void finishJob(std::unique_lock<std::mutex> &lock, Job &job,
                   JobId id, JobState state);

    util::ThreadPool &pool_;
    SchedulerConfig config_;
    mutable std::mutex mutex_;
    std::condition_variable changed_;
    std::unordered_map<JobId, Job> jobs_;
    JobId nextId_ = 1;
    SchedulerStats stats_;
};

} // namespace beer::svc

#endif // BEER_SVC_SCHEDULER_HH
