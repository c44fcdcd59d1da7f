#include "svc/scheduler.hh"

#include <algorithm>
#include <thread>
#include <utility>

namespace beer::svc
{

SessionScheduler::SessionScheduler(util::ThreadPool &pool,
                                   SchedulerConfig config)
    : pool_(pool), config_(std::move(config))
{
}

SessionScheduler::~SessionScheduler()
{
    drain();
}

JobId
SessionScheduler::allocateId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

JobId
SessionScheduler::takeId(JobId force_id)
{
    // Organic ids must never collide with replayed ones.
    const JobId id = force_id ? force_id : nextId_;
    nextId_ = std::max(nextId_, id + 1);
    return id;
}

JobId
SessionScheduler::submitDone(JobId force_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const JobId id = takeId(force_id);
    Job &job = jobs_[id];
    job.state = JobState::Done;
    job.attempts = 1;
    ++stats_.submitted;
    ++stats_.completed;
    return id;
}

JobId
SessionScheduler::submit(std::function<void(JobId)> work,
                         JobPolicy policy, JobId force_id)
{
    JobId id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (config_.maxQueuedJobs &&
            stats_.queued >= config_.maxQueuedJobs) {
            ++stats_.rejected;
            return 0;
        }
        id = takeId(force_id);
        Job job;
        job.policy = policy;
        job.submitted = std::chrono::steady_clock::now();
        jobs_[id] = job;
        ++stats_.submitted;
        ++stats_.queued;
    }
    // The pool runs tasks in FIFO submission order, so job start
    // order follows JobId order.
    pool_.submit([this, id, work = std::move(work)] {
        runJob(id, work);
    });
    return id;
}

void
SessionScheduler::finishJob(std::unique_lock<std::mutex> &lock,
                            Job &job, JobId id, JobState state)
{
    // Terminal bookkeeping runs in two steps around the onTerminal
    // hook: the state and outcome counters first (so wait()ers and
    // the hook observe the terminal state), then the queued/running
    // decrement that releases drain(). The hook therefore runs
    // lock-free but strictly before a drain()ing thread can destroy
    // this scheduler, and the final notify still happens under the
    // lock (a drain()er may destroy us the moment it observes the
    // updated counters).
    const bool was_running = job.state == JobState::Running;
    job.state = state;
    switch (state) {
    case JobState::Done:
        ++stats_.completed;
        break;
    case JobState::Quarantined:
        ++stats_.quarantined;
        break;
    default:
        ++stats_.failed;
        break;
    }
    lock.unlock();
    if (config_.onTerminal)
        config_.onTerminal(id, state);
    lock.lock();
    if (was_running)
        --stats_.running;
    else
        --stats_.queued;
    changed_.notify_all();
}

void
SessionScheduler::runJob(JobId id,
                         const std::function<void(JobId)> &work)
{
    JobPolicy policy;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Job &job = jobs_[id];
        policy = job.policy;
        // Stale-start enforcement: a job the queue held past its
        // deadline fails unrun (clients stopped waiting long ago).
        if (policy.deadlineSeconds > 0.0 &&
            secondsSince(job.submitted) >= policy.deadlineSeconds) {
            ++stats_.expired;
            finishJob(lock, job, id, JobState::Failed);
            return;
        }
        job.state = JobState::Running;
        ++job.attempts;
        --stats_.queued;
        ++stats_.running;
        stats_.peakConcurrent =
            std::max(stats_.peakConcurrent, stats_.running);
    }
    bool ok = true;
    try {
        work(id);
    } catch (...) {
        ok = false;
    }

    double backoff = 0.0;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Job &job = jobs_[id];
        const bool deadline_passed =
            policy.deadlineSeconds > 0.0 &&
            secondsSince(job.submitted) >= policy.deadlineSeconds;
        if (!ok && job.attempts <= policy.maxRetries &&
            !deadline_passed) {
            // Retry: back to the queue before leaving Running, so a
            // concurrent drain() never observes the job in neither
            // count.
            job.state = JobState::Queued;
            ++stats_.retries;
            ++stats_.queued;
            --stats_.running;
            changed_.notify_all();
            if (policy.backoffBaseSeconds > 0.0)
                backoff = policy.backoffBaseSeconds *
                          (double)(1ULL << (job.attempts - 1));
        } else if (ok) {
            finishJob(lock, job, id, JobState::Done);
            return;
        } else {
            // A job that burned a whole retry policy is quarantined:
            // terminal like Failed, but flagged for fleet tooling as
            // "this chip keeps failing".
            finishJob(lock, job, id,
                      policy.maxRetries > 0 ? JobState::Quarantined
                                            : JobState::Failed);
            return;
        }
    }
    // Exponential backoff between attempts, on the worker: retrying a
    // noisy chip back-to-back usually re-measures the same burst.
    if (backoff > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff));
    pool_.submit([this, id, w = work] { runJob(id, w); });
}

bool
SessionScheduler::wait(JobId id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    changed_.wait(lock, [&] {
        const JobState state = jobs_.at(id).state;
        return state == JobState::Done ||
               state == JobState::Failed ||
               state == JobState::Quarantined;
    });
    return true;
}

void
SessionScheduler::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] {
        return stats_.queued == 0 && stats_.running == 0;
    });
}

std::optional<JobState>
SessionScheduler::state(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second.state;
}

std::size_t
SessionScheduler::attempts(JobId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return 0;
    return it->second.attempts;
}

SchedulerStats
SessionScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

JobStateCounts
SessionScheduler::stateCounts() const
{
    JobStateCounts counts;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[id, job] : jobs_) {
        (void)id;
        switch (job.state) {
        case JobState::Queued:
            ++counts.queued;
            break;
        case JobState::Running:
            ++counts.running;
            break;
        case JobState::Done:
            ++counts.done;
            break;
        case JobState::Failed:
            ++counts.failed;
            break;
        case JobState::Quarantined:
            ++counts.quarantined;
            break;
        }
    }
    return counts;
}

} // namespace beer::svc
