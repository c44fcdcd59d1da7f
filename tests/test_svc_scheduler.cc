/**
 * @file
 * Tests for the session scheduler: jobs shard across pool workers and
 * genuinely run concurrently (peakConcurrent), the bounded queue
 * load-sheds instead of backlogging, execution follows submission
 * order, a throwing job is recorded Failed without killing its
 * worker, and a job registered already Done never runs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "svc/scheduler.hh"
#include "util/thread_pool.hh"

using beer::svc::JobId;
using beer::svc::JobState;
using beer::svc::SchedulerConfig;
using beer::svc::SessionScheduler;
using beer::util::ThreadPool;

namespace
{

/** Reusable N-party rendezvous for forcing true concurrency. */
class Barrier
{
  public:
    explicit Barrier(std::size_t parties) : parties_(parties) {}

    void arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (++arrived_ >= parties_) {
            cv_.notify_all();
            return;
        }
        cv_.wait(lock, [&] { return arrived_ >= parties_; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t parties_;
    std::size_t arrived_ = 0;
};

} // anonymous namespace

TEST(SvcScheduler, JobsRunConcurrentlyAcrossWorkers)
{
    ThreadPool pool(3); // two workers
    SessionScheduler scheduler(pool);

    // Neither job can pass the barrier until both are running, so
    // reaching drain() at all proves two jobs executed concurrently.
    Barrier barrier(2);
    const JobId a =
        scheduler.submit([&](JobId) { barrier.arriveAndWait(); });
    const JobId b =
        scheduler.submit([&](JobId) { barrier.arriveAndWait(); });
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    scheduler.drain();

    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_GE(stats.peakConcurrent, 2u);
    EXPECT_EQ(scheduler.state(a), JobState::Done);
    EXPECT_EQ(scheduler.state(b), JobState::Done);
}

TEST(SvcScheduler, BoundedQueueRejectsOverflow)
{
    ThreadPool pool(2); // one worker
    SchedulerConfig config;
    config.maxQueuedJobs = 2;
    SessionScheduler scheduler(pool, config);

    // Gate the only worker so later submissions stay queued.
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    bool gate_running = false;
    const JobId gate = scheduler.submit([&](JobId) {
        std::unique_lock<std::mutex> lock(mutex);
        gate_running = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    ASSERT_NE(gate, 0u);
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return gate_running; });
    }

    EXPECT_NE(scheduler.submit([](JobId) {}), 0u);
    EXPECT_NE(scheduler.submit([](JobId) {}), 0u);
    // Queue is now at maxQueuedJobs; the next submission sheds.
    EXPECT_EQ(scheduler.submit([](JobId) {}), 0u);
    EXPECT_EQ(scheduler.stats().rejected, 1u);

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    scheduler.drain();
    EXPECT_EQ(scheduler.stats().completed, 3u);
}

TEST(SvcScheduler, JobsStartInSubmissionOrder)
{
    ThreadPool pool(2); // one worker => strictly sequential
    SessionScheduler scheduler(pool);

    std::mutex mutex;
    std::vector<JobId> order;
    std::vector<JobId> submitted;
    for (int i = 0; i < 8; ++i)
        submitted.push_back(scheduler.submit([&](JobId id) {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(id);
        }));
    scheduler.drain();
    EXPECT_EQ(order, submitted);
}

TEST(SvcScheduler, ThrowingJobIsRecordedFailed)
{
    ThreadPool pool(2);
    SessionScheduler scheduler(pool);

    const JobId bad = scheduler.submit(
        [](JobId) { throw std::runtime_error("boom"); });
    const JobId good = scheduler.submit([](JobId) {});
    ASSERT_TRUE(scheduler.wait(bad));
    ASSERT_TRUE(scheduler.wait(good));

    EXPECT_EQ(scheduler.state(bad), JobState::Failed);
    EXPECT_EQ(scheduler.state(good), JobState::Done);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(SvcScheduler, UnknownIdsAreReported)
{
    ThreadPool pool(2);
    SessionScheduler scheduler(pool);
    EXPECT_FALSE(scheduler.wait(42));
    EXPECT_EQ(scheduler.state(42), std::nullopt);
    EXPECT_FALSE(scheduler.wait(0));
}

TEST(SvcScheduler, StateCountsTrackJobLifecycles)
{
    ThreadPool pool(2); // one worker => strictly sequential
    SessionScheduler scheduler(pool);

    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    bool gate_running = false;
    scheduler.submit([&](JobId) {
        std::unique_lock<std::mutex> lock(mutex);
        gate_running = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    scheduler.submit([](JobId) {});
    scheduler.submit(
        [](JobId) { throw std::runtime_error("injected"); });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return gate_running; });
    }

    // The gate job is running and pins the single worker, so the
    // other two must still be queued.
    auto counts = scheduler.stateCounts();
    EXPECT_EQ(counts.running, 1u);
    EXPECT_EQ(counts.queued, 2u);
    EXPECT_EQ(counts.done, 0u);
    EXPECT_EQ(counts.failed, 0u);

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    scheduler.drain();

    counts = scheduler.stateCounts();
    EXPECT_EQ(counts.running, 0u);
    EXPECT_EQ(counts.queued, 0u);
    EXPECT_EQ(counts.done, 2u);
    EXPECT_EQ(counts.failed, 1u);
}

TEST(SvcScheduler, RetryPolicyRerunsThrowingJobs)
{
    ThreadPool pool(2);
    SessionScheduler scheduler(pool);

    beer::svc::JobPolicy policy;
    policy.maxRetries = 3;

    std::atomic<int> runs{0};
    const JobId flaky = scheduler.submit(
        [&](JobId) {
            // Fail twice, then succeed: the classic transient fault.
            if (runs.fetch_add(1) < 2)
                throw std::runtime_error("transient");
        },
        policy);
    ASSERT_TRUE(scheduler.wait(flaky));

    EXPECT_EQ(scheduler.state(flaky), JobState::Done);
    EXPECT_EQ(runs.load(), 3);
    EXPECT_EQ(scheduler.attempts(flaky), 3u);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
}

TEST(SvcScheduler, ExhaustedRetriesQuarantine)
{
    ThreadPool pool(2);
    SessionScheduler scheduler(pool);

    beer::svc::JobPolicy policy;
    policy.maxRetries = 2;

    std::atomic<int> runs{0};
    const JobId doomed = scheduler.submit(
        [&](JobId) {
            ++runs;
            throw std::runtime_error("persistent");
        },
        policy);
    ASSERT_TRUE(scheduler.wait(doomed));

    // 1 original attempt + 2 retries, then terminal Quarantined (not
    // Failed: the policy was spent, fleet tooling should flag it).
    EXPECT_EQ(runs.load(), 3);
    EXPECT_EQ(scheduler.state(doomed), JobState::Quarantined);
    const auto stats = scheduler.stats();
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(scheduler.stateCounts().quarantined, 1u);
}

TEST(SvcScheduler, StartDeadlineFailsStaleJobsUnrun)
{
    ThreadPool pool(2); // one worker
    SessionScheduler scheduler(pool);

    // Pin the worker long enough for the queued job's start deadline
    // to expire.
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    bool gate_running = false;
    scheduler.submit([&](JobId) {
        std::unique_lock<std::mutex> lock(mutex);
        gate_running = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return gate_running; });
    }

    beer::svc::JobPolicy policy;
    policy.deadlineSeconds = 0.05;
    std::atomic<bool> ran{false};
    const JobId stale =
        scheduler.submit([&](JobId) { ran = true; }, policy);
    ASSERT_NE(stale, 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    ASSERT_TRUE(scheduler.wait(stale));

    EXPECT_FALSE(ran.load());
    EXPECT_EQ(scheduler.state(stale), JobState::Failed);
    EXPECT_EQ(scheduler.stats().expired, 1u);
}

TEST(SvcScheduler, ForcedIdsReplayWithoutCollisions)
{
    ThreadPool pool(2);
    SessionScheduler scheduler(pool);

    // Journal replay resubmits under original ids; organic ids must
    // continue past the forced ones.
    const JobId forced =
        scheduler.submit([](JobId) {}, {}, /*force_id=*/7);
    EXPECT_EQ(forced, 7u);
    const JobId organic = scheduler.submit([](JobId) {});
    EXPECT_GT(organic, 7u);
    scheduler.drain();
    EXPECT_EQ(scheduler.state(7), JobState::Done);
    EXPECT_EQ(scheduler.state(organic), JobState::Done);
}

TEST(SvcScheduler, TerminalHookFiresOncePerJob)
{
    std::mutex mutex;
    std::vector<std::pair<JobId, JobState>> terminals;
    SchedulerConfig config;
    config.onTerminal = [&](JobId id, JobState state) {
        std::lock_guard<std::mutex> lock(mutex);
        terminals.emplace_back(id, state);
    };

    ThreadPool pool(2);
    SessionScheduler scheduler(pool, config);
    beer::svc::JobPolicy policy;
    policy.maxRetries = 1;

    std::atomic<int> runs{0};
    const JobId retried = scheduler.submit(
        [&](JobId) {
            if (runs.fetch_add(1) < 1)
                throw std::runtime_error("once");
        },
        policy);
    const JobId plain = scheduler.submit([](JobId) {});
    scheduler.drain();

    // Retried attempts are not terminal: exactly one hook call per
    // job, carrying the final state.
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(terminals.size(), 2u);
    for (const auto &[id, state] : terminals) {
        EXPECT_TRUE(id == retried || id == plain);
        EXPECT_EQ(state, JobState::Done);
    }
}

TEST(SvcScheduler, SubmitDoneRegistersAFinishedJobWithoutRunningIt)
{
    std::atomic<int> hooks{0};
    SchedulerConfig config;
    config.maxQueuedJobs = 1;
    config.onTerminal = [&](JobId, JobState) { ++hooks; };
    ThreadPool pool(2);
    SessionScheduler scheduler(pool, config);

    const JobId organic = scheduler.submitDone(0);
    const JobId forced = scheduler.submitDone(/*force_id=*/9);
    EXPECT_EQ(forced, 9u);
    EXPECT_GT(scheduler.allocateId(), 9u);
    for (const JobId id : {organic, forced}) {
        EXPECT_TRUE(scheduler.wait(id));
        EXPECT_EQ(scheduler.state(id), JobState::Done);
        EXPECT_EQ(scheduler.attempts(id), 1u);
    }
    const beer::svc::SchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(scheduler.stateCounts().done, 2u);
    // Nothing reached the pool, the caller owns the terminal side
    // effects, and the queue bound is untouched.
    EXPECT_EQ(pool.queuedTasks() + pool.activeTasks() +
                  pool.completedTasks(),
              0u);
    EXPECT_EQ(hooks.load(), 0);
    EXPECT_NE(scheduler.submit([](JobId) {}), 0u);
    scheduler.drain();
}
