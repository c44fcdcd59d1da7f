/**
 * @file
 * Tests for util::ThreadPool: full coverage of the index space, reuse
 * across jobs, degenerate sizes, concurrent mutation safety, late
 * workers never touching a returned job, and the async task queue
 * with its observability counters.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

using beer::util::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 100u * 99u / 2);
    }
}

TEST(ThreadPool, SingleThreadAndEmptyJobs)
{
    ThreadPool serial(1);
    EXPECT_EQ(serial.size(), 1u);
    std::size_t ran = 0;
    serial.parallelFor(0, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 0u);
    serial.parallelFor(7, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 7u);
}

TEST(ThreadPool, MoreThreadsThanWork)
{
    ThreadPool pool(8);
    EXPECT_EQ(pool.size(), 8u);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    std::atomic<std::size_t> count{0};
    pool.parallelFor(64, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPool, SubmitRunsTasksAndCountsThem)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.queuedTasks(), 0u);
    EXPECT_EQ(pool.activeTasks(), 0u);
    EXPECT_EQ(pool.completedTasks(), 0u);

    constexpr std::size_t kTasks = 64;
    std::atomic<std::size_t> ran{0};
    std::mutex mutex;
    std::condition_variable done;
    for (std::size_t i = 0; i < kTasks; ++i)
        pool.submit([&] {
            if (ran.fetch_add(1) + 1 == kTasks) {
                std::lock_guard<std::mutex> lock(mutex);
                done.notify_all();
            }
        });
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return ran.load() == kTasks; });

    // Once the last task has run, every counter must settle: the
    // notifying task may still be inside the pool's bookkeeping, so
    // poll completedTasks briefly instead of asserting instantly.
    while (pool.completedTasks() < kTasks)
        std::this_thread::yield();
    EXPECT_EQ(pool.completedTasks(), kTasks);
    EXPECT_EQ(pool.queuedTasks(), 0u);
    EXPECT_EQ(pool.activeTasks(), 0u);
}

TEST(ThreadPool, TaskCountersObserveQueuedAndActiveStates)
{
    // One worker (size 2 = worker + caller): gate the first task so a
    // second submission is observably queued behind it.
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    bool started = false;

    pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    pool.submit([] {});

    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return started; });
    }
    EXPECT_EQ(pool.activeTasks(), 1u);
    EXPECT_EQ(pool.queuedTasks(), 1u);
    EXPECT_EQ(pool.completedTasks(), 0u);

    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    while (pool.completedTasks() < 2)
        std::this_thread::yield();
    EXPECT_EQ(pool.queuedTasks(), 0u);
    EXPECT_EQ(pool.activeTasks(), 0u);
}

TEST(ThreadPool, SubmitRunsInlineWithoutWorkers)
{
    ThreadPool pool(1);
    bool ran = false;
    pool.submit([&] { ran = true; });
    EXPECT_TRUE(ran);
    EXPECT_EQ(pool.completedTasks(), 1u);
}

TEST(ThreadPool, SubmitCoexistsWithParallelFor)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> taskRuns{0};
    for (std::size_t i = 0; i < 16; ++i)
        pool.submit([&] { ++taskRuns; });

    // parallelFor takes priority but must not lose queued tasks.
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 100u * 99u / 2);

    while (pool.completedTasks() < 16)
        std::this_thread::yield();
    EXPECT_EQ(taskRuns.load(), 16u);
}

TEST(ThreadPool, DisjointShardWritesNeedNoSynchronization)
{
    // The simulation engine's usage pattern: each item writes its own
    // slot of a pre-sized vector.
    ThreadPool pool(4);
    std::vector<std::size_t> results(257, 0);
    pool.parallelFor(results.size(),
                     [&](std::size_t i) { results[i] = i * i; });
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPool, LateWorkerNeverRunsAReturnedJob)
{
    // Regression: a worker that woke after parallelFor had returned
    // still joined that job, and once the caller's next parallelFor
    // reset the item counter it claimed items of the dead job through
    // a dangling body pointer. Tiny jobs let the caller finish alone
    // before the workers wake, which is what opens that window; the
    // changing item count makes a dead body claim out-of-range items,
    // or consume an index it then never runs. That last case
    // deadlocks parallelFor, so a watchdog turns a hang into a crash.
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    std::thread watchdog([&] {
        std::unique_lock<std::mutex> lock(mutex);
        if (!cv.wait_for(lock, std::chrono::seconds(60),
                         [&] { return finished; })) {
            std::fprintf(stderr, "parallelFor deadlocked\n");
            std::abort();
        }
    });

    ThreadPool pool(4);
    constexpr std::uint64_t kJobs = 20000;
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> stale{0};
    for (std::uint64_t job = 1; job <= kJobs; ++job) {
        const std::size_t count = 2 + (std::size_t)(job % 5) * 3;
        std::atomic<std::size_t> ran{0};
        const std::function<void(std::size_t)> body =
            [&live, &stale, &ran, job, count](std::size_t i) {
                if (live.load() != job || i >= count)
                    ++stale;
                ++ran;
            };
        live.store(job);
        pool.parallelFor(count, body);
        live.store(0);
        EXPECT_EQ(ran.load(), count) << "job " << job;
    }
    EXPECT_EQ(stale.load(), 0u);
    {
        std::lock_guard<std::mutex> lock(mutex);
        finished = true;
    }
    cv.notify_all();
    watchdog.join();
}

TEST(ThreadPool, ClaimableTaskRunsSynchronouslyOnWorkerlessPool)
{
    // size()==1 pools have no workers: submit() executes inline, so
    // the task has already run (exactly once) when the constructor
    // returns, and join() only observes the completion.
    ThreadPool pool(1);
    std::atomic<int> runs{0};
    beer::util::ClaimableTask task(pool, [&] { ++runs; });
    EXPECT_TRUE(task.active());
    EXPECT_TRUE(task.ready());
    EXPECT_FALSE(task.join());
    EXPECT_EQ(runs.load(), 1);
    EXPECT_FALSE(task.active());
    // Idempotent: a second join neither blocks nor re-runs.
    EXPECT_FALSE(task.join());
    EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPool, ClaimableTaskJoinRunsInlineWhenWorkersAreBusy)
{
    // Pin the only worker, then join an unclaimed task: join() must
    // execute it on the calling thread (this is what makes pipelined
    // sessions deadlock-free on a saturated service pool) and report
    // the inline execution.
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
    });
    std::atomic<int> runs{0};
    beer::util::ClaimableTask task(pool, [&] { ++runs; });
    EXPECT_TRUE(task.join());
    EXPECT_EQ(runs.load(), 1);
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    while (pool.completedTasks() < 2)
        std::this_thread::yield();
}

TEST(ThreadPool, ClaimableTaskWorkerClaimObservableThroughReady)
{
    ThreadPool pool(2);
    std::atomic<int> runs{0};
    beer::util::ClaimableTask task(pool, [&] { ++runs; });
    while (!task.ready())
        std::this_thread::yield();
    // The worker ran it; join() must not execute it again.
    EXPECT_FALSE(task.join());
    EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPool, ClaimableTaskJoinRethrowsTaskException)
{
    ThreadPool pool(1);
    beer::util::ClaimableTask task(
        pool, [] { throw std::runtime_error("solver exploded"); });
    EXPECT_THROW(task.join(), std::runtime_error);
}

TEST(ThreadPool, ClaimableTaskCancelBeforeClaimSkipsExecution)
{
    // Queue the task behind a blocker so no worker reaches it, then
    // cancel: the function must never run.
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return release; });
    });
    std::atomic<int> runs{0};
    beer::util::ClaimableTask task(pool, [&] { ++runs; });
    task.cancel();
    {
        std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    while (pool.completedTasks() < 2)
        std::this_thread::yield();
    EXPECT_EQ(runs.load(), 0);
    EXPECT_FALSE(task.active());
}

TEST(ThreadPool, DefaultClaimableTaskIsInert)
{
    beer::util::ClaimableTask task;
    EXPECT_FALSE(task.active());
    EXPECT_FALSE(task.ready());
    EXPECT_FALSE(task.join());
}

TEST(ThreadPool, BackgroundPoolRunsAllPrimitives)
{
    // Idle scheduling priority (best effort; silently a no-op on
    // non-Linux hosts) must not change any observable behavior.
    ThreadPool pool(3, /*background=*/true);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 100u * 99u / 2);

    std::atomic<int> runs{0};
    beer::util::ClaimableTask task(pool, [&] { ++runs; });
    task.join();
    EXPECT_EQ(runs.load(), 1);
}
