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
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

using beer::util::ThreadPool;

namespace
{

/**
 * Yield until @p value() reaches @p target. After 30 s it gives up
 * with a failure naming @p what and its last value, so a lost wakeup
 * fails the test instead of hanging the suite.
 */
template <typename Value>
::testing::AssertionResult
waitUntilReaches(const char *what, Value value, std::size_t target)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        const auto seen = (std::size_t)value();
        if (seen >= target)
            return ::testing::AssertionSuccess();
        if (std::chrono::steady_clock::now() > deadline)
            return ::testing::AssertionFailure()
                   << what << " stuck at " << seen << " of " << target
                   << " after 30 s";
        std::this_thread::yield();
    }
}

} // anonymous namespace

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
    // The pool is declared after what its tasks use, so its destructor
    // joins the workers before those objects go away.
    constexpr std::size_t kTasks = 64;
    std::atomic<std::size_t> ran{0};
    std::mutex mutex;
    std::condition_variable done;
    ThreadPool pool(4);
    EXPECT_EQ(pool.queuedTasks(), 0u);
    EXPECT_EQ(pool.activeTasks(), 0u);
    EXPECT_EQ(pool.completedTasks(), 0u);

    for (std::size_t i = 0; i < kTasks; ++i)
        pool.submit([&] {
            if (ran.fetch_add(1) + 1 == kTasks) {
                std::lock_guard<std::mutex> lock(mutex);
                done.notify_all();
            }
        });
    {
        // The lock must be released before polling: the last task
        // takes it to notify, and counts as completed only after.
        std::unique_lock<std::mutex> lock(mutex);
        done.wait(lock, [&] { return ran.load() == kTasks; });
    }

    // Once the last task has run, every counter must settle: the
    // notifying task may still be inside the pool's bookkeeping, so
    // poll completedTasks briefly instead of asserting instantly.
    ASSERT_TRUE(waitUntilReaches(
        "completedTasks", [&] { return pool.completedTasks(); }, kTasks));
    EXPECT_EQ(pool.completedTasks(), kTasks);
    EXPECT_EQ(pool.queuedTasks(), 0u);
    EXPECT_EQ(pool.activeTasks(), 0u);
}

TEST(ThreadPool, TaskCountersObserveQueuedAndActiveStates)
{
    // One worker (size 2 = worker + caller): gate the first task so a
    // second submission is observably queued behind it.
    std::mutex mutex;
    std::condition_variable cv;
    bool release = false;
    bool started = false;
    ThreadPool pool(2);

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
    ASSERT_TRUE(waitUntilReaches(
        "completedTasks", [&] { return pool.completedTasks(); }, 2));
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

    ASSERT_TRUE(waitUntilReaches(
        "completedTasks", [&] { return pool.completedTasks(); }, 16));
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
