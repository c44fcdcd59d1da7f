/**
 * @file
 * Minimal fixed-size thread pool for deterministic data-parallel loops
 * and one-off asynchronous tasks.
 *
 * The pool exposes two primitives. parallelFor() splits [0, count)
 * across the worker threads plus the calling thread. Work items are
 * claimed dynamically with an atomic counter, so callers must make each
 * item's result independent of which thread runs it; the simulation
 * engine does this by giving every shard its own forked Rng stream
 * keyed by shard index and merging results in shard order. With that
 * discipline, results are bit-identical for any thread count.
 *
 * submit() enqueues a detached task that a worker runs when it is not
 * claiming parallelFor items (parallelFor has priority: its callers
 * block). Tasks run in FIFO submission order, which is what gives the
 * service scheduler (svc/scheduler.hh) its deterministic job ordering.
 * The task queue is observable through queuedTasks() / activeTasks() /
 * completedTasks(), the counters the recovery service's health
 * endpoint reports.
 */

#ifndef BEER_UTIL_THREAD_POOL_HH
#define BEER_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace beer::util
{

/** Fixed-size worker pool executing blocking parallel-for loops. */
class ThreadPool
{
  public:
    /**
     * @param num_threads total threads that execute work, including
     *        the calling thread; 0 means hardware concurrency.
     */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads that execute work (workers + calling thread). */
    std::size_t size() const { return workers_.size() + 1; }

    /**
     * Run body(i) for every i in [0, count) and return once all calls
     * have finished. The calling thread participates. Not reentrant:
     * body must not call parallelFor on the same pool.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Enqueue a one-off task for asynchronous execution on a worker
     * thread. Tasks start in FIFO submission order. When the pool has
     * no workers (size() == 1) the task runs inline before submit()
     * returns, so single-threaded configurations stay correct, just
     * synchronous. Unstarted tasks still queued at destruction are
     * discarded — callers that care must quiesce first (the service
     * scheduler drains its jobs before releasing the pool).
     */
    void submit(std::function<void()> task);

    /** Submitted tasks waiting for a worker. */
    std::uint64_t queuedTasks() const
    {
        return queuedTasks_.load(std::memory_order_relaxed);
    }
    /** Submitted tasks currently executing. */
    std::uint64_t activeTasks() const
    {
        return activeTasks_.load(std::memory_order_relaxed);
    }
    /** Submitted tasks that finished, cumulative over the lifetime. */
    std::uint64_t completedTasks() const
    {
        return completedTasks_.load(std::memory_order_relaxed);
    }

  private:
    void workerLoop();
    /** Claim and run items of the current job until none remain. */
    void runItems(const std::function<void(std::size_t)> &body,
                  std::size_t count);
    /** Run one async task; @p lock is held on entry and exit. */
    void runTask(std::unique_lock<std::mutex> &lock);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /** FIFO queue of submit()ted tasks (guarded by mutex_). */
    std::deque<std::function<void()>> tasks_;
    std::atomic<std::uint64_t> queuedTasks_{0};
    std::atomic<std::uint64_t> activeTasks_{0};
    std::atomic<std::uint64_t> completedTasks_{0};
    /**
     * Current job; null once its parallelFor has returned, so a
     * worker that wakes late never joins a finished job.
     */
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::size_t> completed_{0};
    /** Workers currently inside runItems (callers wait for zero). */
    std::size_t running_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
};

} // namespace beer::util

#endif // BEER_UTIL_THREAD_POOL_HH
