#include "util/thread_pool.hh"

namespace beer::util
{

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    workers_.reserve(num_threads - 1);
    for (std::size_t i = 1; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runItems(const std::function<void(std::size_t)> &body,
                     std::size_t count)
{
    std::size_t i;
    while ((i = next_.fetch_add(1)) < count) {
        body(i);
        completed_.fetch_add(1);
    }
}

void
ThreadPool::runTask(std::unique_lock<std::mutex> &lock)
{
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    queuedTasks_.fetch_sub(1, std::memory_order_relaxed);
    activeTasks_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    task();
    lock.lock();
    activeTasks_.fetch_sub(1, std::memory_order_relaxed);
    completedTasks_.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        wake_.wait(lock, [&] {
            return stop_ || generation_ != seen || !tasks_.empty();
        });
        if (stop_)
            return;
        // parallelFor jobs first: their caller is blocked inside
        // parallelFor, while submit()ted tasks have nobody waiting.
        if (generation_ != seen) {
            seen = generation_;
            // A worker that was slow to wake may find the job already
            // returned: parallelFor clears body_ once its wait is
            // over. Joining such a job is unsafe, not merely useless
            // — the caller's next parallelFor resets next_, and this
            // worker would then claim items of the new job and run
            // them through the dead job's dangling body pointer (or
            // claim and drop one past the dead job's count, so the
            // new job never completes). Skip it instead.
            if (!body_)
                continue;
            const std::function<void(std::size_t)> *body = body_;
            const std::size_t count = count_;
            // Joining under the lock makes the caller wait for us:
            // it clears body_ only once running_ is back to zero.
            ++running_;
            lock.unlock();
            runItems(*body, count);
            lock.lock();
            --running_;
            done_.notify_all();
            continue;
        }
        runTask(lock);
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        activeTasks_.fetch_add(1, std::memory_order_relaxed);
        task();
        activeTasks_.fetch_sub(1, std::memory_order_relaxed);
        completedTasks_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
        queuedTasks_.fetch_add(1, std::memory_order_relaxed);
    }
    wake_.notify_one();
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        body_ = &body;
        count_ = count;
        next_.store(0);
        completed_.store(0);
        ++generation_;
    }
    wake_.notify_all();
    runItems(body, count);
    // Wait until every item has run AND every worker has left
    // runItems: only then is it safe to let `body` go out of scope or
    // publish a new job that resets next_.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
        return completed_.load() >= count_ && running_ == 0;
    });
    body_ = nullptr;
}

} // namespace beer::util
