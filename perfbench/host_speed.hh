/**
 * @file
 * Host-speed reference for timings taken on shared machines.
 *
 * On a shared host the same work runs 20-40% slower for minutes at a
 * time, on every core at once, which no run length averages away. The
 * benchmark therefore times a fixed reference kernel (integer hashing
 * with data-dependent branches over an L1-resident table, then a
 * pointer chase through a 256 KiB permutation) during every run, and
 * scales reported durations by kReferenceSeconds / (mean kernel time),
 * so they read as on a host where the kernel takes kReferenceSeconds.
 *
 * The kernel is only timed while no library code runs: set-up is
 * bracketed by samples on the main thread, and a SampleGate stops every
 * benchmark thread between items before any of them times it. Library
 * worker threads (chip pools, service workers) are idle then, because
 * each benchmark thread waits for its item to finish. So a library
 * change that costs CPU, SMT siblings or clock frequency cannot slow
 * the kernel and cancel itself out of the scaled figures.
 */

#ifndef BEERBENCH_HOST_SPEED_HH
#define BEERBENCH_HOST_SPEED_HH

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace beerbench
{

/** Reference kernel time the reported durations are scaled to. */
inline constexpr double kReferenceSeconds = 2e-3;

/** Keeps the kernel's result observable so its loops are not elided. */
inline std::atomic<std::uint32_t> referenceSink{0};

/** Wall seconds of one run of the reference kernel. */
inline double
referenceKernelSeconds()
{
    // A fixed random permutation of 64 Ki entries.
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> v(1u << 16);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint32_t i = 0; i < v.size(); ++i)
            v[i] = i;
        for (std::size_t i = v.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(v[i], v[x % (i + 1)]);
        }
        return v;
    }();

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 100000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint32_t v = table[x & 4095];
        if (v & 1)
            acc += v * 3ULL;
        else
            acc ^= (std::uint64_t)v << 2;
        if ((acc & 7) == 3)
            acc += (std::uint64_t)__builtin_popcountll(x);
    }
    std::uint32_t idx = (std::uint32_t)acc & 0xffff;
    for (int i = 0; i < 100000; ++i)
        idx = table[idx];
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    referenceSink.store(idx, std::memory_order_relaxed);
    return seconds;
}

/** Reference samples of one thread or run; see file comment. */
class HostSpeed
{
  public:
    void sample()
    {
        sum_ += referenceKernelSeconds();
        ++count_;
    }

    void merge(const HostSpeed &other)
    {
        sum_ += other.sum_;
        count_ += other.count_;
    }

    /** Factor that turns measured seconds into reference seconds. */
    double scale() const
    {
        return count_ ? kReferenceSeconds * (double)count_ / sum_ : 1.0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Lets a fixed set of benchmark threads time the kernel together while
 * none of them runs an item; see file comment. Each thread calls
 * between() before each item and leave() once when it takes no more.
 */
class SampleGate
{
  public:
    /** Time between the end of one sample and the next. */
    static constexpr std::chrono::milliseconds kPeriod{500};

    explicit SampleGate(std::size_t threads)
        : barrier_((std::ptrdiff_t)threads, Reschedule{this})
    {
    }

    /**
     * If a sample is due, wait until every other thread has finished its
     * item, time the kernel into @p speed while the others do too, and
     * wait until all are done. Returns the seconds spent here, which
     * belong to no item. The first call on each thread always samples.
     */
    double between(HostSpeed &speed)
    {
        const auto start = std::chrono::steady_clock::now();
        if (start.time_since_epoch().count() < next_.load())
            return 0.0;
        barrier_.arrive_and_wait();
        speed.sample();
        barrier_.arrive_and_wait();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    /** This thread takes no more items; the others stop waiting for it. */
    void leave() { barrier_.arrive_and_drop(); }

  private:
    /** Runs when the last thread arrives: the next sample is kPeriod away. */
    struct Reschedule
    {
        SampleGate *gate;
        void operator()() noexcept
        {
            gate->next_.store(
                (std::chrono::steady_clock::now() + kPeriod)
                    .time_since_epoch()
                    .count());
        }
    };

    std::atomic<std::chrono::steady_clock::rep> next_{0};
    std::barrier<Reschedule> barrier_;
};

} // namespace beerbench

#endif // BEERBENCH_HOST_SPEED_HH
