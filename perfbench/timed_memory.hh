/**
 * @file
 * Timing decorator over any dram::MemoryInterface.
 *
 * TimedMemory forwards every seam of the wrapped backend unchanged —
 * scalar, batched and planar reads, broadcast and scalar writes, byte
 * operations, fills and refresh pauses — and adds the wall time, call
 * words and pause durations of each operation class into DramTimes.
 * It consumes no randomness and reorders nothing, so a session run
 * through it sees exactly the operation sequence it would see without
 * it; the benchmark checks that property on every traced item.
 */

#ifndef BEERBENCH_TIMED_MEMORY_HH
#define BEERBENCH_TIMED_MEMORY_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "dram/memory_interface.hh"

namespace beerbench
{

/** Time and work the dram layer did, per operation class. */
struct DramTimes
{
    /** Broadcast, scalar and byte writes plus whole-chip fills. */
    double fillSeconds = 0.0;
    std::uint64_t fillWords = 0;
    /** Refresh pauses: host seconds, count, and simulated seconds. */
    double pauseSeconds = 0.0;
    std::uint64_t pauses = 0;
    double simulatedPauseSeconds = 0.0;
    /** Batched, planar, scalar and byte reads. */
    double readSeconds = 0.0;
    std::uint64_t readWords = 0;

    double seconds() const
    {
        return fillSeconds + pauseSeconds + readSeconds;
    }
};

/** Forwarding decorator that times every operation; see file comment. */
class TimedMemory final : public beer::dram::MemoryInterface
{
  public:
    explicit TimedMemory(beer::dram::MemoryInterface &inner) : inner_(inner)
    {
    }

    const DramTimes &times() const { return times_; }

    const beer::dram::AddressMap &addressMap() const override
    {
        return inner_.addressMap();
    }
    std::size_t datawordBits() const override
    {
        return inner_.datawordBits();
    }

    void writeDataword(std::size_t word_index,
                       const beer::gf2::BitVec &data) override
    {
        Span span(times_.fillSeconds);
        inner_.writeDataword(word_index, data);
        ++times_.fillWords;
    }

    beer::gf2::BitVec readDataword(std::size_t word_index) override
    {
        Span span(times_.readSeconds);
        ++times_.readWords;
        return inner_.readDataword(word_index);
    }

    void writeDatawordsBroadcast(const std::size_t *words,
                                 std::size_t count,
                                 const beer::gf2::BitVec &data) override
    {
        Span span(times_.fillSeconds);
        inner_.writeDatawordsBroadcast(words, count, data);
        times_.fillWords += count;
    }

    void readDatawords(const std::size_t *words, std::size_t count,
                       std::vector<beer::gf2::BitVec> &out) override
    {
        Span span(times_.readSeconds);
        inner_.readDatawords(words, count, out);
        times_.readWords += count;
    }

    bool readDatawordsPlanar(const std::size_t *words, std::size_t count,
                             beer::dram::PlanarReadBatch &out) override
    {
        Span span(times_.readSeconds);
        const bool served = inner_.readDatawordsPlanar(words, count, out);
        if (served)
            times_.readWords += count;
        return served;
    }

    void writeByte(std::size_t byte_addr, std::uint8_t value) override
    {
        Span span(times_.fillSeconds);
        inner_.writeByte(byte_addr, value);
        ++times_.fillWords;
    }

    std::uint8_t readByte(std::size_t byte_addr) override
    {
        Span span(times_.readSeconds);
        ++times_.readWords;
        return inner_.readByte(byte_addr);
    }

    void fill(std::uint8_t value) override
    {
        Span span(times_.fillSeconds);
        inner_.fill(value);
        times_.fillWords += inner_.numWords();
    }

    void pauseRefresh(double seconds, double temp_c) override
    {
        Span span(times_.pauseSeconds);
        inner_.pauseRefresh(seconds, temp_c);
        ++times_.pauses;
        times_.simulatedPauseSeconds += seconds;
    }

  private:
    /** Adds the scope's wall time into one DramTimes field. */
    class Span
    {
      public:
        explicit Span(double &into)
            : into_(into), start_(std::chrono::steady_clock::now())
        {
        }
        ~Span()
        {
            into_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
        }

      private:
        double &into_;
        std::chrono::steady_clock::time_point start_;
    };

    beer::dram::MemoryInterface &inner_;
    DramTimes times_;
};

} // namespace beerbench

#endif // BEERBENCH_TIMED_MEMORY_HH
