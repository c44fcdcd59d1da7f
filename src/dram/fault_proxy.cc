#include "dram/fault_proxy.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/logging.hh"

namespace beer::dram
{

using gf2::BitVec;

FaultInjectionProxy::FaultInjectionProxy(MemoryInterface &inner,
                                         FaultInjectionConfig config)
    : inner_(inner),
      config_(std::move(config)),
      k_(inner_.datawordBits()),
      rng_(config_.seed ^ 0xfa017)
{
    for (const StuckAtFault &fault : config_.stuckAt) {
        BEER_ASSERT(fault.wordIndex < inner_.numWords());
        BEER_ASSERT(fault.bit < inner_.datawordBits());
    }
    for (const FaultWindow &window : config_.windows)
        BEER_ASSERT(window.startReadOp <= window.endReadOp);
    for (const PatternCorruption &fault : config_.patternFaults)
        BEER_ASSERT(fault.bit < inner_.datawordBits());
    patternFaultHits_.assign(config_.patternFaults.size(), 0);
}

double
FaultInjectionProxy::effectiveFlipRate(std::uint64_t op) const
{
    double rate = config_.transientFlipRate;
    for (const FaultWindow &window : config_.windows)
        if (op >= window.startReadOp && op < window.endReadOp)
            rate = std::max(rate, window.flipRate);
    const BurstFaults &burst = config_.burst;
    if (burst.period && op % burst.period < burst.length)
        rate = std::max(rate, burst.flipRate);
    return rate;
}

/** One word's lane of a bit-plane frame: bit @c mask of each row. */
struct FaultInjectionProxy::FrameLane
{
    std::uint64_t *lane;
    std::size_t stride;
    std::uint64_t mask;

    bool get(std::size_t bit) const { return lane[bit * stride] & mask; }
    void flip(std::size_t bit) { lane[bit * stride] ^= mask; }
};

template <typename Word>
void
FaultInjectionProxy::perturbRead(std::size_t word_index, Word &&data)
{
    const std::uint64_t op = readOps_++;
    if (config_.throwEveryReads &&
        (op + 1) % config_.throwEveryReads == 0) {
        ++throwsInjected_;
        throw InjectedReadFailure();
    }
    if (config_.stallEveryReads &&
        (op + 1) % config_.stallEveryReads == 0) {
        ++stallsInjected_;
        if (config_.stallSeconds > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                config_.stallSeconds));
    }
    const util::BernoulliThreshold flip(effectiveFlipRate(op));
    for (std::size_t bit = 0; bit < k_; ++bit) {
        if (flip(rng_)) {
            data.flip(bit);
            ++injectedFlips_;
        }
    }
    for (std::size_t i = 0; i < config_.patternFaults.size(); ++i) {
        const PatternCorruption &fault = config_.patternFaults[i];
        if (lastBroadcast_ != fault.triggerData)
            continue;
        if (fault.maxHits && patternFaultHits_[i] >= fault.maxHits)
            continue;
        if (fault.flipRate < 1.0 && !rng_.bernoulli(fault.flipRate))
            continue;
        data.flip(fault.bit);
        ++patternFaultHits_[i];
        ++patternHits_;
        ++injectedFlips_;
    }
    for (const StuckAtFault &fault : config_.stuckAt) {
        if (fault.wordIndex != word_index)
            continue;
        if (data.get(fault.bit) != fault.value)
            data.flip(fault.bit);
        ++stuckAtHits_;
    }
}

BitVec
FaultInjectionProxy::readDataword(std::size_t word_index)
{
    BitVec data = inner_.readDataword(word_index);
    perturbRead(word_index, data);
    return data;
}

bool
FaultInjectionProxy::readDatawordsPlanar(const std::size_t *words,
                                         std::size_t count,
                                         PlanarReadBatch &out)
{
    PlanarReadBatch inner;
    if (!inner_.readDatawordsPlanar(words, count, inner))
        return false;
    frame_.assign(inner.rows, inner.row(k_ - 1) + inner.laneWords);
    for (std::size_t i = 0; i < count; ++i)
        perturbRead(words[i],
                    FrameLane{frame_.data() + i / 64, inner.rowStride,
                              std::uint64_t{1} << (i % 64)});
    out = {frame_.data(), inner.rowStride, inner.laneWords, count};
    return true;
}

void
FaultInjectionProxy::readDatawords(const std::size_t *words,
                                   std::size_t count,
                                   std::vector<BitVec> &out)
{
    PlanarReadBatch frame;
    if (readDatawordsPlanar(words, count, frame)) {
        frame.toDatawords(k_, out);
        return;
    }
    inner_.readDatawords(words, count, out);
    for (std::size_t i = 0; i < count; ++i)
        perturbRead(words[i], out[i]);
}

std::uint8_t
FaultInjectionProxy::readByte(std::size_t byte_addr)
{
    std::uint8_t value = inner_.readByte(byte_addr);
    if (config_.transientFlipRate > 0.0) {
        for (std::size_t bit = 0; bit < 8; ++bit) {
            if (rng_.bernoulli(config_.transientFlipRate)) {
                value ^= (std::uint8_t)(1u << bit);
                ++injectedFlips_;
            }
        }
    }
    // Stuck-at pins apply to byte reads aliasing a pinned data bit
    // too: the fault models a broken post-correction data line, which
    // the byte access path reads through just the same.
    const AddressMap::WordSlot slot =
        inner_.addressMap().slotOfByte(byte_addr);
    for (const StuckAtFault &fault : config_.stuckAt) {
        if (fault.wordIndex != slot.wordIndex)
            continue;
        const std::size_t lo = slot.byteInWord * 8;
        if (fault.bit < lo || fault.bit >= lo + 8)
            continue;
        const std::size_t in_byte = fault.bit - lo;
        if (fault.value)
            value |= (std::uint8_t)(1u << in_byte);
        else
            value &= (std::uint8_t)~(1u << in_byte);
        ++stuckAtHits_;
    }
    return value;
}

} // namespace beer::dram
