#include "dram/chip.hh"

#include <algorithm>

#include "ecc/decoder.hh"
#include "ecc/hamming.hh"
#include "sim/engine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace beer::dram
{

using gf2::BitVec;

namespace
{

/** Words per retention shard; fixed so sharding never depends on the
 * thread count (and matching the simulation engine's widest lane
 * group, 512 words, so a shard is one u64x8 batch window's worth of
 * work). Lane-word aligned, which the transposed store requires. */
constexpr std::size_t kRetentionShardWords = 512;

/** Words per wide-read shard (noise-free batched reads only; reads
 * draw no randomness, so this is purely a scheduling grain). A
 * multiple of 64, so shards own whole lane words of the read frame. */
constexpr std::size_t kReadShardWords = 8192;
static_assert(kReadShardWords % 64 == 0);

/** splitmix64-style finalizer mapping a mixed key to [0, 1). */
double
hashToUnit(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return (double)(x >> 11) * 0x1.0p-53;
}

} // anonymous namespace

SimulatedChip::SimulatedChip(ChipConfig config)
    : config_(std::move(config)), rng_(config_.seed ^ 0x5eed)
{
    config_.map.validate();
    if (config_.code.k() != config_.map.bytesPerWord * 8)
        util::fatal("SimulatedChip: code k (%zu) does not match word "
                    "size (%zu bytes)",
                    config_.code.k(), config_.map.bytesPerWord);
    // Power-on state: store the encoding of all-zero data so that every
    // word holds a consistent codeword.
    const BitVec zero_cw = config_.code.encode(BitVec(config_.code.k()));
    if (config_.storage == ChipStorage::Scalar) {
        cells_.assign(config_.map.numWords(), zero_cw);
    } else {
        store_.emplace(config_.map.numWords(), config_.code.n(),
                       [this](std::size_t w) {
                           return cellTypeOfWord(w);
                       });
        store_->broadcastWriteAll(zero_cw);
    }
}

void
SimulatedChip::writeDataword(std::size_t word_index, const BitVec &data)
{
    BEER_ASSERT(word_index < numWords());
    if (store_)
        store_->writeWord(word_index, config_.code.encode(data));
    else
        cells_[word_index] = config_.code.encode(data);
}

gf2::BitVec
SimulatedChip::readDataword(std::size_t word_index)
{
    BEER_ASSERT(word_index < numWords());
    BitVec received = store_ ? store_->storedWord(word_index)
                             : cells_[word_index];
    if (config_.transientErrorRate > 0.0) {
        // Skip-sample the flipped bits: each bit flips iid at the
        // transient rate, but bits that do not flip cost nothing.
        const util::GeometricSkip flips(config_.transientErrorRate);
        flips.forEach(rng_, received.size(), [&](std::uint64_t i) {
            received.flip((std::size_t)i);
        });
    }
    return ecc::decode(config_.code, received).dataword;
}

void
SimulatedChip::prepareWideRead()
{
    if (decoder_)
        return;
    decoder_ = std::make_unique<ecc::BitslicedDecoder>(config_.code);
    // Resolve once per chip (config backend, then BEER_SIMD, then
    // CPUID) — resolution scans the environment, and batched reads
    // sit on the measurement hot loop.
    kernel_ = &sim::engineKernel(config_.simdBackend);
}

void
SimulatedChip::writeDatawordsBroadcast(const std::size_t *words,
                                       std::size_t count,
                                       const BitVec &data)
{
    if (!store_) {
        MemoryInterface::writeDatawordsBroadcast(words, count, data);
        return;
    }
    const BitVec codeword = config_.code.encode(data);
    broadcastSel_.assign(store_->numLaneWords(), 0);
    for (std::size_t i = 0; i < count; ++i) {
        BEER_ASSERT(words[i] < numWords());
        broadcastSel_[words[i] / 64] |= (std::uint64_t)1
                                        << (words[i] & 63);
    }
    store_->broadcastWrite(codeword, broadcastSel_);
}

bool
SimulatedChip::readDatawordsPlanar(const std::size_t *words,
                                   std::size_t count,
                                   PlanarReadBatch &out)
{
    if (!store_)
        return false;
    prepareWideRead();
    const std::size_t lanes = (count + 63) / 64;
    readFrame_.resize(config_.code.k() * lanes);
    out = {readFrame_.data(), lanes, lanes, count};
    if (config_.transientErrorRate > 0.0) {
        // Noisy reads consume the chip Rng per word in order; keep
        // them on one thread so the stream matches sequential reads.
        readDatawordsWide(*store_, *decoder_, *kernel_, words, count,
                          config_.transientErrorRate, &rng_,
                          readScratch_, readFrame_.data(), lanes);
        return true;
    }
    if (config_.threads != 1 && count >= 2 * kReadShardWords) {
        // Reads draw no randomness, and a shard starts on a lane-word
        // boundary of the frame, so shards write disjoint lane words
        // and any split is deterministic.
        const std::size_t num_shards =
            (count + kReadShardWords - 1) / kReadShardWords;
        pool().parallelFor(num_shards, [&](std::size_t s) {
            const std::size_t begin = s * kReadShardWords;
            const std::size_t len =
                std::min(kReadShardWords, count - begin);
            WideReadScratch scratch;
            readDatawordsWide(*store_, *decoder_, *kernel_,
                              words + begin, len, 0.0, nullptr, scratch,
                              readFrame_.data() + begin / 64, lanes);
        });
        return true;
    }
    readDatawordsWide(*store_, *decoder_, *kernel_, words, count, 0.0,
                      nullptr, readScratch_, readFrame_.data(), lanes);
    return true;
}

void
SimulatedChip::readDatawords(const std::size_t *words,
                             std::size_t count,
                             std::vector<BitVec> &out)
{
    PlanarReadBatch frame;
    if (readDatawordsPlanar(words, count, frame))
        frame.toDatawords(config_.code.k(), out);
    else
        MemoryInterface::readDatawords(words, count, out);
}

void
SimulatedChip::writeByte(std::size_t byte_addr, std::uint8_t value)
{
    const auto slot = config_.map.slotOfByte(byte_addr);
    // On-die ECC works on whole words: read-modify-write the dataword.
    // The read bypasses decoding on purpose — a real chip's write path
    // merges raw data; going through the decoder here would scrub
    // retention errors on every byte write.
    const BitVec stored = store_ ? store_->storedWord(slot.wordIndex)
                                 : cells_[slot.wordIndex];
    BitVec data = config_.code.extractData(stored);
    for (std::size_t b = 0; b < 8; ++b)
        data.set(slot.byteInWord * 8 + b, (value >> b) & 1);
    writeDataword(slot.wordIndex, data);
}

std::uint8_t
SimulatedChip::readByte(std::size_t byte_addr)
{
    const auto slot = config_.map.slotOfByte(byte_addr);
    const BitVec data = readDataword(slot.wordIndex);
    std::uint8_t out = 0;
    for (std::size_t b = 0; b < 8; ++b)
        if (data.get(slot.byteInWord * 8 + b))
            out |= (std::uint8_t)(1u << b);
    return out;
}

void
SimulatedChip::fill(std::uint8_t value)
{
    BitVec data(config_.code.k());
    for (std::size_t i = 0; i < data.size(); ++i)
        data.set(i, (value >> (i % 8)) & 1);
    if (store_) {
        store_->broadcastWriteAll(config_.code.encode(data));
        return;
    }
    for (std::size_t w = 0; w < cells_.size(); ++w)
        writeDataword(w, data);
}

util::ThreadPool &
SimulatedChip::pool()
{
    if (!pool_)
        pool_ = std::make_unique<util::ThreadPool>(config_.threads);
    return *pool_;
}

bool
SimulatedChip::cellFailsThisPause(std::uint64_t cell_id, double seconds,
                                  double temp_c) const
{
    if (config_.vrtRate > 0.0 &&
        hashToUnit(config_.seed ^
                   (pauseEpoch_ * 0xd1342543de82ef95ULL) ^
                   cell_id) < config_.vrtRate) {
        // VRT: the cell transiently follows a different retention
        // time this pause. The affected subset is a pure function of
        // (seed, pause, cell), so the path parallelizes without
        // losing repeatability.
        return config_.retention.cellFails(
            config_.seed ^ (0x1157ULL + pauseEpoch_), cell_id, seconds,
            temp_c);
    }
    return config_.retention.cellFails(config_.seed, cell_id, seconds,
                                       temp_c);
}

std::uint64_t
SimulatedChip::decayIid(std::size_t begin, std::size_t end, double ber,
                        util::Rng &rng)
{
    // Skip-sample candidate cells over the shard's (word, bit) grid at
    // rate ber; a candidate decays iff it is CHARGED. Equivalent to a
    // Bernoulli(ber) trial per charged cell, at O(candidates) cost.
    // Same hot-loop treatment as the simulation engine: alias-table
    // geometric gaps, reciprocal division for the flat-index split
    // (shards are 512 words, so indices always fit 32 bits), and the
    // cell-type/layout lookup hoisted per word instead of per cell.
    std::uint64_t errors = 0;
    const std::size_t n = config_.code.n();
    const std::uint64_t total = (std::uint64_t)(end - begin) * n;
    const bool small = total <= UINT32_MAX;
    const util::FastDiv32 divn((std::uint32_t)(small ? n : 1));
    const util::GeometricSampler candidates(ber);
    std::size_t cached_w = SIZE_MAX;
    CellType cached_type = CellType::True;
    candidates.forEach(rng, total, [&](std::uint64_t cell) {
        std::size_t rel;
        std::size_t bit;
        if (small) {
            const std::uint32_t q = divn.div((std::uint32_t)cell);
            rel = q;
            bit = (std::size_t)((std::uint32_t)cell -
                                q * (std::uint32_t)n);
        } else {
            rel = (std::size_t)(cell / n);
            bit = (std::size_t)(cell % n);
        }
        const std::size_t w = begin + rel;
        if (w != cached_w) {
            cached_w = w;
            cached_type = cellTypeOfWord(w);
        }
        BitVec &word = cells_[w];
        if (chargeOf(word.get(bit), cached_type) ==
            ChargeState::Charged) {
            word.set(bit, decayedValue(cached_type));
            ++errors;
        }
    });
    return errors;
}

std::uint64_t
SimulatedChip::decayPerCell(std::size_t begin, std::size_t end,
                            double seconds, double temp_c)
{
    std::uint64_t errors = 0;
    const std::size_t n = config_.code.n();
    for (std::size_t w = begin; w < end; ++w) {
        const CellType type = cellTypeOfWord(w);
        BitVec &word = cells_[w];
        for (std::size_t bit = 0; bit < n; ++bit) {
            if (chargeOf(word.get(bit), type) != ChargeState::Charged)
                continue;
            const std::uint64_t cell_id = (std::uint64_t)w * n + bit;
            if (cellFailsThisPause(cell_id, seconds, temp_c)) {
                word.set(bit, decayedValue(type));
                ++errors;
            }
        }
    }
    return errors;
}

InjectionMode
SimulatedChip::injectionModeFor(double ber) const
{
    if (config_.injection != InjectionMode::Auto)
        return config_.injection;
    return ber >= kInjectionCrossoverBer ? InjectionMode::BernoulliMask
                                         : InjectionMode::SkipSample;
}

std::uint64_t
SimulatedChip::decayTransposed(std::size_t begin, std::size_t end,
                               double seconds, double temp_c,
                               double ber, util::Rng *rng)
{
    if (!config_.iidErrors) {
        // Per-cell outcomes are a pure function of (seed, pause,
        // cell), so plane-major iteration over CHARGED bits lands on
        // the exact cell set the legacy word-major loop decayed.
        return store_->decayDeterministic(
            begin, end, [&](std::uint64_t cell_id) {
                return cellFailsThisPause(cell_id, seconds, temp_c);
            });
    }
    if (injectionModeFor(ber) == InjectionMode::BernoulliMask)
        return store_->decayBernoulli(begin, end, ber, *rng);
    return store_->decaySkipSampled(begin, end, ber, *rng);
}

void
SimulatedChip::pauseRefresh(double seconds, double temp_c)
{
    const double ber =
        config_.retention.failProbability(seconds, temp_c);
    ++pauseEpoch_;
    const std::size_t num_words = numWords();
    if (num_words == 0 || (config_.iidErrors && ber <= 0.0))
        return;

    // Fixed-size word shards keep the error pattern independent of
    // the thread count: iid shards consume forked Rng streams keyed by
    // shard index, per-cell decay is deterministic in (seed, cell).
    const std::size_t num_shards =
        (num_words + kRetentionShardWords - 1) / kRetentionShardWords;

    std::vector<util::Rng> shard_rngs;
    if (config_.iidErrors) {
        shard_rngs.reserve(num_shards);
        for (std::size_t s = 0; s < num_shards; ++s)
            shard_rngs.push_back(rng_.fork());
    }

    std::vector<std::uint64_t> shard_errors(num_shards, 0);
    auto run_shard = [&](std::size_t s) {
        const std::size_t begin = s * kRetentionShardWords;
        const std::size_t end =
            std::min(begin + kRetentionShardWords, num_words);
        util::Rng *rng =
            config_.iidErrors ? &shard_rngs[s] : nullptr;
        if (store_)
            shard_errors[s] = decayTransposed(begin, end, seconds,
                                              temp_c, ber, rng);
        else
            shard_errors[s] =
                config_.iidErrors
                    ? decayIid(begin, end, ber, *rng)
                    : decayPerCell(begin, end, seconds, temp_c);
    };

    if (config_.threads == 1 || num_shards == 1) {
        for (std::size_t s = 0; s < num_shards; ++s)
            run_shard(s);
    } else {
        pool().parallelFor(num_shards, run_shard);
    }
    for (const std::uint64_t errors : shard_errors)
        rawErrors_ += errors;
}

CellType
SimulatedChip::cellTypeOfWord(std::size_t word_index) const
{
    return config_.cellLayout.typeOfRow(
        config_.map.rowOfWord(word_index));
}

gf2::BitVec
SimulatedChip::storedCodeword(std::size_t word_index) const
{
    BEER_ASSERT(word_index < numWords());
    return store_ ? store_->storedWord(word_index)
                  : cells_[word_index];
}

std::vector<std::size_t>
trueCellWords(const SimulatedChip &chip)
{
    std::vector<std::size_t> words;
    for (std::size_t w = 0; w < chip.numWords(); ++w)
        if (chip.cellTypeOfWord(w) == CellType::True)
            words.push_back(w);
    return words;
}

ChipConfig
makeVendorConfig(char vendor, std::size_t k, std::uint64_t seed)
{
    BEER_ASSERT(k % 8 == 0);
    ChipConfig config;
    config.map.bytesPerWord = k / 8;
    config.map.wordsPerRegion = 2;
    config.map.bytesPerRow = 2 * k / 8; // one region per row
    config.map.rows = 256;
    config.seed = seed;

    util::Rng rng(seed ^ (std::uint64_t)vendor * 0x9e3779b97f4a7c15ULL);
    switch (vendor) {
      case 'A':
        config.cellLayout = CellTypeLayout::allTrue();
        config.code = ecc::randomSecCode(k, rng);
        break;
      case 'B':
        config.cellLayout = CellTypeLayout::allTrue();
        config.code = ecc::canonicalSecCode(k);
        break;
      case 'C':
        config.cellLayout =
            CellTypeLayout::alternating({8, 8, 12, 12});
        config.code = ecc::randomSecCode(k, rng);
        break;
      default:
        util::fatal("unknown vendor '%c' (expected A, B, or C)", vendor);
    }
    return config;
}

} // namespace beer::dram
