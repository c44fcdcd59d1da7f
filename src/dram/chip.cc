#include "dram/chip.hh"

#include <algorithm>

#include "ecc/decoder.hh"
#include "ecc/hamming.hh"
#include "sim/engine.hh"
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

/** @p config after the checks the chip geometry relies on. */
ChipConfig
validated(ChipConfig config)
{
    config.map.validate();
    if (config.code.k() != config.map.bytesPerWord * 8)
        util::fatal("SimulatedChip: code k (%zu) does not match word "
                    "size (%zu bytes)",
                    config.code.k(), config.map.bytesPerWord);
    return config;
}

} // anonymous namespace

SimulatedChip::SimulatedChip(ChipConfig config)
    : config_(validated(std::move(config))),
      store_(config_.map.numWords(), config_.code.n(),
             [this](std::size_t w) { return cellTypeOfWord(w); }),
      rng_(config_.seed ^ 0x5eed)
{
    // Power-on state: store the encoding of all-zero data so that every
    // word holds a consistent codeword.
    store_.broadcastWriteAll(
        config_.code.encode(BitVec(config_.code.k())));
}

void
SimulatedChip::writeDataword(std::size_t word_index, const BitVec &data)
{
    BEER_ASSERT(word_index < numWords());
    store_.writeWord(word_index, config_.code.encode(data));
}

gf2::BitVec
SimulatedChip::readDataword(std::size_t word_index)
{
    BEER_ASSERT(word_index < numWords());
    BitVec received = store_.storedWord(word_index);
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
    if (count == 0)
        return;
    // Consecutive fills of one experiment plan repeat the dataword.
    if (!(data == broadcastData_)) {
        broadcastData_ = data;
        broadcastCodeword_ = config_.code.encode(data);
    }
    broadcastSel_.assign(store_.numLaneWords(), 0);
    std::uint64_t *sel = broadcastSel_.data();
    const std::size_t first = words[0];
    std::size_t jb = first / 64;
    std::size_t je = jb + 1;
    std::size_t gaps = 0; // zero iff words is one ascending run
    for (std::size_t i = 0; i < count; ++i)
        gaps |= words[i] ^ (first + i);
    if (gaps == 0) {
        // The whole-chip case: whole lane words between partial ends.
        const std::size_t last = first + count - 1;
        BEER_ASSERT(last < numWords());
        je = last / 64 + 1;
        std::fill(sel + jb, sel + je, ~std::uint64_t{0});
        sel[jb] &= ~std::uint64_t{0} << (first & 63);
        sel[je - 1] &= ~std::uint64_t{0} >> (63 - (last & 63));
    } else {
        // One pass: each lane word's bits gather in a register and are
        // stored when the lane word changes.
        std::size_t lane = jb;
        std::uint64_t bits = 0;
        for (std::size_t i = 0; i < count; ++i) {
            BEER_ASSERT(words[i] < numWords());
            if (words[i] / 64 != lane) {
                sel[lane] |= bits;
                lane = words[i] / 64;
                bits = 0;
                jb = std::min(jb, lane);
                je = std::max(je, lane + 1);
            }
            bits |= (std::uint64_t)1 << (words[i] & 63);
        }
        sel[lane] |= bits;
    }
    store_.broadcastWrite(broadcastCodeword_, sel, jb, je);
}

bool
SimulatedChip::readDatawordsPlanar(const std::size_t *words,
                                   std::size_t count,
                                   PlanarReadBatch &out)
{
    prepareWideRead();
    const std::size_t lanes = (count + 63) / 64;
    readFrame_.resize(config_.code.k() * lanes);
    out = {readFrame_.data(), lanes, lanes, count};
    if (config_.transientErrorRate > 0.0) {
        // Noisy reads consume the chip Rng per word in order; keep
        // them on one thread so the stream matches sequential reads.
        readDatawordsWide(store_, *decoder_, *kernel_, words, count,
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
            readDatawordsWide(store_, *decoder_, *kernel_,
                              words + begin, len, 0.0, nullptr, scratch,
                              readFrame_.data() + begin / 64, lanes);
        });
        return true;
    }
    readDatawordsWide(store_, *decoder_, *kernel_, words, count, 0.0,
                      nullptr, readScratch_, readFrame_.data(), lanes);
    return true;
}

void
SimulatedChip::readDatawords(const std::size_t *words,
                             std::size_t count,
                             std::vector<BitVec> &out)
{
    PlanarReadBatch frame;
    readDatawordsPlanar(words, count, frame);
    frame.toDatawords(config_.code.k(), out);
}

void
SimulatedChip::writeByte(std::size_t byte_addr, std::uint8_t value)
{
    const auto slot = config_.map.slotOfByte(byte_addr);
    // On-die ECC works on whole words: read-modify-write the dataword.
    // The read bypasses decoding on purpose — a real chip's write path
    // merges raw data; going through the decoder here would scrub
    // retention errors on every byte write.
    BitVec data =
        config_.code.extractData(store_.storedWord(slot.wordIndex));
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
    store_.broadcastWriteAll(config_.code.encode(data));
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

InjectionMode
SimulatedChip::injectionModeFor(double ber) const
{
    if (config_.injection != InjectionMode::Auto)
        return config_.injection;
    return ber >= kInjectionCrossoverBer ? InjectionMode::BernoulliMask
                                         : InjectionMode::SkipSample;
}

std::uint64_t
SimulatedChip::decayShard(std::size_t begin, std::size_t end,
                          double seconds, double temp_c, double ber,
                          util::Rng *rng)
{
    if (!config_.iidErrors) {
        // Per-cell outcomes are a pure function of (seed, pause,
        // cell), so plane-major iteration over CHARGED bits lands on
        // the exact cell set a word-major loop decays.
        return store_.decayDeterministic(
            begin, end, [&](std::uint64_t cell_id) {
                return cellFailsThisPause(cell_id, seconds, temp_c);
            });
    }
    if (injectionModeFor(ber) == InjectionMode::BernoulliMask)
        return store_.decayBernoulli(begin, end, ber, *rng);
    return store_.decaySkipSampled(begin, end, ber, *rng);
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
        shard_errors[s] =
            decayShard(begin, end, seconds, temp_c, ber, rng);
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
    return store_.storedWord(word_index);
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
