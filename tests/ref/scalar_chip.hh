/**
 * @file
 * Reference model of dram::SimulatedChip: one gf2::BitVec per word,
 * every cell reached by plain loops, written from the chip's
 * specification for clarity rather than speed. Given the same
 * ChipConfig, with skip-sampled iid injection, the production chip's
 * transposed bit-plane store must be externally indistinguishable from
 * it; tests/test_transposed_chip.cc checks that cell for cell.
 *
 * The specification it implements:
 *
 *  - power-on state: every word holds the encoding of all-zero data;
 *  - the chip Rng is seeded with seed ^ 0x5eed and serves both the
 *    transient read noise and the iid retention errors;
 *  - pauseRefresh splits the words into 512-word shards; in iid mode
 *    each shard draws from its own fork of the chip Rng (forked in
 *    shard order), skip-sampling decay candidates over the shard's
 *    word-major (word, bit) grid with util::GeometricSampler; a
 *    candidate decays iff its cell is CHARGED;
 *  - in repeatable mode a CHARGED cell decays iff its retention time
 *    (a pure function of seed and cell id) has elapsed, or, for the
 *    VRT subset chosen afresh each pause, iff a re-drawn one has;
 *  - each read flips every codeword bit iid at the transient rate
 *    (util::GeometricSkip over the n bits) before the scalar decoder;
 *  - a byte write merges the raw stored data bits (no decode, so
 *    retention errors are not scrubbed) and re-encodes the word.
 *
 * The model never calls into dram::SimulatedChip.
 */

#ifndef BEER_TESTS_REF_SCALAR_CHIP_HH
#define BEER_TESTS_REF_SCALAR_CHIP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dram/chip.hh"
#include "dram/memory_interface.hh"
#include "ecc/decoder.hh"
#include "gf2/bitvec.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace beer::test::ref
{

/** One-BitVec-per-word chip; see file comment. */
class ScalarChip : public dram::MemoryInterface
{
  public:
    /** Words per retention shard (one forked Rng stream each). */
    static constexpr std::size_t kShardWords = 512;

    explicit ScalarChip(dram::ChipConfig config)
        : config_(std::move(config)), rng_(config_.seed ^ 0x5eed),
          cells_(config_.map.numWords(),
                 config_.code.encode(gf2::BitVec(config_.code.k())))
    {
    }

    const dram::AddressMap &addressMap() const override
    {
        return config_.map;
    }
    std::size_t datawordBits() const override { return config_.code.k(); }

    void writeDataword(std::size_t word, const gf2::BitVec &data) override
    {
        cells_.at(word) = config_.code.encode(data);
    }

    gf2::BitVec readDataword(std::size_t word) override
    {
        gf2::BitVec received = cells_.at(word);
        if (config_.transientErrorRate > 0.0)
            util::GeometricSkip(config_.transientErrorRate)
                .forEach(rng_, received.size(),
                         [&](std::uint64_t bit) {
                             received.flip((std::size_t)bit);
                         });
        return ecc::decode(config_.code, received).dataword;
    }

    void writeByte(std::size_t byte_addr, std::uint8_t value) override
    {
        const auto slot = config_.map.slotOfByte(byte_addr);
        gf2::BitVec data =
            config_.code.extractData(cells_.at(slot.wordIndex));
        for (std::size_t b = 0; b < 8; ++b)
            data.set(slot.byteInWord * 8 + b, (value >> b) & 1);
        writeDataword(slot.wordIndex, data);
    }

    std::uint8_t readByte(std::size_t byte_addr) override
    {
        const auto slot = config_.map.slotOfByte(byte_addr);
        const gf2::BitVec data = readDataword(slot.wordIndex);
        std::uint8_t value = 0;
        for (std::size_t b = 0; b < 8; ++b)
            if (data.get(slot.byteInWord * 8 + b))
                value |= (std::uint8_t)(1u << b);
        return value;
    }

    void fill(std::uint8_t value) override
    {
        gf2::BitVec data(config_.code.k());
        for (std::size_t i = 0; i < data.size(); ++i)
            data.set(i, (value >> (i % 8)) & 1);
        for (std::size_t w = 0; w < cells_.size(); ++w)
            writeDataword(w, data);
    }

    void pauseRefresh(double seconds, double temp_c) override
    {
        const double ber =
            config_.retention.failProbability(seconds, temp_c);
        ++pauseEpoch_;
        if (!config_.iidErrors) {
            for (std::size_t w = 0; w < cells_.size(); ++w)
                for (std::size_t bit = 0; bit < config_.code.n(); ++bit)
                    if (cellFailsThisPause(w * config_.code.n() + bit,
                                           seconds, temp_c))
                        decay(w, bit);
            return;
        }
        if (ber <= 0.0)
            return;
        if (config_.injection == dram::InjectionMode::BernoulliMask ||
            (config_.injection == dram::InjectionMode::Auto &&
             ber >= dram::kInjectionCrossoverBer))
            util::fatal("ScalarChip models skip-sampled injection only");
        const std::size_t n = config_.code.n();
        const util::GeometricSampler candidates(ber);
        for (std::size_t begin = 0; begin < cells_.size();
             begin += kShardWords) {
            const std::size_t end =
                std::min(begin + kShardWords, cells_.size());
            util::Rng shard_rng = rng_.fork();
            candidates.forEach(shard_rng, (std::uint64_t)(end - begin) * n,
                               [&](std::uint64_t cell) {
                                   decay(begin + (std::size_t)(cell / n),
                                         (std::size_t)(cell % n));
                               });
        }
    }

    // ---- ground truth ------------------------------------------------
    const ecc::LinearCode &groundTruthCode() const { return config_.code; }
    const dram::RetentionModel &retentionModel() const
    {
        return config_.retention;
    }
    gf2::BitVec storedCodeword(std::size_t word) const
    {
        return cells_.at(word);
    }
    std::uint64_t rawErrorCount() const { return rawErrors_; }

  private:
    dram::CellType cellTypeOfWord(std::size_t word) const
    {
        return config_.cellLayout.typeOfRow(config_.map.rowOfWord(word));
    }

    /** Discharge cell (word, bit) if it is CHARGED. */
    void decay(std::size_t word, std::size_t bit)
    {
        const dram::CellType type = cellTypeOfWord(word);
        if (dram::chargeOf(cells_[word].get(bit), type) !=
            dram::ChargeState::Charged)
            return;
        cells_[word].set(bit, dram::decayedValue(type));
        ++rawErrors_;
    }

    /** splitmix64 finalizer of @p x, mapped to [0, 1). */
    static double hashToUnit(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return (double)(x >> 11) * 0x1.0p-53;
    }

    /** Whether @p cell_id's retention time (or VRT re-draw) elapsed. */
    bool cellFailsThisPause(std::uint64_t cell_id, double seconds,
                            double temp_c) const
    {
        const bool vrt =
            config_.vrtRate > 0.0 &&
            hashToUnit(config_.seed ^
                       (pauseEpoch_ * 0xd1342543de82ef95ULL) ^ cell_id) <
                config_.vrtRate;
        const std::uint64_t seed =
            vrt ? config_.seed ^ (0x1157ULL + pauseEpoch_) : config_.seed;
        return config_.retention.cellFails(seed, cell_id, seconds, temp_c);
    }

    dram::ChipConfig config_;
    util::Rng rng_;
    std::vector<gf2::BitVec> cells_;
    std::uint64_t pauseEpoch_ = 0;
    std::uint64_t rawErrors_ = 0;
};

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_SCALAR_CHIP_HH
