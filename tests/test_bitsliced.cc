/**
 * @file
 * Property tests for the bitsliced simulation engine: the 64-lane
 * decode kernel must match the scalar decoder lane-for-lane on
 * randomized codes and error words, the sharded Monte-Carlo driver
 * must produce bit-identical statistics for every thread count, and
 * its statistics must match the per-word reference model
 * (tests/ref/word_sim.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ecc/bitsliced.hh"
#include "ecc/decoder.hh"
#include "ecc/hamming.hh"
#include "sim/word_sim.hh"
#include "util/rng.hh"

#include "ref/word_sim.hh"

using namespace beer;
using ecc::BitslicedDecodeLanes;
using ecc::BitslicedDecoder;
using ecc::DecodeOutcome;
using ecc::LinearCode;
using ecc::randomSecCode;
using gf2::BitVec;
using sim::SimConfig;
using sim::simulateRetentionErrors;
using sim::simulateUniformErrors;
using sim::WordSimStats;
using util::Rng;

namespace
{

constexpr unsigned kLanes = 64;

/** Transpose @p word into lane @p lane of the raw lane buffer (the
 * position-major uint64 layout the engine feeds the kernel). */
void
setWord(std::vector<std::uint64_t> &lanes, unsigned lane,
        const BitVec &word)
{
    for (std::size_t pos = 0; pos < word.size(); ++pos)
        if (word.get(pos))
            lanes[pos] |= (std::uint64_t)1 << lane;
}

BitVec
randomErrorWord(std::size_t n, double density, Rng &rng)
{
    BitVec e(n);
    for (std::size_t i = 0; i < n; ++i)
        if (rng.bernoulli(density))
            e.set(i, true);
    return e;
}

/** Codeword position the kernel flipped in @p lane, or n if none. */
std::size_t
flippedPosition(const BitslicedDecodeLanes &lanes, unsigned lane,
                std::size_t n)
{
    std::size_t flipped = n;
    std::size_t count = 0;
    for (std::size_t pos = 0; pos < n; ++pos) {
        if ((lanes.correction[pos] >> lane) & 1) {
            flipped = pos;
            ++count;
        }
    }
    EXPECT_LE(count, 1u);
    return flipped;
}

DecodeOutcome
laneOutcome(const BitslicedDecodeLanes &lanes, unsigned lane)
{
    std::size_t matches = 0;
    DecodeOutcome outcome = DecodeOutcome::NoError;
    for (std::size_t o = 0; o < 6; ++o) {
        if ((lanes.outcome[o] >> lane) & 1) {
            outcome = (DecodeOutcome)o;
            ++matches;
        }
    }
    // The six outcome masks partition the lanes.
    EXPECT_EQ(matches, 1u);
    return outcome;
}

void
expectKernelMatchesScalar(const LinearCode &code, Rng &rng,
                          double density)
{
    const std::size_t n = code.n();

    // A random (valid) stored codeword; the kernel itself only sees
    // the error lanes, the scalar reference decodes codeword ^ error.
    BitVec data(code.k());
    for (std::size_t i = 0; i < code.k(); ++i)
        data.set(i, rng.bernoulli(0.5));
    const BitVec codeword = code.encode(data);

    std::vector<std::uint64_t> batch(n, 0);
    std::vector<BitVec> errors;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        // Lane 0 stays error-free to cover the NoError path.
        const BitVec e = lane == 0 ? BitVec(n)
                                   : randomErrorWord(n, density, rng);
        setWord(batch, lane, e);
        errors.push_back(e);
    }

    const BitslicedDecoder decoder(code);
    BitslicedDecodeLanes lanes;
    decoder.decode(batch.data(), lanes);

    for (unsigned lane = 0; lane < kLanes; ++lane) {
        const BitVec received = codeword ^ errors[lane];
        const ecc::DecodeResult result = ecc::decode(code, received);
        const DecodeOutcome outcome =
            ecc::classify(code, codeword, received, result);

        EXPECT_EQ(((lanes.anyRaw >> lane) & 1) != 0,
                  !errors[lane].isZero());
        EXPECT_EQ(flippedPosition(lanes, lane, n),
                  result.flippedBit == SIZE_MAX ? n : result.flippedBit)
            << "lane " << lane;
        EXPECT_EQ(laneOutcome(lanes, lane), outcome) << "lane " << lane;

        // Post-correction data errors: error lanes XOR correction
        // lanes must equal the scalar dataword difference.
        for (std::size_t bit = 0; bit < code.k(); ++bit) {
            const bool kernel_err =
                ((batch[bit] ^ lanes.correction[bit]) >> lane) & 1;
            const bool scalar_err =
                result.dataword.get(bit) != data.get(bit);
            EXPECT_EQ(kernel_err, scalar_err)
                << "lane " << lane << " bit " << bit;
        }
    }
}

} // anonymous namespace

TEST(Bitsliced, LaneBufferTransposeRoundTrip)
{
    Rng rng(17);
    std::vector<std::uint64_t> batch(23, 0);
    std::vector<BitVec> words;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        words.push_back(randomErrorWord(23, 0.4, rng));
        setWord(batch, lane, words.back());
    }
    for (unsigned lane = 0; lane < kLanes; ++lane)
        for (std::size_t pos = 0; pos < 23; ++pos)
            EXPECT_EQ((bool)((batch[pos] >> lane) & 1),
                      words[lane].get(pos))
                << "lane " << lane << " pos " << pos;
}

TEST(Bitsliced, KernelMatchesScalarDecodeLaneForLane)
{
    Rng rng(19);
    // k = 4 and 57 are full-length Hamming codes; 8, 16, 32 are
    // shortened (some syndromes match no column, exercising the
    // DetectedUncorrectable path).
    for (std::size_t k : {4u, 8u, 16u, 32u, 57u}) {
        const LinearCode code = randomSecCode(k, rng);
        for (double density : {0.02, 0.1, 0.5})
            expectKernelMatchesScalar(code, rng, density);
    }
}

TEST(Bitsliced, KernelMatchesScalarOnCanonicalCode)
{
    // Manufacturer B's structured code (repeating parity patterns).
    Rng rng(23);
    expectKernelMatchesScalar(ecc::canonicalSecCode(16), rng, 0.15);
}

TEST(Bitsliced, ShardedStatsIdenticalAcrossThreadCounts)
{
    Rng code_rng(29);
    const LinearCode code = randomSecCode(16, code_rng);
    const BitVec data = BitVec::fromString("1011001110001101");
    const BitVec codeword = code.encode(data);
    const BitVec mask =
        sim::chargedMask(codeword, dram::CellType::True);

    auto run = [&](std::size_t threads) {
        SimConfig config;
        config.threads = threads;
        config.wordsPerShard = 1 << 12; // many shards per run
        Rng rng(31);
        return simulateRetentionErrors(code, codeword, mask, 0.1,
                                       200000, rng, config);
    };

    const WordSimStats one = run(1);
    EXPECT_EQ(one, run(2));
    EXPECT_EQ(one, run(8));
    EXPECT_EQ(one.wordsSimulated, 200000u);
}

TEST(Bitsliced, EngineChoiceIsStatisticallyEquivalent)
{
    // The per-word, per-bit reference and the bitsliced engine
    // consume different Rng streams but must agree on every
    // expectation; compare the raw-error word fraction and the
    // outcome distribution at loose tolerances.
    Rng code_rng(43);
    const LinearCode code = randomSecCode(16, code_rng);
    const std::uint64_t words = 400000;

    Rng scalar_rng(47);
    const WordSimStats scalar = test::ref::simulateUniformErrors(
        code, BitVec(16), 0.005, words, scalar_rng);

    Rng bitsliced_rng(53);
    const WordSimStats bitsliced = simulateUniformErrors(
        code, BitVec(16), 0.005, words, bitsliced_rng, SimConfig{});

    ASSERT_EQ(scalar.wordsSimulated, bitsliced.wordsSimulated);
    EXPECT_NEAR((double)scalar.wordsWithRawErrors,
                (double)bitsliced.wordsWithRawErrors,
                0.05 * (double)scalar.wordsWithRawErrors);
    for (std::size_t o = 0; o < scalar.outcomes.size(); ++o) {
        const double a = (double)scalar.outcomes[o];
        const double b = (double)bitsliced.outcomes[o];
        EXPECT_NEAR(a, b, 0.1 * (a + b) + 50.0) << "outcome " << o;
    }

    std::uint64_t scalar_raw = 0;
    std::uint64_t bitsliced_raw = 0;
    for (std::size_t pos = 0; pos < code.n(); ++pos) {
        scalar_raw += scalar.preCorrectionErrors[pos];
        bitsliced_raw += bitsliced.preCorrectionErrors[pos];
    }
    EXPECT_NEAR((double)scalar_raw, (double)bitsliced_raw,
                0.05 * (double)scalar_raw);
}
