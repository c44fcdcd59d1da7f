/**
 * @file
 * Tests for experimental miscorrection-profile measurement: the
 * sampled profile must converge to the exhaustive ground truth, the
 * threshold filter must reject transient noise (Figure 4's claim),
 * and the chip-based path must agree with the fast simulator path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "dram/chip.hh"
#include "dram/fault_proxy.hh"
#include "dram/trace.hh"
#include "ecc/hamming.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

#include "ref/quorum_majority.hh"
#include "scalar_only.hh"

using namespace beer;
using beer::dram::Chip;
using beer::dram::ChipConfig;
using beer::dram::makeVendorConfig;
using beer::ecc::LinearCode;
using beer::ecc::randomSecCode;
using beer::gf2::BitVec;
using beer::util::Rng;

TEST(Measure, SimProfileConvergesToExhaustive)
{
    Rng rng(3);
    for (std::size_t k : {8u, 11u, 16u}) {
        const LinearCode code = randomSecCode(k, rng);
        const auto patterns = chargedPatterns(k, 1);
        const auto counts =
            measureProfileSim(code, patterns, 0.3, 40000, rng);
        const auto measured = counts.threshold(1e-4);
        const auto expected = exhaustiveProfile(code, patterns);
        EXPECT_EQ(measured, expected) << "k=" << k;
    }
}

TEST(Measure, TwoChargedSimProfileConvergesToExhaustive)
{
    Rng rng(5);
    const LinearCode code = randomSecCode(8, rng);
    const auto patterns = chargedPatterns(8, 2);
    const auto counts =
        measureProfileSim(code, patterns, 0.3, 40000, rng);
    EXPECT_EQ(counts.threshold(1e-4),
              exhaustiveProfile(code, patterns));
}

TEST(Measure, ProbabilityAndMerge)
{
    Rng rng(7);
    const LinearCode code = randomSecCode(8, rng);
    const auto patterns = chargedPatterns(8, 1);
    auto a = measureProfileSim(code, patterns, 0.3, 5000, rng);
    const auto b = measureProfileSim(code, patterns, 0.3, 5000, rng);
    const auto words_before = a.wordsTested[0];
    a.merge(b);
    EXPECT_EQ(a.wordsTested[0], words_before + b.wordsTested[0]);
    EXPECT_LE(a.probability(0, 1), 1.0);
}

TEST(Measure, MergeAccumulateAddsOverlappingObservations)
{
    // Accumulate is one experiment grown by another: overlapping
    // patterns add both error counts and denominators, new patterns
    // append.
    Rng rng(19);
    const LinearCode code = randomSecCode(8, rng);
    const auto one = chargedPatterns(8, 1);
    const auto two = chargedPatterns(8, 2);

    auto a = measureProfileSim(code, one, 0.3, 4000, rng);
    auto b = measureProfileSim(code, one, 0.3, 4000, rng);
    auto extra = measureProfileSim(code, two, 0.3, 2000, rng);
    b.merge(extra, ProfileCounts::MergeMode::Accumulate);

    const auto total_before =
        a.totalObservations() + b.totalObservations();
    a.merge(b, ProfileCounts::MergeMode::Accumulate);
    EXPECT_EQ(a.totalObservations(), total_before);
    EXPECT_EQ(a.patterns.size(), one.size() + two.size());
    for (std::size_t p = 0; p < one.size(); ++p)
        EXPECT_EQ(a.wordsTested[p], 8000u) << "pattern " << p;
}

TEST(Measure, MergeAppendDisjointAppendsFreshPatterns)
{
    Rng rng(23);
    const LinearCode code = randomSecCode(8, rng);
    auto a = measureProfileSim(code, chargedPatterns(8, 1), 0.3, 4000,
                               rng);
    const auto b = measureProfileSim(code, chargedPatterns(8, 2), 0.3,
                                     2000, rng);
    const auto count_before = a.patterns.size();
    a.merge(b, ProfileCounts::MergeMode::AppendDisjoint);
    EXPECT_EQ(a.patterns.size(), count_before + b.patterns.size());
    // Appended patterns keep their own denominators untouched.
    EXPECT_EQ(a.wordsTested.back(), b.wordsTested.back());
}

TEST(Measure, MergeAppendDisjointRejectsOverlap)
{
    // Overlap under AppendDisjoint is a caller bug: the caller
    // promised fresh patterns. Debug builds abort on it; release
    // builds fall back to accumulating (documented contract).
    Rng rng(29);
    const LinearCode code = randomSecCode(8, rng);
    const auto patterns = chargedPatterns(8, 1);
    auto a = measureProfileSim(code, patterns, 0.3, 2000, rng);
    const auto b = measureProfileSim(code, patterns, 0.3, 2000, rng);
#ifndef NDEBUG
    EXPECT_DEATH(
        a.merge(b, ProfileCounts::MergeMode::AppendDisjoint),
        "AppendDisjoint");
#else
    const auto words_before = a.wordsTested[0];
    a.merge(b, ProfileCounts::MergeMode::AppendDisjoint);
    EXPECT_EQ(a.wordsTested[0], words_before + b.wordsTested[0]);
#endif
}

TEST(Measure, ChipProfileMatchesGroundTruth)
{
    // End-to-end: measure on a simulated chip (iid mode so that each
    // pause samples fresh error patterns) and compare to the secret
    // code's exhaustive profile.
    ChipConfig config = makeVendorConfig('A', 8, 11);
    config.map.rows = 64;
    config.iidErrors = true;
    Chip chip(config);

    MeasureConfig mc;
    // High BER region so the few hundred words see many error
    // patterns per pause.
    for (double ber : {0.05, 0.1, 0.2, 0.3})
        mc.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    mc.repeatsPerPause = 30;

    const auto patterns = chargedPatterns(8, 1);
    const auto counts = measureProfileOnChip(chip, patterns, mc);
    const auto measured = counts.threshold(1e-4);
    EXPECT_EQ(measured,
              exhaustiveProfile(chip.groundTruthCode(), patterns));
}

TEST(Measure, ThresholdFiltersTransientNoise)
{
    // With transient read noise, raw counts show spurious errors in
    // bits that can never miscorrect; the threshold filter must still
    // recover the exact profile (paper Section 5.2 / Figure 4).
    ChipConfig config = makeVendorConfig('A', 8, 13);
    config.map.rows = 64;
    config.iidErrors = true;
    config.transientErrorRate = 1e-4;
    Chip chip(config);

    MeasureConfig mc;
    for (double ber : {0.1, 0.2, 0.3})
        mc.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    mc.repeatsPerPause = 30;

    const auto patterns = chargedPatterns(8, 1);
    const auto counts = measureProfileOnChip(chip, patterns, mc);

    // An aggressive threshold of 0 (any observation counts) would
    // pollute the profile; the paper's filter removes the noise.
    const auto unfiltered = counts.threshold(0.0);
    const auto filtered = counts.threshold(5e-3);
    const auto expected =
        exhaustiveProfile(chip.groundTruthCode(), patterns);
    EXPECT_EQ(filtered, expected);
    EXPECT_NE(unfiltered, expected);
}

TEST(Measure, AdaptiveQuorumBitIdenticalToSingleVoteUnderZeroNoise)
{
    // The adaptive policy's backward-compatibility contract: on a
    // noise-free chip its votes always agree, the first vote's data is
    // used unchanged, and every observable measurement output matches
    // the historical single-read path bit for bit.
    ChipConfig config = makeVendorConfig('A', 8, 31);
    config.map.rows = 64;
    config.iidErrors = true;

    const auto measure_for = [](const Chip &chip) {
        MeasureConfig mc;
        for (double ber : {0.1, 0.2, 0.3})
            mc.pausesSeconds.push_back(
                chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
        mc.repeatsPerPause = 20;
        return mc;
    };
    const auto patterns = chargedPatterns(8, 1);

    Chip single_chip(config);
    MeasureConfig single = measure_for(single_chip);
    const auto legacy =
        measureProfileOnChip(single_chip, patterns, single);

    Chip adaptive_chip(config);
    MeasureConfig adaptive = measure_for(adaptive_chip);
    adaptive.quorum.votes = 1;
    adaptive.quorum.adaptive = true;
    QuorumEstimator estimator;
    adaptive.estimator = &estimator;
    const auto quorum =
        measureProfileOnChip(adaptive_chip, patterns, adaptive);

    EXPECT_EQ(legacy.errorCounts, quorum.errorCounts);
    EXPECT_EQ(legacy.wordsTested, quorum.wordsTested);
    EXPECT_EQ(legacy.threshold(1e-4), quorum.threshold(1e-4));
    EXPECT_EQ(quorum.totalDisagreements(), 0u);
    // The estimator really ran (base cost is 2 reads per experiment)
    // and never saw a disagreement.
    EXPECT_GT(estimator.samples, 0u);
    EXPECT_DOUBLE_EQ(estimator.rate, 0.0);
    EXPECT_EQ(estimator.escalations, 0u);
    EXPECT_EQ(quorum.totalVotesSpent(), 2 * estimator.samples);
}

TEST(Measure, AdaptiveQuorumTraceReplayRoundTrips)
{
    // An adaptive-quorum measurement under real read noise must replay
    // bit-identically from its own trace: the escalation schedule is a
    // pure function of the trace meta (which seeds the estimator) and
    // the recorded reads.
    ChipConfig config = makeVendorConfig('B', 8, 37);
    config.map.rows = 64;
    config.iidErrors = true;
    Chip chip(config);
    dram::FaultInjectionConfig chaos;
    chaos.transientFlipRate = 2e-3;
    chaos.seed = 71;
    dram::FaultInjectionProxy proxy(chip, chaos);

    MeasureConfig mc;
    for (double ber : {0.1, 0.3})
        mc.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    mc.repeatsPerPause = 15;
    mc.quorum.votes = 3;
    mc.quorum.escalatedVotes = 7;
    mc.quorum.adaptive = true;
    mc.quorum.initialEstimate = 0.01;

    const auto patterns = chargedPatterns(8, 1);
    const auto words = dram::trueCellWords(chip);
    std::ostringstream recorded;
    const ProfileCounts live =
        recordProfileTrace(proxy, patterns, mc, words, recorded);
    ASSERT_GT(live.totalDisagreements(), 0u)
        << "noise too weak to exercise the adaptive path";

    std::istringstream stored(recorded.str());
    dram::TraceReplayBackend trace(stored);
    const ProfileCounts replayed = replayProfileTrace(trace);
    EXPECT_TRUE(trace.atEnd());
    EXPECT_EQ(live.errorCounts, replayed.errorCounts);
    EXPECT_EQ(live.wordsTested, replayed.wordsTested);
    EXPECT_EQ(live.disagreements, replayed.disagreements);
    EXPECT_EQ(live.votesSpent, replayed.votesSpent);
}

namespace
{

/** @p reads as a contiguous k-row bit-plane frame. */
std::vector<std::uint64_t>
toFrame(const std::vector<gf2::BitVec> &reads, std::size_t k)
{
    const std::size_t lanes = (reads.size() + 63) / 64;
    std::vector<std::uint64_t> frame(k * lanes, 0);
    for (std::size_t t = 0; t < reads.size(); ++t)
        for (std::size_t pos = 0; pos < k; ++pos)
            if (reads[t].get(pos))
                frame[pos * lanes + t / 64] |= std::uint64_t{1}
                                               << (t % 64);
    return frame;
}

/** Planar majority of @p votes, transposed back to datawords. */
std::vector<gf2::BitVec>
planarMajority(const std::vector<std::vector<gf2::BitVec>> &votes,
               std::size_t k)
{
    const std::size_t count = votes.front().size();
    const std::size_t lanes = (count + 63) / 64;
    std::vector<std::uint64_t> frames;
    for (const auto &vote : votes) {
        const std::vector<std::uint64_t> frame = toFrame(vote, k);
        frames.insert(frames.end(), frame.begin(), frame.end());
    }
    majorityVotePlanar(frames.data(), votes.size(), k * lanes);
    std::vector<gf2::BitVec> out;
    dram::PlanarReadBatch{frames.data(), lanes, lanes, count}
        .toDatawords(k, out);
    // The majority keeps the frame's zero tail.
    const std::vector<std::uint64_t> first(frames.begin(),
                                           frames.begin() + k * lanes);
    EXPECT_EQ(toFrame(out, k), first);
    return out;
}

} // anonymous namespace

TEST(Measure, PlanarMajorityMatchesReferenceModel)
{
    Rng rng(2024);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t n = 2 + rng.below(6); // 2..7 votes
        const std::size_t k = std::vector<std::size_t>{8, 16, 32, 57,
                                                       64, 71}[rng.below(6)];
        std::size_t count = 1 + rng.below(300);
        if (count % 64 == 0)
            ++count;
        // Votes scatter around one shared read; a high flip rate makes
        // split votes (and ties, at even n) common.
        const double flip = trial % 4 == 0 ? 0.0 : 0.15;
        std::vector<gf2::BitVec> shared(count, gf2::BitVec(k));
        for (gf2::BitVec &word : shared)
            for (std::size_t bit = 0; bit < k; ++bit)
                word.set(bit, rng.bernoulli(0.5));
        std::vector<std::vector<gf2::BitVec>> votes(n, shared);
        for (auto &vote : votes)
            for (gf2::BitVec &word : vote)
                for (std::size_t bit = 0; bit < k; ++bit)
                    if (rng.bernoulli(flip))
                        word.flip(bit);
        ASSERT_EQ(planarMajority(votes, k), test::ref::quorumMajority(votes))
            << "trial " << trial << " n " << n << " k " << k << " count "
            << count;
    }
}

TEST(Measure, PlanarMajorityTiesResolveToFirstVote)
{
    gf2::BitVec zero(8);
    gf2::BitVec one(8);
    one.set(3, true);
    // 1-1 and 2-2 splits keep the first vote's bit, either way round.
    for (const auto &votes :
         std::vector<std::vector<std::vector<gf2::BitVec>>>{
             {{zero}, {one}},
             {{one}, {zero}},
             {{zero}, {one}, {one}, {zero}},
             {{one}, {zero}, {zero}, {one}},
         }) {
        EXPECT_EQ(planarMajority(votes, 8), votes.front());
        EXPECT_EQ(test::ref::quorumMajority(votes), votes.front());
    }
    // A 3-1 split outvotes the first vote.
    const std::vector<std::vector<gf2::BitVec>> outvoted = {
        {zero}, {one}, {one}, {one}};
    EXPECT_EQ(planarMajority(outvoted, 8), outvoted[1]);
}

TEST(Measure, QuorumCountsMatchWhenTheBackendDeclinesPlanarReads)
{
    // Quorum votes from a planar backend and from one that declines
    // the seam (its datawords transposed into the same frames) must
    // count identically, with the same proxy stream; so must a run
    // whose chip reads and mismatch counting shard over threads.
    for (const bool adaptive : {false, true}) {
        ChipConfig config = makeVendorConfig('C', 16, 43);
        config.map.rows = 64;
        config.iidErrors = true;
        dram::FaultInjectionConfig chaos;
        chaos.transientFlipRate = 1e-3;
        chaos.burst = {512, 32, 1e-2};
        chaos.seed = 5;

        MeasureConfig mc;
        mc.repeatsPerPause = 6;
        mc.quorum.votes = 3;
        mc.quorum.escalatedVotes = 6;
        mc.quorum.adaptive = adaptive;
        const auto patterns = chargedPatterns(16, 1);

        Chip planar_chip(config);
        mc.pausesSeconds.assign(
            1, planar_chip.retentionModel().pauseForBitErrorRate(0.2,
                                                                 80.0));
        dram::FaultInjectionProxy planar(planar_chip, chaos);
        const ProfileCounts served = measureProfile(
            planar, patterns, mc, dram::trueCellWords(planar_chip));

        Chip scalar_chip(config);
        test::ScalarOnly declining(scalar_chip);
        dram::FaultInjectionProxy scalar(declining, chaos);
        const ProfileCounts declined = measureProfile(
            scalar, patterns, mc, dram::trueCellWords(scalar_chip));

        ChipConfig threaded_config = config;
        threaded_config.threads = 4;
        Chip threaded_chip(threaded_config);
        dram::FaultInjectionProxy threaded(threaded_chip, chaos);
        util::ThreadPool pool(3);
        mc.pool = &pool;
        const ProfileCounts sharded = measureProfile(
            threaded, patterns, mc, dram::trueCellWords(threaded_chip));

        ASSERT_GT(served.totalDisagreements(), 0u);
        for (const ProfileCounts *other : {&declined, &sharded}) {
            EXPECT_EQ(served.errorCounts, other->errorCounts);
            EXPECT_EQ(served.wordsTested, other->wordsTested);
            EXPECT_EQ(served.disagreements, other->disagreements);
            EXPECT_EQ(served.votesSpent, other->votesSpent);
        }
        EXPECT_EQ(planar.injectedFlips(), scalar.injectedFlips());
        EXPECT_EQ(planar.readOps(), scalar.readOps());
        EXPECT_EQ(planar.injectedFlips(), threaded.injectedFlips());
    }
}

TEST(Measure, CountsMatchUnderEveryPopcountKernel)
{
    // 1317 words (not a multiple of 64) starting mid-lane: the planar
    // count reduces 20 full lane words per row through the dispatched
    // kernel and tail-masks the last. Both forced kernels must match
    // a per-word BitVec count of the same experiments.
    ChipConfig config = makeVendorConfig('A', 32, 17);
    config.map.rows = 700;
    config.iidErrors = true;
    std::vector<std::size_t> words(1317);
    std::iota(words.begin(), words.end(), (std::size_t)5);
    auto patterns = chargedPatterns(32, 1);
    patterns.resize(6);
    MeasureConfig mc;
    mc.repeatsPerPause = 2;
    Chip counted(config);
    for (const double ber : {0.05, 0.3})
        mc.pausesSeconds.push_back(
            counted.retentionModel().pauseForBitErrorRate(ber, 80.0));

    // The experiments measureProfile runs, counted word by word.
    std::vector<std::vector<std::uint64_t>> expected(
        patterns.size(), std::vector<std::uint64_t>(32, 0));
    std::vector<BitVec> reads;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        const BitVec data =
            datawordForPattern(patterns[p], 32, dram::CellType::True);
        for (const double pause : mc.pausesSeconds)
            for (std::size_t rep = 0; rep < mc.repeatsPerPause; ++rep) {
                counted.writeDatawordsBroadcast(words.data(),
                                                words.size(), data);
                counted.pauseRefresh(pause, mc.temperatureC);
                counted.readDatawords(words.data(), words.size(), reads);
                for (const BitVec &read : reads)
                    for (std::size_t bit = 0; bit < 32; ++bit)
                        expected[p][bit] += read.get(bit) != data.get(bit);
            }
    }

    const char *outer = std::getenv("BEER_POPCNT");
    const std::string restore = outer ? outer : "";
    for (const char *kernel : {"portable", "vpopcntdq"}) {
        setenv("BEER_POPCNT", kernel, 1);
        Chip chip(config);
        const ProfileCounts counts =
            measureProfile(chip, patterns, mc, words);
        if (outer)
            setenv("BEER_POPCNT", restore.c_str(), 1);
        else
            unsetenv("BEER_POPCNT");
        EXPECT_EQ(counts.errorCounts, expected) << kernel;
        EXPECT_EQ(counts.wordsTested,
                  std::vector<std::uint64_t>(patterns.size(),
                                             4 * words.size()))
            << kernel;
    }
}

TEST(Measure, PaperDefaultConfigShape)
{
    const MeasureConfig config = MeasureConfig::paperDefault();
    ASSERT_EQ(config.pausesSeconds.size(), 21u);
    EXPECT_DOUBLE_EQ(config.pausesSeconds.front(), 120.0);
    EXPECT_DOUBLE_EQ(config.pausesSeconds.back(), 1320.0);
    EXPECT_DOUBLE_EQ(config.temperatureC, 80.0);
}
