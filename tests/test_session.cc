/**
 * @file
 * Tests for beer::Session recovery: the adaptive early-exit schedule
 * must recover the identical unique ECC function as the full-sweep
 * reference on every vendor configuration while issuing strictly
 * fewer pattern measurements, and the serial schedule is pinned bit
 * for bit.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "beer/session.hh"
#include "dram/chip.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "ref/eager_beer_solve.hh"
#include "ref/full_sweep.hh"

using namespace beer;
using beer::dram::ChipConfig;
using beer::dram::makeVendorConfig;
using beer::dram::SimulatedChip;

namespace
{

ChipConfig
testChipConfig(char vendor, std::size_t k, std::uint64_t seed)
{
    ChipConfig config = makeVendorConfig(vendor, k, seed);
    config.map.rows = 64;
    config.iidErrors = true;
    return config;
}

MeasureConfig
fastMeasure(const SimulatedChip &chip)
{
    MeasureConfig measure;
    measure.pausesSeconds.clear();
    for (double ber : {0.05, 0.15, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = 25;
    measure.thresholdProbability = 1e-4;
    return measure;
}

/** FNV-1a over @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Fingerprint of everything a session's schedule decides: the
 * patterns in the order they were measured, the experiments issued,
 * the solve and escalation counts and the recovered function.
 */
std::uint64_t
scheduleFingerprint(const RecoveryReport &report)
{
    std::ostringstream out;
    for (const TestPattern &pattern : report.counts.patterns) {
        for (std::size_t bit : pattern)
            out << bit << ',';
        out << ';';
    }
    out << '|' << report.stats.patternMeasurements << '|'
        << report.stats.solveCalls << '|' << report.stats.escalations
        << '|'
        << (report.succeeded() ? report.recoveredCode().toString()
                               : std::string("none"));
    return fnv1a(out.str());
}

} // anonymous namespace

TEST(Session, AdaptiveEarlyExitMatchesFullSweep)
{
    for (char vendor : {'A', 'B', 'C'}) {
        const std::uint64_t seed = 500 + (std::uint64_t)vendor;

        // Full sweep.
        SimulatedChip full_chip(testChipConfig(vendor, 16, seed));
        const test::ref::FullSweepResult full = test::ref::fullSweep(
            full_chip, fastMeasure(full_chip),
            dram::trueCellWords(full_chip));
        ASSERT_TRUE(full.succeeded()) << "vendor " << vendor;

        // Adaptive session on an identically manufactured chip.
        SimulatedChip chip(testChipConfig(vendor, 16, seed));
        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.wordsUnderTest = dram::trueCellWords(chip);
        Session session(chip, config);
        const RecoveryReport adaptive = session.run();

        ASSERT_TRUE(adaptive.succeeded()) << "vendor " << vendor;
        EXPECT_TRUE(ecc::equivalent(adaptive.recoveredCode(),
                                    full.recoveredCode()))
            << "vendor " << vendor;
        EXPECT_TRUE(ecc::equivalent(adaptive.recoveredCode(),
                                    chip.groundTruthCode()))
            << "vendor " << vendor;

        // The point of the adaptive schedule: provably-unique solves
        // end the measurement early, so strictly fewer (pattern,
        // pause, repeat) experiments run than in the full sweep.
        EXPECT_LT(adaptive.stats.patternMeasurements, full.experiments)
            << "vendor " << vendor;
        EXPECT_LT(adaptive.counts.patterns.size(),
                  full.counts.patterns.size())
            << "vendor " << vendor;
    }
}

TEST(Session, ProgressCallbackObservesStages)
{
    SimulatedChip chip(testChipConfig('A', 8, 902));
    SessionConfig config;
    config.measure = fastMeasure(chip);
    config.wordsUnderTest = dram::trueCellWords(chip);

    std::vector<SessionStage> stages;
    std::size_t final_patterns = 0;
    config.onProgress = [&](const SessionProgress &progress) {
        stages.push_back(progress.stage);
        final_patterns = progress.patternsMeasured;
    };

    Session session(chip, config);
    const RecoveryReport report = session.run();
    ASSERT_TRUE(report.succeeded());

    ASSERT_FALSE(stages.empty());
    EXPECT_EQ(stages.front(), SessionStage::Measure);
    EXPECT_EQ(stages.back(), SessionStage::Done);
    EXPECT_NE(std::find(stages.begin(), stages.end(),
                        SessionStage::Solve),
              stages.end());
    EXPECT_EQ(final_patterns, report.counts.patterns.size());
}

TEST(Session, EscalatesForAmbiguousOneChargedProfiles)
{
    // An 8-bit dataword uses a (12,8) code shortened from (15,11):
    // depending on the secret function, 1-CHARGED profiles may admit
    // several candidates, which escalation must resolve. Run several
    // seeds and require every recovery to succeed; at least the
    // mechanism must engage (counts include 2-CHARGED patterns when it
    // does).
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SimulatedChip chip(testChipConfig('A', 8, 910 + seed));
        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.wordsUnderTest = dram::trueCellWords(chip);
        Session session(chip, config);
        const RecoveryReport report = session.run();
        ASSERT_TRUE(report.succeeded()) << "seed " << seed;
        EXPECT_TRUE(ecc::equivalent(report.recoveredCode(),
                                    chip.groundTruthCode()))
            << "seed " << seed;
        if (report.usedTwoCharged) {
            EXPECT_GT(report.counts.patterns.size(), 8u);
        }
    }
}

TEST(Session, RecoveredCodeMatchesEagerReferenceSolve)
{
    // The persistent, lazily refined solve context must not change
    // WHAT is recovered: the eagerly encoded reference solve of the
    // session's final profile must find the same single function.
    for (char vendor : {'A', 'B', 'C'}) {
        SimulatedChip chip(testChipConfig(vendor, 16, 940));
        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.wordsUnderTest = dram::trueCellWords(chip);
        Session session(chip, config);
        const RecoveryReport report = session.run();

        ASSERT_TRUE(report.succeeded()) << "vendor " << vendor;
        EXPECT_TRUE(ecc::equivalent(report.recoveredCode(),
                                    chip.groundTruthCode()))
            << "vendor " << vendor;
        const BeerSolveResult eager = test::ref::eagerBeerSolve(
            report.profile, ecc::parityBitsForDataBits(16));
        ASSERT_TRUE(eager.unique()) << "vendor " << vendor;
        EXPECT_TRUE(ecc::canonicalize(report.recoveredCode()) ==
                    eager.solutions.front())
            << "vendor " << vendor;
    }
}

TEST(Session, SolveStatsSplitEncodeAndSearch)
{
    SimulatedChip chip(testChipConfig('B', 16, 950));
    SessionConfig config;
    config.measure = fastMeasure(chip);
    config.wordsUnderTest = dram::trueCellWords(chip);
    Session session(chip, config);
    const RecoveryReport report = session.run();
    ASSERT_TRUE(report.succeeded());

    const SessionStats &stats = report.stats;
    ASSERT_EQ(stats.solveRounds.size(), stats.solveCalls);
    ASSERT_GT(stats.solveRounds.size(), 0u);

    // The split must tile the total, and the per-round entries must
    // sum to the accumulated split.
    double encode = 0.0;
    double search = 0.0;
    std::uint64_t clauses = 0;
    std::size_t patterns_encoded = 0;
    for (const SolveRoundStats &round : stats.solveRounds) {
        encode += round.encodeSeconds;
        search += round.searchSeconds;
        clauses += round.clausesAdded;
        patterns_encoded += round.patternsEncoded;
    }
    EXPECT_DOUBLE_EQ(encode, stats.solveEncodeSeconds);
    EXPECT_DOUBLE_EQ(search, stats.solveSearchSeconds);
    EXPECT_NEAR(stats.solveEncodeSeconds + stats.solveSearchSeconds,
                stats.solveSeconds, 1e-9);
    EXPECT_GT(clauses, 0u);
    // Every measured pattern is encoded exactly once across rounds.
    EXPECT_EQ(patterns_encoded, report.counts.patterns.size());

    // First round pays the structural encoding; later rounds only add
    // pattern constraints.
    EXPECT_GT(stats.solveRounds.front().clausesAdded, 0u);
}

TEST(Session, MergeAccumulatesAcrossRounds)
{
    // Identical patterns measured twice merge into doubled word
    // counts; new patterns append.
    SimulatedChip chip(testChipConfig('A', 8, 930));
    MeasureConfig measure = fastMeasure(chip);
    const auto words = dram::trueCellWords(chip);

    const auto one = chargedPatterns(8, 1);
    ProfileCounts counts = measureProfile(chip, one, measure, words);
    const std::uint64_t words_once = counts.wordsTested[0];

    counts.merge(measureProfile(chip, one, measure, words));
    EXPECT_EQ(counts.patterns.size(), one.size());
    EXPECT_EQ(counts.wordsTested[0], 2 * words_once);

    const auto two = chargedPatterns(8, 2);
    counts.merge(measureProfile(chip, two, measure, words));
    EXPECT_EQ(counts.patterns.size(), one.size() + two.size());
}

/**
 * The serial adaptive schedule is pinned: which patterns each session
 * measures, in which order, how many experiments and solves that takes
 * and which function comes out. Seeds 1-10 x vendors A/B/C at k=16
 * (seeds 2 C and 3 A escalate to 2-CHARGED), three chips of the
 * perfbench `recover` shape at k=32 and one escalating (12,8) chip.
 * A change that is meant to leave the schedule alone must leave these
 * literals as they are.
 */
TEST(Session, SerialScheduleIsPinned)
{
    struct Pinned
    {
        char vendor;
        std::size_t k;
        std::uint64_t seed;
        std::uint64_t fingerprint;
    };
    const Pinned pinned[] = {
        {'A', 16, 1, 0xcc2849c221a471f4ULL},
        {'B', 16, 1, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 1, 0x292b7f61d116ebd9ULL},
        {'A', 16, 2, 0xf4d755cfc52b93b1ULL},
        {'B', 16, 2, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 2, 0xf5ec81f0c3140fe7ULL},
        {'A', 16, 3, 0xfa364d6e4b60904bULL},
        {'B', 16, 3, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 3, 0x1e0a5da65cb18b81ULL},
        {'A', 16, 4, 0xc8035fc7c381533bULL},
        {'B', 16, 4, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 4, 0x3727e8c364a466b2ULL},
        {'A', 16, 5, 0xa57c9c26c3204024ULL},
        {'B', 16, 5, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 5, 0x0506e5a5c30ecc47ULL},
        {'A', 16, 6, 0x6beaecc4426949deULL},
        {'B', 16, 6, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 6, 0xdbe9bd62c691ae79ULL},
        {'A', 16, 7, 0xdd8125028e16acfbULL},
        {'B', 16, 7, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 7, 0x5da061a2c6522ba1ULL},
        {'A', 16, 8, 0x1d48c5ec34831be3ULL},
        {'B', 16, 8, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 8, 0x20fdb9a76af3f137ULL},
        {'A', 16, 9, 0xd5acd1523f277aadULL},
        {'B', 16, 9, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 9, 0x40064ce7b92dfd97ULL},
        {'A', 16, 10, 0xb3c5ce278e3727d2ULL},
        {'B', 16, 10, 0x16a27a61f3e83cf1ULL},
        {'C', 16, 10, 0x1f85c86c2f915556ULL},
        {'A', 32, 1001 * 1000003ULL + 0, 0xcd8259d1fa20b38fULL},
        {'B', 32, 1001 * 1000003ULL + 1, 0xf4044410c10edc84ULL},
        {'C', 32, 1001 * 1000003ULL + 2, 0xb734c2b67b4c35efULL},
        {'C', 8, 1, 0x013b056979d756a9ULL},
    };
    for (const Pinned &p : pinned) {
        SimulatedChip chip(testChipConfig(p.vendor, p.k, p.seed));
        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.wordsUnderTest = dram::trueCellWords(chip);
        Session session(chip, config);
        const RecoveryReport report = session.run();
        EXPECT_TRUE(report.succeeded());
        EXPECT_EQ(scheduleFingerprint(report), p.fingerprint)
            << "vendor " << p.vendor << " k=" << p.k << " seed "
            << p.seed << " escalations " << report.stats.escalations;
    }
}
