/**
 * @file
 * End-to-end integration tests: a beer::Session against simulated
 * vendor chips (A/B/C at k=16, vendor A at k=8 and k=24) must uniquely
 * recover the secret on-die ECC function through the external chip
 * interface alone — the paper's headline experiment (Section 5),
 * validated here against ground truth, which the authors could not do
 * on real chips.
 */

#include <gtest/gtest.h>

#include "beer/session.hh"
#include "dram/chip.hh"
#include "ecc/code_equiv.hh"

using namespace beer;
using beer::dram::Chip;
using beer::dram::ChipConfig;
using beer::dram::makeVendorConfig;

namespace
{

/**
 * The paper's methodology as one run on the chip's true-cell words:
 * measure 1-CHARGED patterns until the solve is unique, escalating to
 * 2-CHARGED patterns if they all leave it ambiguous.
 */
SessionConfig
sessionConfig(const Chip &chip)
{
    SessionConfig config;
    config.measure.pausesSeconds.clear();
    for (double ber : {0.05, 0.15, 0.3})
        config.measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    config.measure.repeatsPerPause = 25;
    config.measure.thresholdProbability = 1e-4;
    config.wordsUnderTest = dram::trueCellWords(chip);
    return config;
}

void
expectRecovers(char vendor, std::size_t k, std::uint64_t seed)
{
    ChipConfig config = makeVendorConfig(vendor, k, seed);
    config.map.rows = 64;
    config.iidErrors = true;
    Chip chip(config);

    const SessionConfig session_config = sessionConfig(chip);
    ASSERT_FALSE(session_config.wordsUnderTest.empty());
    Session session(chip, session_config);
    const auto report = session.run();
    ASSERT_TRUE(report.succeeded())
        << "vendor " << vendor << " k=" << k << " solutions="
        << report.solve.solutions.size();
    EXPECT_TRUE(ecc::equivalent(report.recoveredCode(),
                                chip.groundTruthCode()));
}

} // anonymous namespace

TEST(Pipeline, RecoversVendorA)
{
    expectRecovers('A', 16, 101);
}

TEST(Pipeline, RecoversVendorB)
{
    expectRecovers('B', 16, 102);
}

TEST(Pipeline, RecoversVendorC)
{
    expectRecovers('C', 16, 103);
}

TEST(Pipeline, RecoversAcrossWordSizes)
{
    expectRecovers('A', 8, 104);
    expectRecovers('A', 24, 105);
}

TEST(Pipeline, SameModelChipsYieldSameProfile)
{
    // Paper Section 5.1.3: chips of the same model (same secret
    // function, different error seeds) give identical miscorrection
    // profiles.
    ChipConfig config1 = makeVendorConfig('A', 8, 777);
    ChipConfig config2 = makeVendorConfig('A', 8, 777);
    config2.seed = 778; // same function, different per-cell errors
    config1.map.rows = config2.map.rows = 64;
    config1.iidErrors = config2.iidErrors = true;
    Chip chip1(config1);
    Chip chip2(config2);
    ASSERT_TRUE(chip1.groundTruthCode() == chip2.groundTruthCode());

    const auto patterns = chargedPatterns(8, 1);
    MeasureConfig mc;
    for (double ber : {0.1, 0.2, 0.3})
        mc.pausesSeconds.push_back(
            chip1.retentionModel().pauseForBitErrorRate(ber, 80.0));
    mc.repeatsPerPause = 25;

    const auto profile1 =
        measureProfileOnChip(chip1, patterns, mc).threshold(1e-4);
    const auto profile2 =
        measureProfileOnChip(chip2, patterns, mc).threshold(1e-4);
    EXPECT_EQ(profile1, profile2);
}

TEST(Pipeline, DifferentVendorsYieldDifferentProfiles)
{
    // Paper Figure 3: different manufacturers' profiles differ.
    auto profile_of = [](char vendor, std::uint64_t seed) {
        ChipConfig config = makeVendorConfig(vendor, 8, seed);
        config.map.rows = 64;
        config.iidErrors = true;
        Chip chip(config);
        MeasureConfig mc;
        for (double ber : {0.1, 0.2, 0.3})
            mc.pausesSeconds.push_back(
                chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
        mc.repeatsPerPause = 25;
        return measureProfileOnChip(chip, chargedPatterns(8, 1), mc)
            .threshold(1e-4);
    };
    EXPECT_NE(profile_of('A', 201), profile_of('B', 201));
}
