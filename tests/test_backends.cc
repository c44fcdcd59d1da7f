/**
 * @file
 * Tests for the pluggable memory backends: trace recording must round-
 * trip through replay bit-for-bit, the fault-injection proxy must
 * perturb measurements (and the threshold filter must absorb the
 * perturbation), and the BEEP word adapter must drive backend words
 * like a SimulatedWord.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "beep/beep.hh"
#include "beep/word_under_test.hh"
#include "beer/beer.hh"
#include "beer/measure.hh"
#include "dram/chip.hh"
#include "dram/fault_proxy.hh"
#include "dram/trace.hh"
#include "ecc/code_equiv.hh"

#include "../tools/v1_trace_reader.hh"

using namespace beer;
using beer::dram::ChipConfig;
using beer::dram::FaultInjectionConfig;
using beer::dram::FaultInjectionProxy;
using beer::dram::makeVendorConfig;
using beer::dram::SimulatedChip;
using beer::dram::TraceRecorder;
using beer::dram::TraceReplayBackend;

namespace
{

ChipConfig
testChipConfig(char vendor, std::size_t k, std::uint64_t seed)
{
    ChipConfig config = makeVendorConfig(vendor, k, seed);
    config.map.rows = 32;
    config.iidErrors = true;
    return config;
}

MeasureConfig
fastMeasure(const SimulatedChip &chip)
{
    MeasureConfig measure;
    measure.pausesSeconds.clear();
    for (double ber : {0.1, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = 10;
    measure.thresholdProbability = 1e-4;
    return measure;
}

} // anonymous namespace

TEST(TraceReplay, MeasurementRoundTripsThroughRecordedLog)
{
    SimulatedChip chip(testChipConfig('A', 8, 41));
    const MeasureConfig measure = fastMeasure(chip);
    const auto words = dram::trueCellWords(chip);
    const auto patterns = chargedPatterns(8, 1);

    std::ostringstream recorded;
    const ProfileCounts live = recordProfileTrace(
        chip, patterns, measure, words, recorded);

    std::istringstream stored(recorded.str());
    TraceReplayBackend trace(stored);
    EXPECT_EQ(trace.addressMap().numWords(), chip.numWords());
    EXPECT_EQ(trace.datawordBits(), chip.datawordBits());

    const ProfileCounts replayed = replayProfileTrace(trace);
    EXPECT_TRUE(trace.atEnd());
    EXPECT_EQ(live.patterns, replayed.patterns);
    EXPECT_EQ(live.errorCounts, replayed.errorCounts);
    EXPECT_EQ(live.wordsTested, replayed.wordsTested);

    // The replayed counts feed the normal pipeline and recover the
    // recorded chip's secret function, with no chip present.
    const MiscorrectionProfile profile =
        replayed.threshold(measure.thresholdProbability);
    const BeerSolveResult solve = solveForEccFunction(profile);
    ASSERT_TRUE(solve.unique());
    EXPECT_TRUE(ecc::equivalent(solve.solutions.front(),
                                chip.groundTruthCode()));
}

TEST(TraceReplay, SessionRunsAgainstRecordedTrace)
{
    // Record an adaptive session's operations, then run an identically
    // configured session against the trace alone.
    const auto make_config = [](const SimulatedChip &chip,
                                const std::vector<std::size_t> &words) {
        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.measure.repeatsPerPause = 25;
        config.wordsUnderTest = words;
        return config;
    };

    SimulatedChip chip(testChipConfig('B', 8, 43));
    const auto words = dram::trueCellWords(chip);

    std::ostringstream recorded;
    RecoveryReport live;
    {
        TraceRecorder recorder(chip, recorded);
        Session session(recorder, make_config(chip, words));
        live = session.run();
    }
    ASSERT_TRUE(live.succeeded());

    std::istringstream stored(recorded.str());
    TraceReplayBackend trace(stored);
    Session session(trace, make_config(chip, words));
    const RecoveryReport replayed = session.run();

    ASSERT_TRUE(replayed.succeeded());
    EXPECT_TRUE(live.solve.solutions == replayed.solve.solutions);
    EXPECT_EQ(live.counts.errorCounts, replayed.counts.errorCounts);
    EXPECT_EQ(replayed.stats.patternMeasurements,
              live.stats.patternMeasurements);
}

TEST(TraceReplay, ParsesGeometryAndMetaLines)
{
    // v1 text reaches replay through beer_trace_convert's upgrade.
    std::istringstream in("beertrace 1\n"
                          "# a comment\n"
                          "geom 1 2 4 8\n"
                          "k 8\n"
                          "meta note hello world\n"
                          "w 0 10110000\n"
                          "r 0 10110000\n"
                          "p 60 80\n");
    std::stringstream upgraded;
    EXPECT_EQ(tools::upgradeV1Trace(in, upgraded), 3u);
    TraceReplayBackend trace(upgraded);
    EXPECT_EQ(trace.addressMap().bytesPerWord, 1u);
    EXPECT_EQ(trace.addressMap().rows, 8u);
    EXPECT_EQ(trace.datawordBits(), 8u);
    ASSERT_EQ(trace.metaLines().size(), 1u);
    EXPECT_EQ(trace.metaLines()[0], "note hello world");
    EXPECT_EQ(trace.totalOps(), 3u);

    const gf2::BitVec data = gf2::BitVec::fromString("10110000");
    trace.writeDataword(0, data);
    EXPECT_EQ(trace.readDataword(0), data);
    trace.pauseRefresh(60.0, 80.0);
    EXPECT_TRUE(trace.atEnd());
}

TEST(FaultProxy, TransientNoisePerturbsCountsButNotProfile)
{
    // Same chip model and seed measured bare and through a noisy
    // proxy: raw counts must differ (the proxy injects errors) while
    // the threshold filter still recovers the exact profile (paper
    // Figure 4's robustness claim, now demonstrated end-to-end
    // through the backend seam).
    SimulatedChip bare(testChipConfig('A', 8, 47));
    SimulatedChip wrapped(testChipConfig('A', 8, 47));
    FaultInjectionConfig faults;
    faults.transientFlipRate = 5e-4;
    FaultInjectionProxy proxy(wrapped, faults);

    const MeasureConfig measure = [&] {
        MeasureConfig config = fastMeasure(bare);
        config.repeatsPerPause = 30;
        return config;
    }();
    const auto patterns = chargedPatterns(8, 1);
    const auto words = dram::trueCellWords(bare);

    const ProfileCounts clean =
        measureProfile(bare, patterns, measure, words);
    const ProfileCounts noisy =
        measureProfile(proxy, patterns, measure, words);

    EXPECT_GT(proxy.injectedFlips(), 0u);
    EXPECT_NE(clean.errorCounts, noisy.errorCounts);
    EXPECT_EQ(noisy.threshold(5e-3),
              exhaustiveProfile(wrapped.groundTruthCode(), patterns));
}

TEST(FaultProxy, StuckAtFaultPinsReadBits)
{
    SimulatedChip chip(testChipConfig('A', 8, 53));
    FaultInjectionConfig faults;
    faults.stuckAt.push_back({/*wordIndex=*/3, /*bit=*/5,
                              /*value=*/false});
    FaultInjectionProxy proxy(chip, faults);

    gf2::BitVec ones = gf2::BitVec::ones(8);
    proxy.writeDataword(3, ones);
    const gf2::BitVec read = proxy.readDataword(3);
    EXPECT_FALSE(read.get(5));
    for (std::size_t bit = 0; bit < 8; ++bit) {
        if (bit != 5) {
            EXPECT_TRUE(read.get(bit)) << "bit " << bit;
        }
    }

    // Byte path sees the same pinned bit; other words are untouched.
    const std::size_t addr = chip.addressMap().byteOfSlot(3, 0);
    EXPECT_EQ(proxy.readByte(addr), 0xFF & ~(1u << 5));
    proxy.writeDataword(4, ones);
    EXPECT_EQ(proxy.readDataword(4), ones);
}

TEST(FaultProxy, ComposesOverTraceReplay)
{
    // Decorators stack on any backend: record a clean measurement,
    // then replay it through a fault proxy to study extra noise on
    // real recorded data.
    SimulatedChip chip(testChipConfig('A', 8, 59));
    const MeasureConfig measure = fastMeasure(chip);
    const auto words = dram::trueCellWords(chip);
    const auto patterns = chargedPatterns(8, 1);

    std::ostringstream recorded;
    const ProfileCounts live = recordProfileTrace(
        chip, patterns, measure, words, recorded);

    std::istringstream stored(recorded.str());
    TraceReplayBackend trace(stored);
    FaultInjectionConfig faults;
    faults.transientFlipRate = 5e-3;
    FaultInjectionProxy proxy(trace, faults);

    const ProfileCounts noisy =
        measureProfile(proxy, patterns, measure, words);
    EXPECT_TRUE(trace.atEnd());
    EXPECT_GT(proxy.injectedFlips(), 0u);
    EXPECT_NE(live.errorCounts, noisy.errorCounts);
}

TEST(BeepAdapter, ProfilesBackendWordLikeSimulatedWord)
{
    // A chip word with known weak cells: BEEP through the
    // MemoryInterface adapter must find planted error cells exactly
    // like the dedicated SimulatedWord harness does.
    ChipConfig config = testChipConfig('A', 16, 61);
    config.iidErrors = false;
    config.seed = 17;
    SimulatedChip chip(config);

    // Find a pause long enough that some cells of word 0 decay
    // deterministically (per-cell retention times are fixed).
    const double pause =
        chip.retentionModel().pauseForBitErrorRate(0.15, 80.0);

    beep::BeepConfig beep_config;
    beep_config.passes = 2;
    beep_config.readsPerPattern = 4;
    beep_config.seed = 11;

    beep::MemoryWordUnderTest word(chip, /*word_index=*/0, pause, 80.0);
    beep::Profiler profiler(chip.groundTruthCode(), beep_config);
    const auto result = profiler.profile(word);

    // Ground truth: which codeword cells of word 0 decay under this
    // pause (charge domain equals value domain in true cells).
    std::vector<std::size_t> expected;
    {
        const gf2::BitVec ones =
            gf2::BitVec::ones(chip.datawordBits());
        chip.writeDataword(0, ones);
        const gf2::BitVec before = chip.storedCodeword(0);
        chip.pauseRefresh(pause, 80.0);
        const gf2::BitVec after = chip.storedCodeword(0);
        for (std::size_t cell = 0; cell < before.size(); ++cell)
            if (before.get(cell) && !after.get(cell))
                expected.push_back(cell);
    }
    for (std::size_t cell : expected)
        EXPECT_NE(std::find(result.errorCells.begin(),
                            result.errorCells.end(), cell),
                  result.errorCells.end())
            << "cell " << cell;
}

TEST(Discovery, WorksThroughAbstractInterface)
{
    // discoverCellTypes/discoverWordLayout now take the abstract
    // interface; run them through a proxy decorator to prove no
    // SimulatedChip-only accessor is needed, and derive the
    // words-under-test externally.
    SimulatedChip chip(testChipConfig('C', 16, 67));
    FaultInjectionProxy proxy(chip, {});

    const double pause =
        chip.retentionModel().pauseForBitErrorRate(0.2, 80.0);
    const CellTypeSurvey survey =
        discoverCellTypes(proxy, pause, 80.0);
    ASSERT_EQ(survey.rowTypes.size(), chip.addressMap().rows);

    std::size_t agree = 0;
    for (std::size_t row = 0; row < survey.rowTypes.size(); ++row)
        if (survey.rowTypes[row] ==
            chip.cellTypeOfWord(row * chip.addressMap().wordsPerRow()))
            ++agree;
    EXPECT_EQ(agree, survey.rowTypes.size());

    EXPECT_EQ(survey.trueCellWords(chip.addressMap()),
              dram::trueCellWords(chip));
}
