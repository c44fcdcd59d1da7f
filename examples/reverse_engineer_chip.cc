/**
 * @file
 * The full Section-5 methodology against an unknown simulated chip,
 * using only the external chip interface:
 *
 *  1. survey true-/anti-cell rows (Section 5.1.1);
 *  2. discover the ECC dataword layout (Section 5.1.2);
 *  3. measure the miscorrection profile with 1-CHARGED patterns and
 *     escalate to {1,2}-CHARGED if needed (Section 5.1.3);
 *  4. solve for the parity-check matrix (Section 5.3);
 *  5. validate against the simulator's ground truth — the step the
 *     paper could not perform on real chips;
 *  6. archive the raw measurement as a v2 binary trace and replay it,
 *     proving the recording reproduces the live counts bit for bit.
 */

#include <cstdio>
#include <sstream>

#include "beer/beer.hh"
#include "dram/chip.hh"
#include "dram/trace.hh"
#include "ecc/code_equiv.hh"

int
main()
{
    using namespace beer;
    using dram::CellType;
    using dram::ChipConfig;
    using dram::SimulatedChip;

    // An anonymous chip from "manufacturer C": mixed true-/anti-cell
    // rows, secret random (22,16) ECC function. Everything below works
    // through the abstract dram::MemoryInterface — swap in a
    // TraceReplayBackend to run the same flow on recorded data.
    ChipConfig config = dram::makeVendorConfig('C', 16, 0xC0FFEE);
    config.map.rows = 64;
    config.iidErrors = true;
    SimulatedChip chip(config);
    dram::MemoryInterface &mem = chip;
    std::printf("Chip under test: %zu rows x %zu bytes/row, "
                "%zu-bit datawords, unknown on-die ECC\n\n",
                config.map.rows, config.map.bytesPerRow,
                chip.datawordBits());

    // ---- Step 1: true-/anti-cell survey. ----------------------------
    const double survey_pause =
        chip.retentionModel().pauseForBitErrorRate(0.2, 80.0);
    const CellTypeSurvey types =
        discoverCellTypes(mem, survey_pause, 80.0);
    std::size_t true_rows = types.trueRows().size();
    std::printf("Step 1: cell-type survey: %zu true-cell rows, %zu "
                "anti-cell rows\n",
                true_rows, types.rowTypes.size() - true_rows);
    std::printf("        row map: ");
    for (std::size_t row = 0; row < types.rowTypes.size(); ++row)
        std::printf("%c", types.rowTypes[row] == CellType::True ? 'T'
                                                                : 'A');
    std::printf("\n\n");

    // ---- Step 2: dataword layout discovery. -------------------------
    const WordLayoutSurvey layout =
        discoverWordLayout(mem, types, survey_pause, 80.0, 6);
    std::printf("Step 2: dataword layout: %zu ECC words per row\n",
                layout.wordGroups.size());
    for (std::size_t g = 0; g < layout.wordGroups.size(); ++g) {
        std::printf("        word %zu <- row-byte offsets:", g);
        for (std::size_t b : layout.wordGroups[g])
            std::printf(" %zu", b);
        std::printf("\n");
    }
    std::printf("        (byte-granularity interleaving, as the paper "
                "found on all manufacturers)\n\n");

    // ---- Steps 3-4: BEER, as an adaptive session. --------------------
    // The word subset comes from the Step-1 survey — derived purely
    // through the external interface, like the paper does on real
    // chips — and the session stops measuring as soon as the solve is
    // provably unique.
    SessionConfig session_config;
    session_config.measure.pausesSeconds.clear();
    for (double ber : {0.05, 0.15, 0.3})
        session_config.measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    session_config.measure.repeatsPerPause = 25;
    session_config.measure.thresholdProbability = 1e-4;
    session_config.wordsUnderTest =
        types.trueCellWords(mem.addressMap());

    Session session(mem, session_config);
    const RecoveryReport report = session.run();
    std::printf("Step 3: measured %zu patterns in %zu rounds "
                "(%llu experiments)%s\n",
                report.counts.patterns.size(),
                report.stats.measureRounds,
                (unsigned long long)report.stats.patternMeasurements,
                report.usedTwoCharged
                    ? " (escalated to {1,2}-CHARGED)"
                    : " (a 1-CHARGED subset sufficed)");
    if (!report.succeeded()) {
        std::printf("BEER did not converge to a unique function "
                    "(%zu candidates)\n",
                    report.solve.solutions.size());
        return 1;
    }
    std::printf("Step 4: unique ECC function found. H = [P | I]:\n%s\n",
                report.recoveredCode().toString().c_str());

    // ---- Step 5: validation (simulation-only privilege). -------------
    if (!ecc::equivalent(report.recoveredCode(),
                         chip.groundTruthCode())) {
        std::printf("Step 5: MISMATCH against ground truth!\n");
        return 1;
    }
    std::printf("Step 5: recovered function matches the chip's "
                "secret function. BEER succeeded.\n\n");

    // ---- Step 6: archive + replay as a v2 binary trace. --------------
    // Record a fresh (shorter) measurement through a TraceRecorder
    // (v2 columnar format), then replay it. The replayed profile
    // counts must match the live ones exactly — this is the property
    // that lets real-chip recordings be archived and re-analysed
    // offline without the chip.
    MeasureConfig archive = session_config.measure;
    archive.repeatsPerPause = 5;
    std::ostringstream trace_stream;
    const ProfileCounts live = recordProfileTrace(
        chip, chargedPatterns(chip.datawordBits(), 1), archive,
        session_config.wordsUnderTest, trace_stream);
    std::istringstream trace_bytes(trace_stream.str());
    dram::TraceReplayBackend trace(trace_bytes);
    const ProfileCounts replayed = replayProfileTrace(trace);
    const bool identical = live.errorCounts == replayed.errorCounts &&
                           live.wordsTested == replayed.wordsTested;
    std::printf("Step 6: archived the measurement as a %zu-byte v2 "
                "trace (%zu ops); replayed counts are %s\n",
                trace_stream.str().size(), trace.totalOps(),
                identical ? "bit-identical" : "DIFFERENT!");
    return identical ? 0 : 1;
}
