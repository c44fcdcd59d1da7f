/**
 * @file
 * Tests for the v2 binary columnar trace format: batched operations
 * collapse to single records, v1 <-> v2 conversion is lossless (byte-
 * identical v1 round trips, bit-identical replayed counts), corrupted
 * or truncated v2 files are rejected with diagnostics, divergence
 * messages name the expected and requested operations, and the planar
 * replay fast path is invariant under thread count and batch shape.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "beer/beer.hh"
#include "beer/measure.hh"
#include "dram/chip.hh"
#include "dram/fault_proxy.hh"
#include "dram/trace.hh"
#include "util/checksum.hh"
#include "util/thread_pool.hh"

#include "scalar_only.hh"
#include "temp_path.hh"

using namespace beer;
using beer::dram::ChipConfig;
using beer::dram::makeVendorConfig;
using beer::dram::SimulatedChip;
using beer::dram::TraceFormat;
using beer::dram::TraceRecord;
using beer::dram::TraceRecorder;
using beer::dram::TraceReplayBackend;
using beer::dram::TraceWriteOptions;
using beer::test::ScalarOnly;

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

bool
sameCounts(const ProfileCounts &a, const ProfileCounts &b)
{
    return a.k == b.k && a.patterns == b.patterns &&
           a.errorCounts == b.errorCounts &&
           a.wordsTested == b.wordsTested &&
           a.disagreements == b.disagreements &&
           a.votesSpent == b.votesSpent;
}

/** Record one measurement in the requested format, returning (live
 * counts, serialized trace bytes). Fresh chips with the same config
 * are deterministic, so repeated calls observe identical errors. */
std::pair<ProfileCounts, std::string>
recordMeasurement(char vendor, std::size_t k, std::uint64_t seed,
                  const TraceWriteOptions &options)
{
    SimulatedChip chip(testChipConfig(vendor, k, seed));
    const MeasureConfig measure = fastMeasure(chip);
    const auto words = dram::trueCellWords(chip);
    const auto patterns = chargedPatterns(k, 1);
    std::ostringstream out;
    const ProfileCounts live = recordProfileTrace(
        chip, patterns, measure, words, out, options);
    return {live, out.str()};
}

} // anonymous namespace

TEST(TraceV2, BatchedOpsCollapseToSingleRecords)
{
    // The same measurement recorded in both formats: v1 keeps one text
    // line per word (ops == elements), v2 stores one record per
    // broadcast/batch, and both replay to identical counts.
    const auto [live_v1, v1_bytes] = recordMeasurement(
        'A', 8, 41, {TraceFormat::V1, true});
    const auto [live_v2, v2_bytes] = recordMeasurement(
        'A', 8, 41, {TraceFormat::V2, true});
    ASSERT_TRUE(sameCounts(live_v1, live_v2))
        << "chip construction is not deterministic";

    std::istringstream v1_in(v1_bytes);
    std::istringstream v2_in(v2_bytes);
    TraceReplayBackend v1_trace(v1_in);
    TraceReplayBackend v2_trace(v2_in);
    EXPECT_EQ(v1_trace.format(), TraceFormat::V1);
    EXPECT_EQ(v2_trace.format(), TraceFormat::V2);

    // Element-granular op counts agree; the v2 record list is far
    // shorter because each batch is one record.
    EXPECT_EQ(v1_trace.totalOps(), v2_trace.totalOps());
    EXPECT_LT(v2_trace.records().size(), v1_trace.totalOps() / 8);
    bool saw_broadcast = false;
    bool saw_batch = false;
    for (const TraceRecord &rec : v2_trace.records()) {
        if (rec.kind == TraceRecord::Kind::WriteBroadcast &&
            rec.count > 1)
            saw_broadcast = true;
        if (rec.kind == TraceRecord::Kind::ReadBatch && rec.count > 1) {
            saw_batch = true;
            EXPECT_NE(rec.frame, nullptr);
            EXPECT_EQ(rec.laneWords, (rec.count + 63) / 64);
        }
    }
    EXPECT_TRUE(saw_broadcast);
    EXPECT_TRUE(saw_batch);

    const ProfileCounts from_v1 = replayProfileTrace(v1_trace);
    const ProfileCounts from_v2 = replayProfileTrace(v2_trace);
    EXPECT_TRUE(v1_trace.atEnd());
    EXPECT_TRUE(v2_trace.atEnd());
    EXPECT_TRUE(sameCounts(live_v1, from_v1));
    EXPECT_TRUE(sameCounts(live_v1, from_v2));

    // v2 is dramatically smaller (the tentpole claim; CI benches the
    // exact ratio, this is the correctness floor).
    EXPECT_LT(v2_bytes.size() * 10, v1_bytes.size());
}

TEST(TraceV2, RoundTripsToByteIdenticalV1)
{
    // v1 -> v2 -> v1 must reproduce recorder-produced v1 files byte
    // for byte, across all three vendor styles (the Figure-3 chips).
    for (char vendor : {'A', 'B', 'C'}) {
        const auto [live, v1_text] = recordMeasurement(
            vendor, 8, 40 + (std::uint64_t)vendor,
            {TraceFormat::V1, true});

        const std::string v1_path =
            test::tempPath(std::string("rt_") + vendor + ".trace");
        const std::string v2_path = v1_path + "2";
        const std::string rt_path = v1_path + ".rt";
        {
            std::ofstream out(v1_path, std::ios::binary);
            out << v1_text;
        }
        dram::convertTraceFile(v1_path, v2_path,
                               {TraceFormat::V2, true});
        dram::convertTraceFile(v2_path, rt_path,
                               {TraceFormat::V1, true});

        std::ifstream rt(rt_path, std::ios::binary);
        std::stringstream rt_text;
        rt_text << rt.rdbuf();
        EXPECT_EQ(rt_text.str(), v1_text) << "vendor " << vendor;

        TraceReplayBackend converted(v2_path);
        EXPECT_EQ(converted.format(), TraceFormat::V2);
        EXPECT_TRUE(sameCounts(live, replayProfileTrace(converted)))
            << "vendor " << vendor;
        for (const std::string &p : {v1_path, v2_path, rt_path})
            std::remove(p.c_str());
    }
}

TEST(TraceV2, QuorumMetaSurvivesConversion)
{
    // An adaptive-quorum measurement under injected read noise: the
    // escalation schedule is seeded from trace meta, so conversion
    // must preserve it exactly — disagreements and votes spent replay
    // bit-identically from the v2 rendering, and the v1 round trip of
    // the recording is byte-identical.
    SimulatedChip chip(testChipConfig('B', 8, 37));
    dram::FaultInjectionConfig chaos;
    chaos.transientFlipRate = 2e-3;
    chaos.seed = 71;
    dram::FaultInjectionProxy proxy(chip, chaos);

    MeasureConfig mc = fastMeasure(chip);
    mc.repeatsPerPause = 15;
    mc.quorum.votes = 3;
    mc.quorum.escalatedVotes = 7;
    mc.quorum.adaptive = true;
    mc.quorum.initialEstimate = 0.01;

    const auto patterns = chargedPatterns(8, 1);
    const auto words = dram::trueCellWords(chip);
    std::ostringstream recorded;
    const ProfileCounts live = recordProfileTrace(
        proxy, patterns, mc, words, recorded, {TraceFormat::V1, true});
    ASSERT_GT(live.totalDisagreements(), 0u)
        << "noise too weak to exercise the adaptive path";

    const std::string v1_path = test::tempPath("quorum.trace");
    const std::string v2_path = v1_path + "2";
    const std::string rt_path = v1_path + ".rt";
    {
        std::ofstream out(v1_path, std::ios::binary);
        out << recorded.str();
    }
    dram::convertTraceFile(v1_path, v2_path, {TraceFormat::V2, true});
    dram::convertTraceFile(v2_path, rt_path, {TraceFormat::V1, true});

    std::ifstream rt(rt_path, std::ios::binary);
    std::stringstream rt_text;
    rt_text << rt.rdbuf();
    EXPECT_EQ(rt_text.str(), recorded.str());

    TraceReplayBackend trace(v2_path);
    const ProfileCounts replayed = replayProfileTrace(trace);
    EXPECT_TRUE(trace.atEnd());
    EXPECT_TRUE(sameCounts(live, replayed));
    for (const std::string &p : {v1_path, v2_path, rt_path})
        std::remove(p.c_str());
}

TEST(TraceV2, PlanarReplayIsThreadCountInvariant)
{
    // The sharded planar counting fast path promises bit-identical
    // counts at every thread count (integer adds commute).
    const auto [live, v2_bytes] = recordMeasurement(
        'C', 16, 67, {TraceFormat::V2, true});
    for (std::size_t threads : {0, 1, 2, 3}) {
        std::istringstream in(v2_bytes);
        TraceReplayBackend trace(in);
        ProfileCounts replayed;
        if (threads == 1) {
            replayed = replayProfileTrace(trace);
        } else {
            util::ThreadPool pool(threads);
            replayed = replayProfileTrace(trace, &pool);
        }
        EXPECT_TRUE(trace.atEnd()) << threads << " threads";
        EXPECT_TRUE(sameCounts(live, replayed))
            << threads << " threads";
    }
}

TEST(TraceV2, UncompressedFramesReplayIdentically)
{
    const auto [live, raw_bytes] = recordMeasurement(
        'A', 8, 41, {TraceFormat::V2, false});
    const auto [live2, sparse_bytes] = recordMeasurement(
        'A', 8, 41, {TraceFormat::V2, true});
    ASSERT_TRUE(sameCounts(live, live2));
    // Sparse frames only ever shrink the file.
    EXPECT_LE(sparse_bytes.size(), raw_bytes.size());
    std::istringstream in(raw_bytes);
    TraceReplayBackend trace(in);
    EXPECT_TRUE(sameCounts(live, replayProfileTrace(trace)));
}

TEST(TraceV2, ScalarReplayOfBatchedRecordsMatches)
{
    // Batch boundaries are not part of the replay contract: a consumer
    // that only ever issues scalar reads/writes must replay a batched
    // v2 trace to the same counts.
    const auto [live, v2_bytes] = recordMeasurement(
        'A', 8, 41, {TraceFormat::V2, true});
    SimulatedChip shape(testChipConfig('A', 8, 41));

    std::istringstream in(v2_bytes);
    TraceReplayBackend trace(in);
    ScalarOnly scalar(trace);
    const ProfileCounts replayed = measureProfile(
        scalar, chargedPatterns(8, 1), fastMeasure(shape),
        dram::trueCellWords(shape));
    EXPECT_TRUE(trace.atEnd());
    EXPECT_TRUE(sameCounts(live, replayed));
}

TEST(TraceV2Death, DivergenceNamesExpectedAndRequestedOps)
{
    // Strict-mismatch errors must say what the replayer asked for AND
    // what the trace recorded, with operands, so a mismatched
    // experiment script is debuggable from the message alone.
    for (TraceFormat format : {TraceFormat::V1, TraceFormat::V2}) {
        SimulatedChip chip(testChipConfig('A', 8, 53));
        std::ostringstream out;
        {
            TraceRecorder recorder(chip, out, {format, true});
            const gf2::BitVec ones = gf2::BitVec::ones(8);
            recorder.writeDataword(3, ones);
            (void)recorder.readDataword(3);
        }
        const std::string bytes = out.str();

        // Wrong operation kind: read where a write was recorded.
        {
            std::istringstream in(bytes);
            TraceReplayBackend trace(in);
            EXPECT_DEATH(
                (void)trace.readDataword(3),
                "diverged at.*requested readDataword\\(word 3.*"
                "records writeDataword\\(word 3, data 11111111");
        }
        // Wrong operand: write of the wrong pattern.
        {
            std::istringstream in(bytes);
            TraceReplayBackend trace(in);
            EXPECT_DEATH(
                trace.writeDataword(3, gf2::BitVec(8)),
                "diverged at.*requested writeDataword\\(word 3, "
                "data 00000000.*records writeDataword\\(word 3, "
                "data 11111111");
        }
        // Exhaustion past the end.
        {
            std::istringstream in(bytes);
            TraceReplayBackend trace(in);
            const gf2::BitVec ones = gf2::BitVec::ones(8);
            trace.writeDataword(3, ones);
            (void)trace.readDataword(3);
            EXPECT_DEATH((void)trace.readDataword(3),
                         "requested but the trace is exhausted "
                         "after 2 operations");
        }
    }
}

TEST(TraceV2Death, BatchDivergenceReportsElementPosition)
{
    SimulatedChip chip(testChipConfig('A', 8, 53));
    std::ostringstream out;
    {
        TraceRecorder recorder(chip, out, {TraceFormat::V2, true});
        const std::size_t words[] = {0, 1, 2};
        recorder.writeDatawordsBroadcast(words, 3,
                                         gf2::BitVec::ones(8));
    }
    std::istringstream in(out.str());
    TraceReplayBackend trace(in);
    trace.writeDataword(0, gf2::BitVec::ones(8));
    EXPECT_DEATH(
        trace.writeDataword(5, gf2::BitVec::ones(8)),
        "requested writeDataword\\(word 5.*records "
        "writeDatawordsBroadcast element 2/3 \\(word 1");
}

TEST(TraceV2Death, CorruptedReadFrameIsRejectedAtLoad)
{
    // Flip one bit inside the last read frame: the CRC check must
    // refuse the file before any replay happens. Raw (uncompressed)
    // frames make the frame bytes' location deterministic — the last
    // record's payload tail.
    SimulatedChip chip(testChipConfig('A', 8, 53));
    std::ostringstream out;
    {
        TraceRecorder recorder(chip, out, {TraceFormat::V2, false});
        const std::size_t words[] = {0, 1, 2};
        std::vector<gf2::BitVec> read;
        recorder.writeDatawordsBroadcast(words, 3,
                                         gf2::BitVec::ones(8));
        recorder.readDatawords(words, 3, read);
    }
    std::string bytes = out.str();
    bytes[bytes.size() - 1] ^= 0x01; // last byte of the raw frame
    EXPECT_DEATH(
        {
            std::istringstream in(bytes);
            TraceReplayBackend trace(in);
        },
        "read-frame CRC mismatch.*corrupted trace");
}

TEST(TraceV2Death, ReadFrameTailBitsAreRejectedAtLoad)
{
    // A frame whose CRC is right but which sets a lane bit past its
    // batch's word count breaks PlanarReadBatch's zero-tail promise
    // (a consumer would index a dataword that does not exist): the
    // loader must refuse it. Same raw-frame layout as above: the
    // 3-word, k = 8 batch is the file's last 64 bytes, its CRC the
    // 4 bytes at payload offset 12.
    SimulatedChip chip(testChipConfig('A', 8, 53));
    std::ostringstream out;
    {
        TraceRecorder recorder(chip, out, {TraceFormat::V2, false});
        const std::size_t words[] = {0, 1, 2};
        std::vector<gf2::BitVec> read;
        recorder.writeDatawordsBroadcast(words, 3,
                                         gf2::BitVec::ones(8));
        recorder.readDatawords(words, 3, read);
    }
    std::string bytes = out.str();
    const std::size_t frame = bytes.size() - 64;
    bytes[frame + 56] ^= 0x08; // row 7, lane bit 3 (word count 3)
    const std::uint32_t crc = util::crc32(bytes.data() + frame, 64);
    for (int i = 0; i < 4; ++i)
        bytes[frame - 4 + i] = (char)((crc >> (8 * i)) & 0xFF);
    EXPECT_DEATH(
        {
            std::istringstream in(bytes);
            TraceReplayBackend trace(in);
        },
        "read frame in record .* sets lane bits past its 3 words");
}

TEST(TraceV2, DatawordTransposeIgnoresTailBits)
{
    // toDatawords must stay inside the batch even when handed a frame
    // that breaks the zero-tail rule.
    const std::uint64_t rows[2] = {0b1101, ~std::uint64_t{0}};
    dram::PlanarReadBatch batch;
    batch.rows = rows;
    batch.rowStride = 1;
    batch.laneWords = 1;
    batch.count = 3;
    std::vector<gf2::BitVec> words;
    batch.toDatawords(2, words);
    ASSERT_EQ(words.size(), 3u);
    // Row 0 = 1,0,1 over words 0..2; row 1 is all ones.
    EXPECT_TRUE(words[0].get(0) && words[0].get(1));
    EXPECT_TRUE(!words[1].get(0) && words[1].get(1));
    EXPECT_TRUE(words[2].get(0) && words[2].get(1));
}

TEST(TraceV2Death, TruncatedTraceIsRejectedAtLoad)
{
    SimulatedChip chip(testChipConfig('A', 8, 53));
    std::ostringstream out;
    {
        TraceRecorder recorder(chip, out, {TraceFormat::V2, true});
        recorder.writeDataword(0, gf2::BitVec::ones(8));
        recorder.pauseRefresh(60.0, 80.0);
    }
    const std::string bytes = out.str();
    // Chop mid-payload and mid-record-header; both must be caught.
    EXPECT_DEATH(
        {
            std::istringstream in(bytes.substr(0, bytes.size() - 5));
            TraceReplayBackend trace(in);
        },
        "trace v2: (record .* overruns the file|truncated header)");
    EXPECT_DEATH(
        {
            std::istringstream in(bytes.substr(0, bytes.size() - 14));
            TraceReplayBackend trace(in);
        },
        "trace v2: (record .* overruns the file|truncated header)");
}

TEST(TraceV2, FormatSniffingAndNames)
{
    EXPECT_EQ(dram::parseTraceFormat("v1"), TraceFormat::V1);
    EXPECT_EQ(dram::parseTraceFormat("2"), TraceFormat::V2);
    EXPECT_FALSE(dram::parseTraceFormat("v3").has_value());
    EXPECT_STREQ(dram::traceFormatName(TraceFormat::V1), "v1");
    EXPECT_STREQ(dram::traceFormatName(TraceFormat::V2), "v2");

    const std::string path = test::tempPath("sniff.trace");
    const auto [live, v2_bytes] = recordMeasurement(
        'A', 8, 41, {TraceFormat::V2, true});
    {
        std::ofstream out(path, std::ios::binary);
        out << v2_bytes;
    }
    EXPECT_EQ(dram::tryTraceFileFormat(path), TraceFormat::V2);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "# comment\nbeertrace 1\n";
    }
    EXPECT_EQ(dram::tryTraceFileFormat(path), TraceFormat::V1);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a trace at all\n";
    }
    EXPECT_FALSE(dram::tryTraceFileFormat(path).has_value());
    std::remove(path.c_str());
}
