/**
 * @file
 * Tests for the v2 binary columnar trace format: batched operations
 * collapse to single records, v1 -> v2 upgrade is lossless (same
 * element stream, bit-identical replayed counts), v2 is at least 10x
 * smaller than v1, v1 text and corrupted or truncated v2 files are
 * rejected with diagnostics, divergence messages name the expected and
 * requested operations, and the planar replay fast path is invariant
 * under thread count and batch shape. v1 bytes come from the reference
 * writer in ref/v1_trace_writer.hh, since nothing else writes v1, and
 * reach replay through beer_trace_convert's reader, the only v1 reader.
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

#include "../tools/v1_trace_reader.hh"
#include "ref/v1_trace_writer.hh"
#include "scalar_only.hh"
#include "temp_path.hh"

using namespace beer;
using beer::dram::ChipConfig;
using beer::dram::makeVendorConfig;
using beer::dram::SimulatedChip;
using beer::dram::TraceRecord;
using beer::dram::TraceRecorder;
using beer::dram::TraceReplayBackend;
using beer::dram::TraceWriteOptions;
using beer::test::ScalarOnly;
using beer::test::ref::renderV1Trace;

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

/** v2 read frames stored raw, never sparse. */
const TraceWriteOptions kRawFrames{/*compressFrames=*/false};

/** Record one measurement as a v2 trace, returning (live counts,
 * serialized trace bytes). Fresh chips with the same config are
 * deterministic, so repeated calls observe identical errors. */
std::pair<ProfileCounts, std::string>
recordMeasurement(char vendor, std::size_t k, std::uint64_t seed,
                  const TraceWriteOptions &options = {})
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

/** v2 bytes of the v1 text @p v1, upgraded as beer_trace_convert does. */
std::string
upgradeV1(const std::string &v1)
{
    std::istringstream in(v1);
    std::ostringstream out;
    tools::upgradeV1Trace(in, out);
    return out.str();
}

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // anonymous namespace

TEST(TraceV2, BatchedOpsCollapseToSingleRecords)
{
    // The same measurement in both formats, at k = 8, 16 and 32 with
    // 64 rows, three pauses and 25 repeats per pause: v1 keeps one text
    // line per word (ops == elements), v2 stores one record per
    // broadcast/batch, both replay to the counts of a live measurement
    // that records nothing (v1 through its upgrade), and v2 is at least
    // 10x smaller.
    for (const std::size_t k : {8, 16, 32}) {
        ChipConfig config = makeVendorConfig('A', k, 4242 + k);
        config.map.rows = 64;
        config.iidErrors = true;
        SimulatedChip live_chip(config);
        MeasureConfig measure;
        measure.pausesSeconds.clear();
        for (double ber : {0.05, 0.15, 0.3})
            measure.pausesSeconds.push_back(
                live_chip.retentionModel().pauseForBitErrorRate(ber,
                                                                80.0));
        measure.repeatsPerPause = 25;
        measure.thresholdProbability = 1e-4;
        const auto patterns = chargedPatterns(k, 1);
        const auto words = dram::trueCellWords(live_chip);
        const ProfileCounts live =
            measureProfile(live_chip, patterns, measure, words);

        SimulatedChip chip(config);
        std::ostringstream out;
        recordProfileTrace(chip, patterns, measure, words, out);
        const std::string v2_bytes = out.str();
        const std::string v1_bytes = renderV1Trace(v2_bytes);

        std::istringstream v1_in(v1_bytes);
        std::stringstream upgraded;
        tools::upgradeV1Trace(v1_in, upgraded);
        std::istringstream v2_in(v2_bytes);
        TraceReplayBackend v1_trace(upgraded);
        TraceReplayBackend v2_trace(v2_in);

        // Element-granular op counts agree; the v2 record list is far
        // shorter because each batch is one record.
        EXPECT_EQ(v1_trace.totalOps(), v2_trace.totalOps()) << "k " << k;
        EXPECT_LT(v2_trace.records().size(), v1_trace.totalOps() / 8);
        bool saw_broadcast = false;
        bool saw_batch = false;
        for (const TraceRecord &rec : v2_trace.records()) {
            if (rec.kind == TraceRecord::Kind::WriteBroadcast &&
                rec.count > 1)
                saw_broadcast = true;
            if (rec.kind == TraceRecord::Kind::ReadBatch &&
                rec.count > 1) {
                saw_batch = true;
                EXPECT_NE(rec.frame, nullptr);
                EXPECT_EQ(rec.laneWords, (rec.count + 63) / 64);
            }
        }
        EXPECT_TRUE(saw_broadcast) << "k " << k;
        EXPECT_TRUE(saw_batch) << "k " << k;

        const ProfileCounts from_v1 = replayProfileTrace(v1_trace);
        const ProfileCounts from_v2 = replayProfileTrace(v2_trace);
        EXPECT_TRUE(v1_trace.atEnd()) << "k " << k;
        EXPECT_TRUE(v2_trace.atEnd()) << "k " << k;
        EXPECT_TRUE(sameCounts(live, from_v1)) << "k " << k;
        EXPECT_TRUE(sameCounts(live, from_v2)) << "k " << k;

        EXPECT_LT(v2_bytes.size() * 10, v1_bytes.size()) << "k " << k;
    }
}

TEST(TraceV2, UpgradesV1ToAnElementIdenticalV2)
{
    // The sizes and FNV-1a hashes are those of the v1 bytes the
    // production v1 writer emitted for these Figure-3 chips before it
    // was deleted; the reference writer, rendering the v2 recording of
    // the same measurement, must reproduce them. v1 -> v2 conversion
    // then keeps the element stream (the converted file renders back
    // to the same v1 text) and so replays to the live counts.
    const struct
    {
        char vendor;
        std::size_t bytes;
        std::uint64_t hash;
    } pinned[] = {
        {'A', 287746, 0x8182173f8872c89aULL},
        {'B', 287746, 0x7f05b5a9d705225aULL},
        {'C', 180154, 0x82e7f46914673c15ULL},
    };
    for (const auto &pin : pinned) {
        const auto [live, v2_bytes] = recordMeasurement(
            pin.vendor, 8, 40 + (std::uint64_t)pin.vendor);
        const std::string v1_text = renderV1Trace(v2_bytes);
        EXPECT_EQ(v1_text.size(), pin.bytes) << "vendor " << pin.vendor;
        EXPECT_EQ(fnv1a(v1_text), pin.hash) << "vendor " << pin.vendor;

        std::istringstream upgraded(upgradeV1(v1_text));
        TraceReplayBackend converted(upgraded);
        EXPECT_EQ(renderV1Trace(converted), v1_text)
            << "vendor " << pin.vendor;
        EXPECT_TRUE(sameCounts(live, replayProfileTrace(converted)))
            << "vendor " << pin.vendor;
    }
}

TEST(TraceV2, QuorumMetaSurvivesConversion)
{
    // An adaptive-quorum measurement under injected read noise: the
    // escalation schedule is seeded from trace meta, so conversion
    // must preserve it exactly — disagreements and votes spent replay
    // bit-identically from the v1 trace upgraded to v2, whose element
    // stream is the v1 one.
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
    const ProfileCounts live =
        recordProfileTrace(proxy, patterns, mc, words, recorded);
    ASSERT_GT(live.totalDisagreements(), 0u)
        << "noise too weak to exercise the adaptive path";
    const std::string v1_text = renderV1Trace(recorded.str());

    std::istringstream upgraded(upgradeV1(v1_text));
    TraceReplayBackend trace(upgraded);
    EXPECT_EQ(renderV1Trace(trace), v1_text);
    const ProfileCounts replayed = replayProfileTrace(trace);
    EXPECT_TRUE(trace.atEnd());
    EXPECT_TRUE(sameCounts(live, replayed));
}

TEST(TraceV2, PlanarReplayIsThreadCountInvariant)
{
    // The sharded planar counting fast path promises bit-identical
    // counts at every thread count (integer adds commute).
    const auto [live, v2_bytes] = recordMeasurement('C', 16, 67);
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
    const auto [live, raw_bytes] = recordMeasurement('A', 8, 41, kRawFrames);
    const auto [live2, sparse_bytes] = recordMeasurement('A', 8, 41);
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
    const auto [live, v2_bytes] = recordMeasurement('A', 8, 41);
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
    SimulatedChip chip(testChipConfig('A', 8, 53));
    std::ostringstream out;
    {
        TraceRecorder recorder(chip, out);
        const gf2::BitVec ones = gf2::BitVec::ones(8);
        recorder.writeDataword(3, ones);
        (void)recorder.readDataword(3);
    }
    for (const std::string &bytes :
         {out.str(), upgradeV1(renderV1Trace(out.str()))}) {

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
        TraceRecorder recorder(chip, out);
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
        TraceRecorder recorder(chip, out, kRawFrames);
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
        TraceRecorder recorder(chip, out, kRawFrames);
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
        TraceRecorder recorder(chip, out);
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

TEST(TraceV2, MagicCheckAcceptsOnlyV2)
{
    // The one question submit and journal replay ask of a trace file:
    // does it start with the v2 magic? v1 text and garbage are refused
    // with the advice to upgrade through beer_trace_convert.
    const std::string path = test::tempPath("magic.trace");
    const auto [live, v2_bytes] = recordMeasurement('A', 8, 41);
    {
        std::ofstream out(path, std::ios::binary);
        out << v2_bytes;
    }
    EXPECT_EQ(dram::traceFileMagicError(path), "");
    for (const std::string &bytes :
         {renderV1Trace(v2_bytes), std::string("# comment\nbeertrace 1\n"),
          std::string("not a trace at all\n"), std::string()}) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        const std::string error = dram::traceFileMagicError(path);
        EXPECT_NE(error.find("not a v2 trace"), std::string::npos) << error;
        EXPECT_NE(error.find("beer_trace_convert"), std::string::npos)
            << error;
    }
    std::remove(path.c_str());
    EXPECT_NE(dram::traceFileMagicError(path).find("cannot open"),
              std::string::npos);
}

TEST(TraceV2Death, V1TextIsRefusedNamingTheConverter)
{
    // Replay reads v2 only; v1 text fails at load, from a stream or a
    // file, with the same advice the magic check gives.
    const std::string v1_text = "beertrace 1\ngeom 1 2 4 8\nk 8\n"
                                "w 0 10110000\n";
    EXPECT_DEATH(
        {
            std::istringstream in(v1_text);
            TraceReplayBackend trace(in);
        },
        "trace stream is not a v2 trace.*beer_trace_convert");
    const std::string path = test::tempPath("v1.trace");
    {
        std::ofstream out(path, std::ios::binary);
        out << v1_text;
    }
    EXPECT_DEATH({ TraceReplayBackend trace(path); },
                 "is not a v2 trace.*beer_trace_convert");
    std::remove(path.c_str());

    // The converter's reader names the line it cannot upgrade.
    EXPECT_DEATH(upgradeV1("beertrace 1\ngeom 1 2 4 8\nk 8\nw 0 1011\n"),
                 "v1 trace line 4: malformed 'w' record");
    EXPECT_DEATH(upgradeV1("not a trace at all\n"),
                 "not a v1 trace: no complete beertrace/geom/k header "
                 "before line 1");
}
