/**
 * @file
 * Convert measurement operation traces to the v2 binary columnar
 * format (dram/trace.hh): a v1 text trace is upgraded, and a v2 trace
 * is re-encoded with raw (--no-compress) or sparse read frames. This
 * is the only program that reads v1 (v1_trace_reader.hh); replay and
 * beer_serve refuse it. The output always holds the input's element
 * stream, so both replay to identical profile counts:
 *
 *     beer_trace_convert --in m.trace --out m2.trace --verify
 *
 * --verify reads the output back and exits 1 unless it holds the
 * input's records and meta lines (for a v1 input, those of its
 * in-memory upgrade). Identical records replay identically, so the
 * check keeps the promise of identical profile counts, and it also
 * covers traces that carry no measurement plan. So a conversion can be
 * trusted before the original is archived or deleted. Nothing writes
 * v1, so there is no way back.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "dram/trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"

#include "v1_trace_reader.hh"

using namespace beer;

namespace
{

/** Re-encode every record of @p in, in order, through @p writer. */
void
writeRecords(const dram::TraceReplayBackend &in, dram::TraceWriter &writer)
{
    using Kind = dram::TraceRecord::Kind;
    std::vector<std::size_t> words;
    for (const dram::TraceRecord &rec : in.records()) {
        words.assign(rec.words, rec.words + rec.count);
        switch (rec.kind) {
        case Kind::Meta:
            writer.meta(in.metaLines()[rec.metaIndex]);
            break;
        case Kind::WriteWord:
            writer.writeWord(rec.index, rec.data);
            break;
        case Kind::ReadWord:
            writer.readWord(rec.index, rec.data);
            break;
        case Kind::WriteBroadcast:
            writer.writeBroadcast(words.data(), rec.count, rec.data);
            break;
        case Kind::ReadBatch:
            writer.readBatchPlanar(words.data(), rec.count,
                                   {rec.frame, rec.laneWords,
                                    rec.laneWords, rec.count});
            break;
        case Kind::WriteByte:
            writer.writeByte(rec.index, rec.byte);
            break;
        case Kind::ReadByte:
            writer.readByte(rec.index, rec.byte);
            break;
        case Kind::Fill:
            writer.fill(rec.byte);
            break;
        case Kind::Pause:
            writer.pause(rec.seconds, rec.tempC);
            break;
        }
    }
}

/** True when @p a and @p b hold the same meta lines and records. */
bool
sameRecords(const dram::TraceReplayBackend &a,
            const dram::TraceReplayBackend &b)
{
    const std::size_t k = a.datawordBits();
    if (b.datawordBits() != k || a.metaLines() != b.metaLines() ||
        a.records().size() != b.records().size())
        return false;
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        const dram::TraceRecord &x = a.records()[i];
        const dram::TraceRecord &y = b.records()[i];
        const std::size_t frame_words = x.frame ? k * x.laneWords : 0;
        if (x.kind != y.kind || x.index != y.index || x.byte != y.byte ||
            x.seconds != y.seconds || x.tempC != y.tempC ||
            !(x.data == y.data) || x.metaIndex != y.metaIndex ||
            x.count != y.count ||
            !std::equal(x.words, x.words + x.count, y.words) ||
            !std::equal(x.frame, x.frame + frame_words, y.frame))
            return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Convert a BEER measurement trace (v1 or v2) to the "
                  "v2 binary format");
    cli.addOption("in", "", "input trace path (v1 or v2, sniffed)");
    cli.addOption("out", "", "output trace path");
    cli.addFlag("no-compress",
                "store v2 read frames raw instead of sparse-encoded");
    cli.addFlag("verify",
                "read the output back and require the input's records "
                "and meta lines");
    cli.parse(argc, argv);

    const std::string in_path = cli.getString("in");
    const std::string out_path = cli.getString("out");
    if (in_path.empty() || out_path.empty())
        util::fatal("--in and --out are both required");
    // Writing over the input would destroy it, and a v2 input is still
    // mmap'd while the output is written.
    std::error_code ignored;
    if (std::filesystem::equivalent(in_path, out_path, ignored))
        util::fatal("--in and --out name the same file");

    dram::TraceWriteOptions options;
    options.compressFrames = !cli.getBool("no-compress");

    // The whole input is loaded and validated before the output is
    // created. A v1 input is upgraded in memory first (raw frames, so
    // the output's own encoding is chosen by the writer below).
    const bool v2 = dram::traceFileMagicError(in_path).empty();
    std::optional<dram::TraceReplayBackend> input;
    if (v2) {
        input.emplace(in_path);
    } else {
        std::ifstream text(in_path);
        if (!text)
            util::fatal("cannot open trace file '%s'", in_path.c_str());
        std::stringstream upgraded;
        tools::upgradeV1Trace(text, upgraded, {/*compressFrames=*/false});
        input.emplace(upgraded);
    }

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out)
        util::fatal("cannot open trace output file '%s'",
                    out_path.c_str());
    dram::TraceWriter writer(out, input->addressMap(),
                             input->datawordBits(), options);
    writeRecords(*input, writer);
    const std::uintmax_t bytes_out = (std::uintmax_t)out.tellp();
    out.close();
    if (!out)
        util::fatal("failed writing trace output file '%s'",
                    out_path.c_str());
    const std::uintmax_t bytes_in =
        std::filesystem::file_size(in_path, ignored);
    std::fprintf(stderr,
                 "%s %s (%ju bytes) -> v2 %s (%ju bytes): %zu ops, "
                 "%.2fx size\n",
                 v2 ? "v2" : "v1", in_path.c_str(), bytes_in,
                 out_path.c_str(), bytes_out, input->totalOps(),
                 bytes_out ? (double)bytes_in / (double)bytes_out : 0.0);

    if (cli.getBool("verify")) {
        const dram::TraceReplayBackend converted(out_path);
        if (!sameRecords(*input, converted)) {
            std::fprintf(stderr, "verify FAILED: the output does not "
                                 "hold the input's records\n");
            return 1;
        }
        std::fprintf(stderr,
                     "verify OK: the output holds the input's %zu "
                     "records and %zu meta lines\n",
                     input->records().size(), input->metaLines().size());
    }
    return 0;
}
