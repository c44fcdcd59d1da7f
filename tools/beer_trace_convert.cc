/**
 * @file
 * Convert measurement operation traces (dram/trace.hh) to the v2
 * binary columnar format: a v1 text trace is upgraded, and a v2 trace
 * is re-encoded with raw (--no-compress) or sparse read frames. The
 * output always holds the input's element stream, so both files
 * replay to identical profile counts:
 *
 *     beer_trace_convert --in m.trace --out m2.trace --verify
 *
 * --verify replays both files through the measurement loop and
 * cross-checks the profile counts, so a conversion can be trusted
 * before the original is archived or deleted. Nothing writes v1, so
 * there is no way back.
 */

#include <cstdio>
#include <cstring>

#include "beer/measure.hh"
#include "dram/trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"

using namespace beer;

namespace
{

/** Exact comparison of two replayed profile-count sets. */
bool
sameCounts(const ProfileCounts &a, const ProfileCounts &b)
{
    return a.k == b.k && a.patterns == b.patterns &&
           a.errorCounts == b.errorCounts &&
           a.wordsTested == b.wordsTested &&
           a.disagreements == b.disagreements &&
           a.votesSpent == b.votesSpent;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Convert a BEER measurement trace (v1 or v2) to the "
                  "v2 binary format");
    cli.addOption("in", "", "input trace path (format is sniffed)");
    cli.addOption("out", "", "output trace path");
    cli.addFlag("no-compress",
                "store v2 read frames raw instead of sparse-encoded");
    cli.addFlag("verify",
                "replay input and output through the measurement loop "
                "and require bit-identical profile counts");
    cli.parse(argc, argv);

    const std::string in_path = cli.getString("in");
    const std::string out_path = cli.getString("out");
    if (in_path.empty() || out_path.empty())
        util::fatal("--in and --out are both required");

    dram::TraceWriteOptions options;
    options.compressFrames = !cli.getBool("no-compress");

    const dram::TraceConvertStats stats =
        dram::convertTraceFile(in_path, out_path, options);
    std::fprintf(stderr,
                 "%s %s (%ju bytes) -> v2 %s (%ju bytes): %zu ops, "
                 "%.2fx size\n",
                 dram::traceFormatName(stats.from), in_path.c_str(),
                 (std::uintmax_t)stats.bytesIn, out_path.c_str(),
                 (std::uintmax_t)stats.bytesOut, stats.ops,
                 stats.bytesOut
                     ? (double)stats.bytesIn / (double)stats.bytesOut
                     : 0.0);

    if (cli.getBool("verify")) {
        dram::TraceReplayBackend original(in_path);
        dram::TraceReplayBackend converted(out_path);
        const ProfileCounts a = replayProfileTrace(original);
        const ProfileCounts b = replayProfileTrace(converted);
        if (!sameCounts(a, b)) {
            std::fprintf(stderr,
                         "verify FAILED: replayed profile counts "
                         "differ between input and output\n");
            return 1;
        }
        std::fprintf(stderr,
                     "verify OK: both traces replay to identical "
                     "profile counts (%llu observations)\n",
                     (unsigned long long)a.totalObservations());
    }
    return 0;
}
