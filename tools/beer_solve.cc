/**
 * @file
 * Command-line BEER solver: read a miscorrection profile from a file
 * (or stdin) — or re-measure one from a recorded operation trace —
 * and enumerate every ECC function consistent with it.
 *
 * This mirrors the tool the paper released for applying BEER to
 * experimental data from real DRAM chips. Profile format (see
 * beer/profile.hh):
 *
 *     # comment
 *     k 16
 *     0 0111011101110111        <- 1-CHARGED pattern, bit 0
 *     0,3 0110011101110110      <- 2-CHARGED pattern, bits 0 and 3
 *
 * Each bitmap bit j is '1' iff a miscorrection was observed at data
 * bit j under that pattern (after threshold filtering).
 *
 * With --trace, the input is instead a raw measurement recording in
 * the dram/trace.hh format (e.g. from beer_profile_gen --trace-out or
 * beer::recordProfileTrace()): the measurement loop replays against
 * the recorded reads and the threshold filter runs on the replayed
 * counts, so no pre-thresholded profile file is needed.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>

#include "beer/measure.hh"
#include "beer/profile.hh"
#include "beer/solver.hh"
#include "dram/trace.hh"
#include "ecc/hamming.hh"
#include "sat/dimacs.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace beer;

namespace
{

void
writeStatsJson(const std::string &path, const MiscorrectionProfile &profile,
               std::size_t parity, const BeerSolveResult &result,
               const sat::SolverStats &s, double wall_seconds)
{
    std::ofstream out(path);
    if (!out)
        util::fatal("cannot open stats file '%s'", path.c_str());
    out << "{\n"
        << "  \"k\": " << profile.k << ",\n"
        << "  \"parity_bits\": " << parity << ",\n"
        << "  \"patterns\": " << profile.patterns.size() << ",\n"
        << "  \"solutions\": " << result.solutions.size() << ",\n"
        << "  \"complete\": " << (result.complete ? "true" : "false")
        << ",\n"
        << "  \"wall_seconds\": " << wall_seconds << ",\n"
        << "  \"memory_bytes\": " << result.memoryBytes << ",\n"
        << "  \"solver\": {\n"
        << "    \"decisions\": " << s.decisions << ",\n"
        << "    \"propagations\": " << s.propagations << ",\n"
        << "    \"conflicts\": " << s.conflicts << ",\n"
        << "    \"restarts\": " << s.restarts << ",\n"
        << "    \"learned_clauses\": " << s.learnedClauses << ",\n"
        << "    \"deleted_clauses\": " << s.deletedClauses << ",\n"
        << "    \"added_clauses\": " << s.addedClauses << ",\n"
        << "    \"arena_bytes\": " << s.arenaBytes << "\n"
        << "  }\n"
        << "}\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Solve for the on-die ECC function(s) matching a "
                  "measured miscorrection profile");
    cli.addOption("profile", "-",
                  "profile file path ('-' reads stdin)");
    cli.addOption("trace", "",
                  "measure from a recorded operation trace instead of "
                  "reading a profile file");
    cli.addOption("replay-threads", "1",
                  "worker threads for v2 planar replay counting (0 = "
                  "all hardware threads); counts are identical for "
                  "every value");
    cli.addOption("threshold", "-1",
                  "threshold probability for --trace counts "
                  "(-1 = the threshold recorded in the trace)");
    cli.addOption("parity-bits", "0",
                  "parity-bit count (0 = minimum SEC count for k)");
    cli.addOption("max-solutions", "16",
                  "stop after this many solutions (0 = all)");
    cli.addOption("dimacs-out", "",
                  "export the encoded BEER instance as DIMACS CNF to "
                  "this path (for cross-checking external solvers)");
    cli.addOption("stats-json", "",
                  "write solver statistics and wall time as JSON to "
                  "this path");
    cli.addFlag("no-symmetry-breaking",
                "disable row-order symmetry breaking");
    cli.addFlag("quiet", "print only the solution count");
    cli.parse(argc, argv);

    MiscorrectionProfile profile;
    const std::string trace_path = cli.getString("trace");
    if (!trace_path.empty()) {
        dram::TraceReplayBackend trace(trace_path);
        std::optional<util::ThreadPool> pool;
        const auto replay_threads =
            (std::size_t)cli.getInt("replay-threads");
        if (replay_threads != 1)
            pool.emplace(replay_threads);
        const ProfileCounts counts =
            replayProfileTrace(trace, pool ? &*pool : nullptr);
        double threshold = cli.getDouble("threshold");
        if (threshold < 0.0)
            threshold =
                traceMeasureConfig(trace).thresholdProbability;
        std::fprintf(stderr,
                     "replayed %zu trace operations: %zu patterns, "
                     "threshold %g\n",
                     trace.totalOps(), counts.patterns.size(),
                     threshold);
        profile = counts.threshold(threshold);
    } else if (cli.getString("profile") == "-") {
        profile = parseProfile(std::cin);
    } else {
        const std::string path = cli.getString("profile");
        std::ifstream in(path);
        if (!in)
            util::fatal("cannot open profile file '%s'", path.c_str());
        profile = parseProfile(in);
    }

    std::size_t parity = (std::size_t)cli.getInt("parity-bits");
    if (parity == 0)
        parity = ecc::parityBitsForDataBits(profile.k);

    BeerSolverConfig config;
    config.maxSolutions = (std::size_t)cli.getInt("max-solutions");
    config.symmetryBreaking = !cli.getBool("no-symmetry-breaking");

    std::fprintf(stderr,
                 "solving: k=%zu, parity=%zu, %zu patterns...\n",
                 profile.k, parity, profile.patterns.size());

    const auto wall_start = std::chrono::steady_clock::now();
    IncrementalSolver incremental(profile.k, parity, config);
    incremental.addProfile(profile);

    const std::string dimacs_path = cli.getString("dimacs-out");
    if (!dimacs_path.empty()) {
        // Export before enumeration so the CNF is the pure instance,
        // free of blocking clauses and their group guards, and with
        // every lazily held constraint encoded: the relaxed formula
        // would let an external solver answer wrongly.
        incremental.encodeHeldConstraints();
        std::ofstream out(dimacs_path);
        if (!out)
            util::fatal("cannot open DIMACS file '%s'",
                        dimacs_path.c_str());
        printDimacs(sat::extractCnf(incremental.satSolver()), out);
        std::fprintf(stderr, "wrote DIMACS instance to %s\n",
                     dimacs_path.c_str());
    }

    const BeerSolveResult result = incremental.solve();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    const std::string stats_path = cli.getString("stats-json");
    if (!stats_path.empty())
        writeStatsJson(stats_path, profile, parity, result,
                       incremental.satSolver().stats(), wall_seconds);

    if (cli.getBool("quiet")) {
        std::printf("%zu%s\n", result.solutions.size(),
                    result.complete ? "" : "+");
        return result.solutions.empty() ? 1 : 0;
    }

    if (result.solutions.empty()) {
        std::printf("no ECC function matches this profile "
                    "(inconsistent measurement?)\n");
        return 1;
    }

    std::printf("%zu solution(s)%s:\n\n", result.solutions.size(),
                result.complete ? "" : " (enumeration truncated)");
    for (std::size_t i = 0; i < result.solutions.size(); ++i) {
        std::printf("--- solution %zu: H = [P | I] ---\n%s\n", i,
                    result.solutions[i].toString().c_str());
    }
    if (result.unique())
        std::printf("The ECC function is uniquely identified.\n");
    else if (result.complete)
        std::printf("Multiple candidates: extend the measurement with "
                    "2-CHARGED patterns (Section 4.2.4).\n");
    return 0;
}
