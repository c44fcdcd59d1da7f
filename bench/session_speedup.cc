/**
 * @file
 * Measurement-effort reduction from beer::Session's adaptive early
 * exit versus the full-sweep schedule.
 *
 * For each vendor configuration, runs two schedules against
 * identically manufactured simulated chips:
 *
 *   - full:     full sweep, every pattern measured before each solve
 *               (baseline experiment count);
 *   - adaptive: the default adaptive session, which solves after
 *               every round on one persistent IncrementalSolver.
 *
 * On real hardware every experiment costs a multi-minute refresh
 * pause, so the experiment count is the figure of merit for the
 * adaptive schedule; the cumulative solver wall time (encode + search,
 * reported per round) shows what the solves between rounds cost. With
 * --json the full per-round trajectories are emitted machine-readably
 * so BENCH_*.json files can be tracked across PRs.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "beer/session.hh"
#include "dram/chip.hh"
#include "ecc/code_equiv.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace beer;
using dram::SimulatedChip;

namespace
{

MeasureConfig
benchMeasure(const SimulatedChip &chip, std::size_t repeats)
{
    MeasureConfig measure;
    for (double ber : {0.05, 0.15, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = repeats;
    measure.thresholdProbability = 1e-4;
    return measure;
}

/** One session's solver-side trajectory. */
struct SolverTrajectory
{
    double encodeSeconds = 0.0;
    double searchSeconds = 0.0;
    std::uint64_t clausesAdded = 0;
    std::vector<SolveRoundStats> rounds;

    double total() const { return encodeSeconds + searchSeconds; }
};

SolverTrajectory
trajectoryOf(const RecoveryReport &report)
{
    SolverTrajectory out;
    out.encodeSeconds = report.stats.solveEncodeSeconds;
    out.searchSeconds = report.stats.solveSearchSeconds;
    out.rounds = report.stats.solveRounds;
    for (const SolveRoundStats &round : out.rounds)
        out.clausesAdded += round.clausesAdded;
    return out;
}

void
printRoundsJson(std::ostream &out, const std::vector<SolveRoundStats> &rounds,
                const char *indent)
{
    out << "[";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const SolveRoundStats &r = rounds[i];
        out << (i ? "," : "") << "\n"
            << indent << "  {\"encode_s\": " << r.encodeSeconds
            << ", \"search_s\": " << r.searchSeconds
            << ", \"clauses_added\": " << r.clausesAdded
            << ", \"patterns_encoded\": " << r.patternsEncoded
            << ", \"solutions\": " << r.solutions << "}";
    }
    if (!rounds.empty())
        out << "\n" << indent;
    out << "]";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("beer::Session adaptive early exit vs full sweep");
    cli.addOption("k", "16", "dataword length in bits");
    cli.addOption("seeds-per-vendor", "5",
                  "chips (secret functions) per vendor");
    cli.addOption("repeats", "25", "repeats per refresh pause");
    cli.addOption("seed", "1", "base RNG seed");
    cli.addOption("json", "",
                  "emit machine-readable results (including per-round "
                  "solver trajectories) to this path");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
    cli.parse(argc, argv);

    const auto k = (std::size_t)cli.getInt("k");
    const auto chips = (std::size_t)cli.getInt("seeds-per-vendor");
    const auto repeats = (std::size_t)cli.getInt("repeats");
    const auto base_seed = (std::uint64_t)cli.getInt("seed");

    util::Table table({"vendor", "experiments (full)",
                       "experiments (adaptive, median)",
                       "reduction (median)", "patterns (median)",
                       "measure s (median)", "solve s (median)",
                       "all identical"});

    std::ostringstream json_vendors;
    bool first_vendor = true;

    for (char vendor : {'A', 'B', 'C'}) {
        std::vector<double> experiments;
        std::vector<double> patterns;
        std::vector<double> measure_s;
        std::vector<double> solve_s;
        std::vector<double> reduction;
        double full_experiments = 0.0;
        bool all_identical = true;
        std::ostringstream json_chips;

        for (std::size_t i = 0; i < chips; ++i) {
            const std::uint64_t seed = base_seed + 1000 * (i + 1);
            dram::ChipConfig config =
                dram::makeVendorConfig(vendor, k, seed);
            config.map.rows = 64;
            config.iidErrors = true;

            SimulatedChip full_chip(config);
            SessionConfig full_config;
            full_config.measure = benchMeasure(full_chip, repeats);
            full_config.adaptiveEarlyExit = false;
            full_config.wordsUnderTest = dram::trueCellWords(full_chip);
            Session full_session(full_chip, full_config);
            const RecoveryReport full = full_session.run();

            SimulatedChip chip(config);
            SessionConfig session_config;
            session_config.measure = full_config.measure;
            session_config.wordsUnderTest = dram::trueCellWords(chip);
            Session session(chip, session_config);
            const RecoveryReport adaptive = session.run();

            if (!full.succeeded() || !adaptive.succeeded() ||
                !ecc::equivalent(full.recoveredCode(),
                                 adaptive.recoveredCode()))
                all_identical = false;

            const SolverTrajectory solver = trajectoryOf(adaptive);

            full_experiments =
                (double)full.stats.patternMeasurements;
            experiments.push_back(
                (double)adaptive.stats.patternMeasurements);
            patterns.push_back(
                (double)adaptive.counts.patterns.size());
            measure_s.push_back(adaptive.stats.measureSeconds);
            solve_s.push_back(solver.total());
            reduction.push_back(
                full.stats.patternMeasurements == 0
                    ? 0.0
                    : 1.0 - (double)adaptive.stats.patternMeasurements /
                                (double)full.stats.patternMeasurements);

            json_chips << (i ? "," : "") << "\n        {\"seed\": "
                       << seed << ",\n         \"rounds\": ";
            printRoundsJson(json_chips, solver.rounds, "         ");
            json_chips << ",\n         \"solve_s\": " << solver.total()
                       << ", \"clauses\": " << solver.clausesAdded
                       << "}";
        }

        char vendor_name[2] = {vendor, '\0'};
        char reduction_text[32];
        std::snprintf(reduction_text, sizeof reduction_text, "%.0f%%",
                      100.0 * util::median(reduction));
        table.addRowOf(vendor_name, full_experiments,
                       util::median(experiments), reduction_text,
                       util::median(patterns),
                       util::Table::fixed(util::median(measure_s), 3),
                       util::Table::sci(util::median(solve_s)),
                       all_identical ? "yes" : "NO");

        json_vendors << (first_vendor ? "" : ",") << "\n"
                     << "    {\"vendor\": \"" << vendor << "\",\n"
                     << "     \"full_experiments\": " << full_experiments
                     << ",\n"
                     << "     \"adaptive_experiments_median\": "
                     << util::median(experiments) << ",\n"
                     << "     \"reduction_median\": "
                     << util::median(reduction) << ",\n"
                     << "     \"solve_s_median\": "
                     << util::median(solve_s) << ",\n"
                     << "     \"all_identical\": "
                     << (all_identical ? "true" : "false") << ",\n"
                     << "     \"chips\": [" << json_chips.str()
                     << "\n     ]}";
        first_vendor = false;
    }

    std::printf("Session adaptive early exit vs full sweep "
                "(k=%zu, %zu chips per vendor)\n",
                k, chips);
    if (cli.getBool("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    const std::string json_path = cli.getString("json");
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            util::fatal("cannot open JSON file '%s'", json_path.c_str());
        out << "{\n  \"bench\": \"session_speedup\",\n  \"k\": " << k
            << ",\n  \"chips_per_vendor\": " << chips
            << ",\n  \"repeats\": " << repeats
            << ",\n  \"vendors\": [" << json_vendors.str()
            << "\n  ]\n}\n";
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    return 0;
}
