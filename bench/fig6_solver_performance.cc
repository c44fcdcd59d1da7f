/**
 * @file
 * Reproduces paper Figure 6: BEER solver runtime and memory versus
 * dataword length, split into "determine function(s)" (time to the
 * first solution) and "check uniqueness" (time to exhaust the search
 * space).
 *
 * Absolute numbers are not comparable to the paper's (different
 * solver, encoding, and host; our structured support-inclusion CNF is
 * far smaller than the paper's generic Z3 formulation). The shape to
 * reproduce: cost grows with k and jumps whenever k crosses a
 * parity-bit boundary, and uniqueness checking dominates total time.
 * Exits nonzero when a full enumeration is incomplete or misses the
 * generating code.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "beer/profile.hh"
#include "beer/solver.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "util/cli.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace beer;
using ecc::LinearCode;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::vector<std::size_t>
parseList(const std::string &text)
{
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t next = text.find(',', pos);
        if (next == std::string::npos)
            next = text.size();
        out.push_back((std::size_t)std::stoul(
            text.substr(pos, next - pos)));
        pos = next + 1;
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Paper Figure 6: BEER solve runtime and memory vs "
                  "dataword length");
    cli.addOption("k-list", "4,8,11,16,22,26,32,40,48,57,64,96,120,128,247",
                  "dataword lengths (comma-separated)");
    cli.addOption("codes-per-k", "3", "random ECC functions per length");
    cli.addOption("seed", "4", "RNG seed");
    cli.addOption("json", "",
                  "emit machine-readable results to this path");
    cli.addFlag("no-symmetry-breaking",
                "ablation: disable row-order symmetry breaking");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
    cli.parse(argc, argv);

    const auto k_list = parseList(cli.getString("k-list"));
    const auto codes_per_k = (std::size_t)cli.getInt("codes-per-k");
    util::Rng rng(cli.getInt("seed"));

    BeerSolverConfig first_only;
    first_only.maxSolutions = 1;
    first_only.symmetryBreaking = !cli.getBool("no-symmetry-breaking");
    BeerSolverConfig full;
    full.symmetryBreaking = first_only.symmetryBreaking;

    util::Table table({"k", "parity bits", "determine fn (s, median)",
                       "check unique (s, median)", "total (s, median)",
                       "total (s, max)", "memory (MiB, median)",
                       "conflicts (median)"});

    std::ostringstream json_rows;
    bool first_row = true;
    // Every full enumeration must run to completion and contain the
    // generating code (up to equivalence); anything else is a solver
    // bug, whatever the timing says.
    bool all_correct = true;

    for (std::size_t k : k_list) {
        std::vector<double> determine_s;
        std::vector<double> unique_s;
        std::vector<double> total_s;
        std::vector<double> memory_mib;
        std::vector<double> conflicts;

        for (std::size_t i = 0; i < codes_per_k; ++i) {
            const LinearCode code = ecc::randomSecCode(k, rng);
            const auto patterns = chargedPatterns(k, 1);
            const auto profile = exhaustiveProfile(code, patterns);

            // Determine-function phase: first solution only.
            auto start = std::chrono::steady_clock::now();
            const auto first = solveForEccFunction(
                profile, code.numParityBits(), first_only);
            const double t_first = secondsSince(start);

            // Uniqueness check: exhaust the space.
            start = std::chrono::steady_clock::now();
            const auto all = solveForEccFunction(
                profile, code.numParityBits(), full);
            const double t_all = secondsSince(start);

            determine_s.push_back(t_first);
            // The paper reports "check uniqueness" as the exhaustive
            // phase that follows finding the function.
            unique_s.push_back(t_all > t_first ? t_all - t_first : 0.0);
            total_s.push_back(t_first + (t_all > t_first
                                             ? t_all - t_first
                                             : 0.0));
            memory_mib.push_back((double)all.memoryBytes /
                                 (1024.0 * 1024.0));
            conflicts.push_back((double)all.stats.conflicts);
            (void)first;
            bool found = false;
            for (const LinearCode &solution : all.solutions)
                found = found || ecc::equivalent(solution, code);
            if (!all.complete || !found) {
                std::fprintf(stderr,
                             "FAIL: k=%zu code %zu: enumeration %s, "
                             "generating code %s\n",
                             k, i,
                             all.complete ? "complete" : "incomplete",
                             found ? "found" : "missing");
                all_correct = false;
            }
        }

        table.addRowOf(k, ecc::parityBitsForDataBits(k),
                       util::Table::sci(util::median(determine_s)),
                       util::Table::sci(util::median(unique_s)),
                       util::Table::sci(util::median(total_s)),
                       util::Table::sci(util::quantile(total_s, 1.0)),
                       util::Table::fixed(util::median(memory_mib), 2),
                       util::Table::fixed(util::median(conflicts), 0));

        json_rows << (first_row ? "" : ",") << "\n    {\"k\": " << k
                  << ", \"parity_bits\": "
                  << ecc::parityBitsForDataBits(k)
                  << ", \"determine_s_median\": "
                  << util::median(determine_s)
                  << ", \"unique_s_median\": " << util::median(unique_s)
                  << ", \"total_s_median\": " << util::median(total_s)
                  << ", \"total_s_max\": "
                  << util::quantile(total_s, 1.0)
                  << ", \"memory_mib_median\": "
                  << util::median(memory_mib)
                  << ", \"conflicts_median\": "
                  << util::median(conflicts) << "}";
        first_row = false;
    }

    std::printf("Figure 6: BEER solver performance "
                "(1-CHARGED profiles, %zu codes per k)\n",
                codes_per_k);
    if (cli.getBool("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    const std::string json_path = cli.getString("json");
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (out) {
            out << "{\n  \"bench\": \"fig6_solver_performance\",\n"
                << "  \"codes_per_k\": " << codes_per_k << ",\n"
                << "  \"symmetry_breaking\": "
                << (first_only.symmetryBreaking ? "true" : "false")
                << ",\n  \"rows\": [" << json_rows.str()
                << "\n  ]\n}\n";
            std::fprintf(stderr, "wrote %s\n", json_path.c_str());
        } else {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        }
    }
    return all_correct ? 0 : 1;
}
