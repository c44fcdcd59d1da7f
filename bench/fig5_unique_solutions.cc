/**
 * @file
 * Reproduces paper Figure 5: the number of candidate ECC functions
 * that match miscorrection profiles generated with different test
 * pattern classes (1-, 2-, 3-, and {1,2}-CHARGED), swept over the
 * dataword length.
 *
 * Shape to reproduce (Section 6.1):
 *  - {1,2}-CHARGED always identifies a unique function;
 *  - 1-CHARGED alone is unique for full-length codes
 *    (k = 4, 11, 26, 57, 120, ...) and for most, but not all,
 *    shortened codes;
 *  - individual 2-/3-CHARGED classes can also be ambiguous.
 *
 * Profiles are exhaustive (infinite-sample), matching what the paper's
 * Monte-Carlo profiles converge to; tests/test_measure.cc verifies the
 * convergence. Exits nonzero when any row's always-contains-truth
 * column says NO.
 */

#include <cstdio>
#include <iostream>
#include <sstream>
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

struct ConfigSpec
{
    std::string name;
    std::vector<std::size_t> chargedCounts;
    std::size_t maxK; // constraint sets grow fast; cap per class
};

std::vector<std::size_t>
parseList(const std::string &text)
{
    std::vector<std::size_t> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back((std::size_t)std::stoul(item));
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Paper Figure 5: number of ECC functions matching "
                  "profiles from different test-pattern classes");
    cli.addOption("k-list", "4,5,6,7,8,10,11,12,14,16,20,26",
                  "dataword lengths to sweep (comma-separated)");
    cli.addOption("codes-per-k", "5", "random ECC functions per length");
    cli.addOption("max-k-2charged", "26",
                  "largest k for 2-CHARGED-based configs");
    cli.addOption("max-k-3charged", "12",
                  "largest k for the 3-CHARGED config");
    cli.addOption("seed", "3", "RNG seed");
    cli.addFlag("no-symmetry-breaking",
                "ablation: disable row-order symmetry breaking");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
    cli.parse(argc, argv);

    const auto k_list = parseList(cli.getString("k-list"));
    const auto codes_per_k = (std::size_t)cli.getInt("codes-per-k");
    const auto max_k2 = (std::size_t)cli.getInt("max-k-2charged");
    const auto max_k3 = (std::size_t)cli.getInt("max-k-3charged");
    util::Rng rng(cli.getInt("seed"));

    BeerSolverConfig solver_config;
    solver_config.symmetryBreaking =
        !cli.getBool("no-symmetry-breaking");

    const std::vector<ConfigSpec> specs = {
        {"1-CHARGED", {1}, SIZE_MAX},
        {"2-CHARGED", {2}, max_k2},
        {"3-CHARGED", {3}, max_k3},
        {"{1,2}-CHARGED", {1, 2}, max_k2},
    };

    util::Table table({"k", "full-length?", "pattern set", "min", "median",
                       "max", "always-contains-truth"});

    bool all_found = true;
    for (std::size_t k : k_list) {
        std::vector<LinearCode> codes;
        for (std::size_t i = 0; i < codes_per_k; ++i)
            codes.push_back(ecc::randomSecCode(k, rng));

        for (const auto &spec : specs) {
            if (k > spec.maxK)
                continue;
            std::vector<double> counts;
            bool truth_always_found = true;
            for (const auto &code : codes) {
                const auto patterns =
                    chargedPatternUnion(k, spec.chargedCounts);
                const auto profile = exhaustiveProfile(code, patterns);
                const auto result = solveForEccFunction(
                    profile, code.numParityBits(), solver_config);
                counts.push_back((double)result.solutions.size());
                bool found = false;
                for (const auto &solution : result.solutions)
                    if (ecc::equivalent(solution, code))
                        found = true;
                truth_always_found &= found;
            }
            all_found &= truth_always_found;
            table.addRowOf(
                k, ecc::isFullLengthDatawordLength(k) ? "yes" : "no",
                spec.name, util::quantile(counts, 0.0),
                util::median(counts), util::quantile(counts, 1.0),
                truth_always_found ? "yes" : "NO");
        }
    }

    std::printf("Figure 5: candidate ECC function counts "
                "(%zu random codes per k%s)\n",
                codes_per_k,
                solver_config.symmetryBreaking
                    ? ""
                    : ", symmetry breaking DISABLED");
    if (cli.getBool("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    // A solve that loses the generating code is a solver bug.
    return all_found ? 0 : 1;
}
