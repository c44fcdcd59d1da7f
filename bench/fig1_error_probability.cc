/**
 * @file
 * Reproduces paper Figure 1: relative per-bit post-correction error
 * probability for three different ECC functions of the same type
 * (SEC Hamming, 32 data bits + 6 parity bits), with uniform-random
 * pre-correction errors at RBER 1e-4 and a 0xFF data pattern.
 *
 * The paper simulates 1e9 ECC words per function with EINSim and
 * reports medians with bootstrapped 95% confidence intervals; the
 * skip-sampling word simulator makes the same word count cheap here.
 * The shape to reproduce: the pre-correction distribution is flat,
 * while each ECC function concentrates post-correction errors in its
 * own function-specific bit positions.
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "ecc/hamming.hh"
#include "sim/word_sim.hh"
#include "util/cli.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace beer;
using ecc::LinearCode;
using gf2::BitVec;

int
main(int argc, char **argv)
{
    util::Cli cli("Paper Figure 1: relative post-correction error "
                  "probability per data bit for 3 ECC functions");
    cli.addOption("k", "32", "dataword length in bits");
    cli.addOption("rber", "1e-4", "pre-correction raw bit error rate");
    cli.addOption("words", "1000000000",
                  "ECC words simulated per function");
    cli.addOption("chunks", "50",
                  "independent chunks for bootstrap CIs");
    cli.addOption("functions", "3", "number of ECC functions");
    cli.addOption("seed", "1", "RNG seed");
    cli.addOption("threads", "1",
                  "simulation threads (0 = all hardware threads); "
                  "results are identical for every value");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
    cli.parse(argc, argv);

    const auto k = (std::size_t)cli.getInt("k");
    const double rber = cli.getDouble("rber");
    const auto words = (std::uint64_t)cli.getInt("words");
    const auto chunks = (std::size_t)cli.getInt("chunks");
    const auto functions = (std::size_t)cli.getInt("functions");
    util::Rng rng(cli.getInt("seed"));

    sim::SimConfig sim_config;
    sim_config.threads = (std::size_t)cli.getInt("threads");
    std::optional<util::ThreadPool> pool;
    if (sim_config.threads != 1) {
        pool.emplace(sim_config.threads);
        sim_config.pool = &*pool;
    }

    // 0xFF data pattern.
    const BitVec dataword = BitVec::ones(k);

    std::vector<LinearCode> codes;
    for (std::size_t f = 0; f < functions; ++f)
        codes.push_back(ecc::randomSecCode(k, rng));

    std::printf("Figure 1: k=%zu, RBER=%g, %llu words/function, "
                "0xFF pattern\n",
                k, rber, (unsigned long long)words);

    // Pre-correction distribution (flat by construction): measured
    // from function 0's raw error counters.
    std::vector<std::vector<double>> post_rel(functions);
    std::vector<std::vector<double>> post_lo(functions);
    std::vector<std::vector<double>> post_hi(functions);
    std::vector<double> pre_rel;

    for (std::size_t f = 0; f < functions; ++f) {
        // Run in chunks so bootstrap CIs can be computed per bit.
        std::vector<std::vector<double>> chunk_rel(
            k, std::vector<double>());
        sim::WordSimStats total;
        for (std::size_t c = 0; c < chunks; ++c) {
            const auto stats = sim::simulateUniformErrors(
                codes[f], dataword, rber, words / chunks, rng,
                sim_config);
            std::uint64_t chunk_total = 0;
            for (std::size_t bit = 0; bit < k; ++bit)
                chunk_total += stats.postCorrectionErrors[bit];
            for (std::size_t bit = 0; bit < k; ++bit)
                chunk_rel[bit].push_back(
                    chunk_total
                        ? (double)stats.postCorrectionErrors[bit] /
                              (double)chunk_total
                        : 0.0);
            total.merge(stats);
        }

        post_rel[f].resize(k);
        post_lo[f].resize(k);
        post_hi[f].resize(k);
        for (std::size_t bit = 0; bit < k; ++bit) {
            const auto ci =
                util::bootstrapMedianCi(chunk_rel[bit], rng, 200);
            post_rel[f][bit] = ci.median;
            post_lo[f][bit] = ci.lo;
            post_hi[f][bit] = ci.hi;
        }

        if (f == 0) {
            std::uint64_t raw_total = 0;
            for (std::size_t bit = 0; bit < k; ++bit)
                raw_total += total.preCorrectionErrors[bit];
            pre_rel.resize(k);
            for (std::size_t bit = 0; bit < k; ++bit)
                pre_rel[bit] = raw_total
                                   ? (double)total.preCorrectionErrors
                                             [bit] /
                                         (double)raw_total
                                   : 0.0;
        }
    }

    std::vector<std::string> headers = {"bit", "pre-correction"};
    for (std::size_t f = 0; f < functions; ++f) {
        headers.push_back("post (ECC fn " + std::to_string(f) + ")");
        headers.push_back("fn " + std::to_string(f) + " 95% CI");
    }
    util::Table table(headers);
    for (std::size_t bit = 0; bit < k; ++bit) {
        std::vector<std::string> row;
        row.push_back(std::to_string(bit));
        row.push_back(util::Table::fixed(pre_rel[bit], 4));
        for (std::size_t f = 0; f < functions; ++f) {
            row.push_back(util::Table::fixed(post_rel[f][bit], 4));
            row.push_back("[" + util::Table::fixed(post_lo[f][bit], 4) +
                          ", " + util::Table::fixed(post_hi[f][bit], 4) +
                          "]");
        }
        table.addRow(row);
    }
    if (cli.getBool("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    // Summary: the paper's claim is that post-correction distributions
    // are ECC-function-specific while pre-correction is flat.
    for (std::size_t f = 0; f < functions; ++f) {
        double max_rel = 0.0;
        double nonzero = 0;
        for (std::size_t bit = 0; bit < k; ++bit) {
            max_rel = std::max(max_rel, post_rel[f][bit]);
            nonzero += post_rel[f][bit] > 0.0;
        }
        std::printf("ECC fn %zu: peak relative probability %.4f "
                    "(flat would be %.4f), %g/%zu bits nonzero\n",
                    f, max_rel, 1.0 / (double)k, nonzero, k);
    }
    return 0;
}
