/**
 * @file
 * Monte-Carlo simulation engine throughput: the 64-lane u64x1 engine
 * vs the selected SIMD backend vs that backend + threads, on the
 * Figure 3 retention-profile workload (1-CHARGED patterns of a random
 * SEC code, charged-cell BER in the paper's measured range) — plus the
 * end-to-end chip workload (fill + refresh-pause injection + profile
 * read) that exercises the transposed cell store.
 *
 * The paper simulates on the order of 1e9 ECC words per data point
 * (Sections 5.1.3 and 6); this bench tracks how fast the engine chews
 * through that workload and guards the engine's contracts:
 *
 *  - on hosts with native wide kernels, the SIMD backends must beat
 *    the 64-lane u64x1 engine (--min-simd-speedup, applied only when
 *    the selected backend runs natively — the portable fallbacks
 *    promise correctness, not speed);
 *  - results must be bit-identical for every thread count AND every
 *    SIMD backend, for the word simulator and for the chip (always
 *    enforced with a fixed seed; nonzero exit on mismatch). The chip
 *    reference is the u64x1, single-thread chip with skip-sampled
 *    injection.
 *
 * The bench also measures the iid-injection crossover: the BER above
 * which whole Bernoulli lane masks (InjectionMode::BernoulliMask)
 * beat geometric skip-sampling, reported as injection_crossover_ber
 * in the JSON (the source for dram::kInjectionCrossoverBer).
 *
 * The measured backend follows --backend, then BEER_SIMD, then CPUID,
 * so CI can sweep all widths by re-running one binary. With --json
 * the measurements (including backend name and lane count) are
 * emitted machine-readably, one BENCH_sim_throughput.<backend>.json
 * per forced backend.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "dram/chip.hh"
#include "ecc/hamming.hh"
#include "sim/engine.hh"
#include "sim/stats_reduce.hh"
#include "sim/word_sim.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/simd.hh"

using namespace beer;
using dram::ChipConfig;
using dram::InjectionMode;
using dram::SimulatedChip;
using ecc::LinearCode;
using gf2::BitVec;
using sim::SimConfig;
using sim::WordSimStats;
using util::Rng;
using util::simd::Backend;

namespace
{

/** Wall seconds for one full pattern sweep under @p config. */
double
sweepSeconds(const LinearCode &code,
             const std::vector<TestPattern> &patterns, double ber,
             std::uint64_t words_per_pattern, std::uint64_t seed,
             const SimConfig &config)
{
    Rng rng(seed);
    const auto start = std::chrono::steady_clock::now();
    const ProfileCounts counts = measureProfileSim(
        code, patterns, ber, words_per_pattern, rng, config);
    const auto stop = std::chrono::steady_clock::now();
    // Keep the result alive so the work cannot be optimized away.
    if (counts.totalObservations() !=
        words_per_pattern * patterns.size())
        util::fatal("sim_throughput: word count mismatch");
    return std::chrono::duration<double>(stop - start).count();
}

/** Vendor-A-style chip sized to @p chip_words for the e2e workload. */
ChipConfig
e2eChipConfig(std::size_t k, std::size_t chip_words,
              std::uint64_t seed)
{
    ChipConfig config = dram::makeVendorConfig('A', k, seed);
    // Two words per row in the vendor geometry.
    config.map.rows = std::max<std::size_t>(1, chip_words / 2);
    config.iidErrors = true;
    return config;
}

/**
 * One end-to-end measurement: program every word with the 1-CHARGED
 * patterns, pause refresh at the requested BER's window, read every
 * word back through the on-die decoder, and count per-bit errors —
 * measureProfile on a simulated chip.
 * Returns the counts (for identity checks) and the wall seconds.
 */
ProfileCounts
chipSweep(const ChipConfig &chip_config,
          const std::vector<TestPattern> &patterns, double ber,
          std::size_t passes, double *seconds_out)
{
    SimulatedChip chip(chip_config);
    const double pause =
        chip.retentionModel().pauseForBitErrorRate(ber, 80.0);
    MeasureConfig measure;
    measure.pausesSeconds.assign(1, pause);
    measure.repeatsPerPause = passes;
    const auto start = std::chrono::steady_clock::now();
    ProfileCounts counts = measureProfile(chip, patterns, measure);
    const auto stop = std::chrono::steady_clock::now();
    if (seconds_out)
        *seconds_out =
            std::chrono::duration<double>(stop - start).count();
    if (counts.totalObservations() !=
        (std::uint64_t)chip.numWords() * patterns.size() * passes)
        util::fatal("sim_throughput: chip word count mismatch");
    return counts;
}

bool
countsEqual(const ProfileCounts &a, const ProfileCounts &b)
{
    return a.k == b.k && a.patterns == b.patterns &&
           a.errorCounts == b.errorCounts &&
           a.wordsTested == b.wordsTested;
}

/**
 * Seconds for @p reps fill+pause cycles at @p ber under @p mode; the
 * fill restores the CHARGED population so every pause injects at the
 * same rate.
 */
double
injectionSeconds(const ChipConfig &base, InjectionMode mode,
                 double ber, std::size_t reps, const BitVec &data)
{
    ChipConfig config = base;
    config.injection = mode;
    SimulatedChip chip(config);
    const double pause =
        chip.retentionModel().pauseForBitErrorRate(ber, 80.0);
    std::vector<std::size_t> words(chip.numWords());
    for (std::size_t w = 0; w < words.size(); ++w)
        words[w] = w;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
        chip.writeDatawordsBroadcast(words.data(), words.size(), data);
        chip.pauseRefresh(pause, 80.0);
    }
    const auto stop = std::chrono::steady_clock::now();
    if (chip.rawErrorCount() == 0 && ber > 1e-4)
        util::warn("injection sweep at ber=%g injected nothing", ber);
    return std::chrono::duration<double>(stop - start).count();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Simulation engine throughput on the Figure 3 "
                  "retention-profile workload: u64x1 vs the SIMD "
                  "backend vs the SIMD backend + threads");
    cli.addOption("k", "32", "dataword length in bits");
    cli.addOption("ber", "0.1", "charged-cell raw bit error rate");
    cli.addOption("words", "100000", "simulated words per pattern");
    cli.addOption("threads", "0",
                  "threads for the threaded run (0 = all hardware "
                  "threads)");
    cli.addOption("backend", "auto",
                  "SIMD backend to measure (auto | u64x1 | u64x4 | "
                  "u64x8); auto honors BEER_SIMD, then CPUID");
    cli.addOption("seed", "1", "RNG seed");
    cli.addOption("min-simd-speedup", "0",
                  "fail (exit 1) if a natively-run wide backend "
                  "beats the u64x1 engine by less than this factor "
                  "(0 = report only; never applied to portable "
                  "fallbacks)");
    cli.addOption("chip-words", "16384",
                  "ECC words in the end-to-end chip workload");
    cli.addOption("e2e-passes", "1",
                  "read passes per pattern in the chip workload");
    cli.addOption("json", "",
                  "emit machine-readable results to this path");
    cli.parse(argc, argv);

    const auto k = (std::size_t)cli.getInt("k");
    const double ber = cli.getDouble("ber");
    const auto words = (std::uint64_t)cli.getInt("words");
    const auto seed = (std::uint64_t)cli.getInt("seed");
    std::size_t threads = (std::size_t)cli.getInt("threads");
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());

    const auto backend_opt =
        util::simd::parseBackend(cli.getString("backend"));
    if (!backend_opt)
        util::fatal("unknown --backend '%s'",
                    cli.getString("backend").c_str());
    // Resolve what we actually measure (flag, then BEER_SIMD, then
    // CPUID) so the report names the kernel, not the request.
    const sim::EngineKernel &kernel = sim::engineKernel(*backend_opt);

    Rng code_rng(seed);
    const LinearCode code = ecc::randomSecCode(k, code_rng);
    const auto patterns = chargedPatterns(k, 1);
    const std::uint64_t total_words = words * patterns.size();

    SimConfig u64x1_config;
    u64x1_config.simdBackend = Backend::U64x1;

    SimConfig simd_config;
    simd_config.simdBackend = kernel.backend;

    SimConfig threaded_config;
    threaded_config.simdBackend = kernel.backend;
    threaded_config.threads = threads;

    std::printf("sim_throughput: k=%zu, BER=%g, %zu patterns x %llu "
                "words (fig-3 retention workload), backend %s\n",
                k, ber, patterns.size(), (unsigned long long)words,
                kernel.name);

    const double u64x1_s = sweepSeconds(code, patterns, ber, words,
                                        seed, u64x1_config);
    const double simd_s =
        kernel.words == 1
            ? u64x1_s
            : sweepSeconds(code, patterns, ber, words, seed,
                           simd_config);
    const double threaded_s = sweepSeconds(code, patterns, ber, words,
                                           seed, threaded_config);

    const double u64x1_wps = (double)total_words / u64x1_s;
    const double simd_wps = (double)total_words / simd_s;
    const double threaded_wps = (double)total_words / threaded_s;
    const double simd_speedup = simd_wps / u64x1_wps;
    const double thread_speedup = threaded_wps / simd_wps;

    // Identity contracts: fixed-seed stats must be identical at 1 vs
    // 8 threads (exercises multi-shard merging) and across every
    // SIMD backend (u64x1 vs u64x4 vs u64x8, native or portable).
    bool deterministic = true;
    bool backend_identical = true;
    {
        const BitVec data =
            datawordForPattern(patterns[0], k, dram::CellType::True);
        const BitVec codeword = code.encode(data);
        const BitVec mask =
            sim::chargedMask(codeword, dram::CellType::True);
        auto run = [&](std::size_t run_threads, Backend run_backend) {
            SimConfig config;
            config.threads = run_threads;
            config.simdBackend = run_backend;
            config.wordsPerShard = 1 << 12;
            Rng rng(seed ^ 0xd373);
            return sim::simulateRetentionErrors(
                code, codeword, mask, ber, 100000, rng, config);
        };
        const WordSimStats reference = run(1, Backend::U64x1);
        deterministic = reference == run(8, Backend::U64x1);
        for (Backend b :
             {Backend::U64x2, Backend::U64x4, Backend::U64x8})
            backend_identical =
                backend_identical && reference == run(1, b);
    }

    // ---- end-to-end chip workload (fill + injection + decode) ------
    // The externally visible experiment on the wide kernels (and, at
    // this BER, Bernoulli-mask injection).
    const auto chip_words = (std::size_t)cli.getInt("chip-words");
    const auto e2e_passes = (std::size_t)cli.getInt("e2e-passes");
    ChipConfig e2e_config = e2eChipConfig(k, chip_words, seed);
    e2e_config.simdBackend = kernel.backend;
    const std::uint64_t e2e_total =
        (std::uint64_t)chip_words * patterns.size() * e2e_passes;
    double chip_s = 0.0;
    chipSweep(e2e_config, patterns, ber, e2e_passes, &chip_s);
    const double e2e_wps = (double)e2e_total / chip_s;

    // Chip identity contracts: under each injection mode the chip
    // must reproduce its u64x1, single-thread counts bit for bit for
    // every SIMD backend and thread count. (Skip-sampling is pinned
    // against the one-BitVec-per-word reference model by
    // tests/test_transposed_chip.cc.)
    bool chip_identical = true;
    {
        ChipConfig small = e2eChipConfig(k, 2048, seed ^ 0xe2e);
        const auto check_patterns = chargedPatterns(k, 1);
        auto run = [&](InjectionMode injection, Backend chip_backend,
                       std::size_t chip_threads) {
            ChipConfig config = small;
            config.injection = injection;
            config.simdBackend = chip_backend;
            config.threads = chip_threads;
            return chipSweep(config, check_patterns, ber, 1, nullptr);
        };
        for (const InjectionMode injection :
             {InjectionMode::SkipSample, InjectionMode::BernoulliMask}) {
            const ProfileCounts ref = run(injection, Backend::U64x1, 1);
            for (Backend b :
                 {Backend::U64x1, Backend::U64x2, Backend::U64x4,
                  Backend::U64x8})
                for (std::size_t t : {1u, 8u})
                    chip_identical =
                        chip_identical &&
                        countsEqual(ref, run(injection, b, t));
        }
    }

    // ---- injection crossover (skip-sampling vs Bernoulli masks) ----
    double crossover_ber = -1.0;
    std::vector<std::pair<double, double>> injection_grid;
    {
        const ChipConfig inject_base = e2eChipConfig(k, 4096, seed);
        // Every data bit CHARGED so each cell is a decay candidate.
        TestPattern all_bits(k);
        for (std::size_t i = 0; i < k; ++i)
            all_bits[i] = i;
        const BitVec all_charged = datawordForPattern(
            all_bits, k, dram::CellType::True);
        for (const double grid_ber :
             {1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3}) {
            const std::size_t reps = 4;
            const double skip_s =
                injectionSeconds(inject_base, InjectionMode::SkipSample,
                                 grid_ber, reps, all_charged);
            const double bern_s = injectionSeconds(
                inject_base, InjectionMode::BernoulliMask, grid_ber,
                reps, all_charged);
            injection_grid.emplace_back(grid_ber, skip_s / bern_s);
            if (crossover_ber < 0.0 && bern_s < skip_s)
                crossover_ber = grid_ber;
        }
    }

    const double min_simd = cli.getDouble("min-simd-speedup");
    // Portable fallbacks promise identical stats, not speed: gate the
    // SIMD ratio only when the measured kernel is a native wide one.
    const bool simd_fast_enough =
        min_simd <= 0.0 || kernel.words == 1 || !kernel.native ||
        simd_speedup >= min_simd;

    std::printf("  u64x1 (1 thread):           %12.0f words/sec\n",
                u64x1_wps);
    std::printf("  %-14s (1 thread):  %12.0f words/sec  "
                "(%.2fx vs u64x1)\n",
                kernel.name, simd_wps, simd_speedup);
    std::printf("  %-14s (%2zu threads): %11.0f words/sec  "
                "(%.2fx vs 1 thread)\n",
                kernel.name, threads, threaded_wps, thread_speedup);
    std::printf("  deterministic across thread counts: %s\n",
                deterministic ? "yes" : "NO (BUG)");
    std::printf("  stats identical across SIMD backends: %s\n",
                backend_identical ? "yes" : "NO (BUG)");
    std::printf("end-to-end chip workload (%zu words, fill + inject + "
                "read):\n",
                chip_words);
    std::printf("  chip (%s): %12.0f words/sec\n", kernel.name,
                e2e_wps);
    std::printf("  chip stats identical (backend x threads x "
                "injection): %s\n",
                chip_identical ? "yes" : "NO (BUG)");
    std::printf("  injection crossover (Bernoulli masks beat "
                "skip-sampling): %s\n",
                crossover_ber >= 0.0
                    ? ("ber >= " + std::to_string(crossover_ber))
                          .c_str()
                    : "not reached");
    if (!simd_fast_enough)
        std::printf("  REGRESSION: SIMD speedup %.2fx (%s) is below "
                    "the required %.2fx\n",
                    simd_speedup, kernel.name, min_simd);

    const std::string json_path = cli.getString("json");
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            util::fatal("cannot open '%s' for writing",
                        json_path.c_str());
        out << "{\n"
            << "  \"workload\": {\"k\": " << k << ", \"ber\": " << ber
            << ", \"patterns\": " << patterns.size()
            << ", \"words_per_pattern\": " << words
            << ", \"total_words\": " << total_words << "},\n"
            << "  \"backend\": \"" << kernel.name << "\",\n"
            << "  \"lanes\": " << kernel.lanes << ",\n"
            << "  \"native\": " << (kernel.native ? "true" : "false")
            << ",\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"u64x1_words_per_sec\": " << u64x1_wps << ",\n"
            << "  \"bitsliced_words_per_sec\": " << simd_wps << ",\n"
            << "  \"threaded_words_per_sec\": " << threaded_wps
            << ",\n"
            << "  \"simd_speedup\": " << simd_speedup << ",\n"
            << "  \"thread_speedup\": " << thread_speedup << ",\n"
            << "  \"deterministic_across_threads\": "
            << (deterministic ? "true" : "false") << ",\n"
            << "  \"identical_across_backends\": "
            << (backend_identical ? "true" : "false") << ",\n"
            << "  \"e2e\": {\"chip_words\": " << chip_words
            << ", \"passes\": " << e2e_passes
            << ", \"transposed_words_per_sec\": " << e2e_wps
            << ", \"chip_stats_identical\": "
            << (chip_identical ? "true" : "false") << "},\n"
            << "  \"injection_crossover_ber\": " << crossover_ber
            << ",\n"
            << "  \"injection_grid\": [";
        for (std::size_t i = 0; i < injection_grid.size(); ++i) {
            if (i)
                out << ", ";
            out << "{\"ber\": " << injection_grid[i].first
                << ", \"skip_over_bernoulli\": "
                << injection_grid[i].second << "}";
        }
        out << "]\n"
            << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }

    return deterministic && backend_identical && chip_identical &&
                   simd_fast_enough
               ? 0
               : 1;
}
