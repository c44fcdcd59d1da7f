/**
 * @file
 * Generate a miscorrection profile for a random (or canonical) SEC
 * Hamming code, in the beer_solve file format. Useful for testing
 * beer_solve pipelines end-to-end and for producing reference
 * profiles:
 *
 *     beer_profile_gen --k 16 --seed 7 | beer_solve
 *
 * With --trace-out, the tool instead simulates a vendor-style chip
 * with the secret code and records the raw measurement operation
 * stream (dram/trace.hh format), exercising the trace-replay path:
 *
 *     beer_profile_gen --k 16 --seed 7 --vendor A --trace-out m.trace
 *     beer_solve --trace m.trace
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "beer/measure.hh"
#include "beer/profile.hh"
#include "dram/chip.hh"
#include "ecc/hamming.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/signal.hh"

using namespace beer;

int
main(int argc, char **argv)
{
    util::Cli cli("Generate a ground-truth miscorrection profile for a "
                  "SEC Hamming code (beer_solve input format)");
    cli.addOption("k", "16", "dataword length in bits");
    cli.addOption("charged", "1,2",
                  "x-CHARGED pattern classes (comma-separated)");
    cli.addOption("seed", "1", "RNG seed (0 = canonical code)");
    cli.addOption("trace-out", "",
                  "record a simulated measurement trace to this file "
                  "instead of printing an exhaustive profile");
    cli.addOption("vendor", "A",
                  "simulated chip style for --trace-out (A, B, or C)");
    cli.addOption("rows", "64", "simulated chip rows for --trace-out");
    cli.addOption("repeats", "25",
                  "repeats per refresh pause for --trace-out");
    cli.addOption("threads", "1",
                  "chip retention-injection threads for --trace-out "
                  "(0 = all hardware threads); traces are identical "
                  "for every value");
    cli.addFlag("print-code", "also print H to stderr");
    cli.parse(argc, argv);

    // Trace recording sweeps many pause/repeat rounds; let Ctrl-C end
    // it at a pattern boundary with the rounds measured so far.
    util::installShutdownHandler();

    const auto k = (std::size_t)cli.getInt("k");
    const auto seed = (std::uint64_t)cli.getInt("seed");

    std::vector<std::size_t> charged_counts;
    {
        std::string text = cli.getString("charged");
        std::size_t pos = 0;
        while (pos < text.size()) {
            std::size_t next = text.find(',', pos);
            if (next == std::string::npos)
                next = text.size();
            charged_counts.push_back((std::size_t)std::stoul(
                text.substr(pos, next - pos)));
            pos = next + 1;
        }
    }

    ecc::LinearCode code = [&] {
        if (seed == 0)
            return ecc::canonicalSecCode(k);
        util::Rng rng(seed);
        return ecc::randomSecCode(k, rng);
    }();

    if (cli.getBool("print-code"))
        std::fprintf(stderr, "H = [P | I]:\n%s", code.toString().c_str());

    const auto patterns = chargedPatternUnion(k, charged_counts);

    const std::string trace_path = cli.getString("trace-out");
    if (!trace_path.empty()) {
        const char vendor = cli.getString("vendor").at(0);
        dram::ChipConfig config =
            dram::makeVendorConfig(vendor, k, seed ? seed : 1);
        config.code = code; // keep the secret chosen above
        config.map.rows = (std::size_t)cli.getInt("rows");
        config.iidErrors = true;
        config.threads = (std::size_t)cli.getInt("threads");
        dram::SimulatedChip chip(config);

        MeasureConfig measure;
        for (double ber : {0.05, 0.15, 0.3})
            measure.pausesSeconds.push_back(
                chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
        measure.repeatsPerPause = (std::size_t)cli.getInt("repeats");
        measure.thresholdProbability = 1e-4;

        std::ofstream out(trace_path,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            util::fatal("cannot open trace file '%s' for writing",
                        trace_path.c_str());
        const ProfileCounts counts = recordProfileTrace(
            chip, patterns, measure, dram::trueCellWords(chip), out);
        std::fprintf(stderr,
                     "recorded %llu observations over %zu patterns "
                     "to %s (v2)\n",
                     (unsigned long long)counts.totalObservations(),
                     patterns.size(), trace_path.c_str());
        return 0;
    }

    const auto profile = exhaustiveProfile(code, patterns);
    std::cout << serializeProfile(profile);
    return 0;
}
