/**
 * @file
 * Recovery-service throughput bench: quantifies what the fingerprint
 * cache buys a fleet that keeps re-testing chips with the same on-die
 * ECC function, and checks every answer.
 *
 * Three rounds against one in-process svc::RecoveryService:
 *
 *  1. cold      — every profile is new: full SAT solve per job;
 *  2. exact     — the same profiles again: cache hits, zero SAT
 *                 solves;
 *  3. truncated — each profile minus its last two patterns (a sibling
 *                 chip with less measurement coverage): a different
 *                 profile, so a cache miss and a cold solve.
 *
 * Every job must succeed with a unique function equivalent to the
 * code that generated its profile; the bench exits 1 otherwise.
 * Emits an aligned table, or JSON with --json for CI trend tracking
 * (the truncated round keeps the historical "near_*" keys).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "svc/service.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace beer;

namespace
{

/**
 * Submit every profile, drain, and check each job's answer against
 * @p codes (same order). Failures are reported on stderr and counted
 * into @p wrong.
 *
 * @return wall-clock seconds from the first submission to the drain
 */
double
submitAll(svc::RecoveryService &service,
          const std::vector<MiscorrectionProfile> &profiles,
          const std::vector<ecc::LinearCode> &codes, const char *round,
          std::size_t &wrong)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<svc::JobId> ids;
    for (const MiscorrectionProfile &profile : profiles) {
        const svc::SubmitOutcome outcome = service.submitProfile(profile);
        if (!outcome.accepted)
            util::fatal("bench submission rejected: %s",
                        outcome.error.c_str());
        ids.push_back(outcome.id);
    }
    service.drain();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::optional<svc::JobStatus> status = service.job(ids[i]);
        if (status && status->state == svc::JobState::Done &&
            status->succeeded && status->solutions == 1 &&
            status->complete && status->code &&
            ecc::equivalent(*status->code, codes[i]))
            continue;
        ++wrong;
        std::fprintf(stderr,
                     "service_throughput: %s job %zu: wrong answer "
                     "(%s)\n",
                     round, i,
                     !status ? "no status"
                     : !status->error.empty()
                         ? status->error.c_str()
                         : svc::jobErrorCodeName(status->errorCode));
    }
    return seconds;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    util::Cli cli("Recovery-service throughput: SAT solve vs "
                  "fingerprint-cache hit latency, every answer checked");
    cli.addOption("k", "16", "dataword length in bits");
    cli.addOption("chips", "8", "distinct ECC functions to recover");
    cli.addOption("threads", "0",
                  "service worker threads (0 = hardware concurrency)");
    cli.addOption("seed", "1", "RNG seed");
    cli.addFlag("json", "emit JSON instead of a table");
    cli.parse(argc, argv);

    const auto k = (std::size_t)cli.getInt("k");
    const auto chips = (std::size_t)cli.getInt("chips");
    util::Rng rng((std::uint64_t)cli.getInt("seed"));

    const auto patterns = chargedPatternUnion(k, {1, 2});
    std::vector<ecc::LinearCode> codes;
    std::vector<MiscorrectionProfile> profiles;
    std::vector<MiscorrectionProfile> truncated;
    for (std::size_t i = 0; i < chips; ++i) {
        codes.push_back(ecc::randomSecCode(k, rng));
        profiles.push_back(exhaustiveProfile(codes.back(), patterns));
        MiscorrectionProfile partial = profiles.back();
        partial.patterns.resize(partial.patterns.size() - 2);
        truncated.push_back(std::move(partial));
    }

    svc::ServiceConfig config;
    config.threads = (std::size_t)cli.getInt("threads");
    svc::RecoveryService service(config);

    std::size_t wrong = 0;
    const double cold_s =
        submitAll(service, profiles, codes, "cold", wrong);
    const std::uint64_t cold_solves = service.health().satSolves;

    const double exact_s =
        submitAll(service, profiles, codes, "exact", wrong);
    const std::uint64_t exact_solves =
        service.health().satSolves - cold_solves;

    const double truncated_s =
        submitAll(service, truncated, codes, "truncated", wrong);
    const svc::HealthReport health = service.health();
    const std::uint64_t truncated_solves =
        health.satSolves - cold_solves - exact_solves;

    const double cold_ms = 1e3 * cold_s / (double)chips;
    const double exact_ms = 1e3 * exact_s / (double)chips;
    const double truncated_ms = 1e3 * truncated_s / (double)chips;

    if (cli.getBool("json")) {
        std::printf(
            "{\n"
            "  \"k\": %zu,\n"
            "  \"chips\": %zu,\n"
            "  \"patterns\": %zu,\n"
            "  \"cold_ms_per_job\": %.3f,\n"
            "  \"exact_hit_ms_per_job\": %.3f,\n"
            "  \"near_hit_ms_per_job\": %.3f,\n"
            "  \"exact_speedup\": %.1f,\n"
            "  \"cold_sat_solves\": %llu,\n"
            "  \"exact_sat_solves\": %llu,\n"
            "  \"truncated_sat_solves\": %llu,\n"
            "  \"exact_hits\": %llu,\n"
            "  \"near_hits\": %llu,\n"
            "  \"wrong_answers\": %zu\n"
            "}\n",
            k, chips, patterns.size(), cold_ms, exact_ms, truncated_ms,
            exact_ms > 0.0 ? cold_ms / exact_ms : 0.0,
            (unsigned long long)cold_solves,
            (unsigned long long)exact_solves,
            (unsigned long long)truncated_solves,
            (unsigned long long)health.cache.exactHits,
            (unsigned long long)health.cache.nearHits, wrong);
    } else {
        std::printf("recovery-service throughput: k=%zu, %zu chips, %zu "
                    "patterns/profile\n",
                    k, chips, patterns.size());
        std::printf("  %-26s %10.3f ms/job  (%llu SAT solves)\n",
                    "cold solve", cold_ms,
                    (unsigned long long)cold_solves);
        std::printf("  %-26s %10.3f ms/job  (%llu SAT solves, %llu "
                    "exact hits)\n",
                    "exact cache hit", exact_ms,
                    (unsigned long long)exact_solves,
                    (unsigned long long)health.cache.exactHits);
        std::printf("  %-26s %10.3f ms/job  (%llu SAT solves)\n",
                    "truncated sibling (cold)", truncated_ms,
                    (unsigned long long)truncated_solves);
        if (exact_ms > 0.0)
            std::printf("  exact-hit speedup: %.1fx\n",
                        cold_ms / exact_ms);
        std::printf("  wrong answers: %zu of %zu jobs\n", wrong,
                    3 * chips);
    }
    return wrong == 0 ? 0 : 1;
}
