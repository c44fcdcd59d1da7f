/**
 * @file
 * Fleet-scale BEER recovery service daemon.
 *
 * Runs svc::RecoveryService behind the minimal HTTP/1.1 adapter so a
 * fleet of testing hosts can submit miscorrection profiles and poll
 * for recovered ECC functions without linking against the library:
 *
 *     beer_serve --port 8117 --cache-file /var/lib/beer/fp.cache &
 *     curl -s --data-binary @chip0.profile \
 *         http://127.0.0.1:8117/v1/jobs          # -> {"job_id":1}
 *     curl -s http://127.0.0.1:8117/v1/jobs/1    # poll until "done"
 *     curl -s http://127.0.0.1:8117/health       # observability
 *
 * Every job is answered from the fingerprint cache on an exact
 * profile match (already done when the POST returns) and by a cold
 * SAT solve otherwise.
 *
 * SIGINT/SIGTERM shut down gracefully: the accept loop exits, in-
 * flight jobs drain, and the fingerprint cache is flushed to disk so
 * the next start answers repeat profiles without a SAT solve. A
 * second signal force-kills (util::installShutdownHandler()).
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "svc/io.hh"

#include "svc/http.hh"
#include "svc/service.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/signal.hh"

int
main(int argc, char **argv)
{
    using namespace beer;

    util::Cli cli("Serve ECC recovery over HTTP with a fingerprint "
                  "cache and sharded job scheduler");
    cli.addOption("host", "127.0.0.1", "bind address");
    cli.addOption("port", "8117", "bind port (0 = ephemeral)");
    cli.addOption("threads", "0",
                  "recovery worker threads (0 = hardware "
                  "concurrency)");
    cli.addOption("max-queued", "256",
                  "bounded job queue; beyond it submissions get 429");
    cli.addOption("cache-file", "",
                  "fingerprint cache persistence path (loaded on "
                  "start, flushed on shutdown)");
    cli.addOption("cache-capacity", "256",
                  "max fingerprint cache entries (LRU eviction); "
                  "a profile matching one exactly skips the SAT "
                  "solve, any other profile is solved cold");
    cli.addOption("max-solutions", "16",
                  "per-job solution cap (0 = enumerate all)");
    cli.addFlag("reject-legacy",
                "reject version-1 (version-less) profile payloads "
                "instead of migrating them");
    cli.addOption("journal-file", "",
                  "append-only job journal; unfinished jobs are "
                  "re-submitted under their original ids on restart");
    cli.addOption("retries", "0",
                  "automatic retries for a failed job (exhausting "
                  "them quarantines the job)");
    cli.addOption("retry-backoff", "0",
                  "exponential backoff base between retries, seconds");
    cli.addOption("job-deadline", "0",
                  "seconds a queued job may wait before it is failed "
                  "unrun (0 = forever)");
    cli.addOption("job-start-delay", "0",
                  "test hook: sleep this many seconds at each job "
                  "start (exercises queue deadlines and kill tests)");
    cli.addOption("journal-max-bytes", "262144",
                  "compact the journal (atomic rewrite keeping only "
                  "unfinished jobs) past this size (0 = never)");
    cli.addOption("chaos-seed", "0",
                  "enable deterministic file/socket fault injection "
                  "with this seed (0 = no chaos)");
    cli.addOption("chaos-enospc-after", "0",
                  "chaos: journal/cache writes start failing with "
                  "ENOSPC after this many writes");
    cli.addOption("chaos-enospc-window", "0",
                  "chaos: how many writes the ENOSPC outage lasts");
    cli.addOption("chaos-torn-every", "0",
                  "chaos: every Nth file write is torn (half the "
                  "bytes land, full success reported)");
    cli.addOption("chaos-short-write-rate", "0",
                  "chaos: probability a file write is short");
    cli.addOption("chaos-accept-failures", "0",
                  "chaos: fail the first N accepts with ECONNABORTED "
                  "(accept storm)");
    cli.addOption("chaos-reset-every", "0",
                  "chaos: every Nth HTTP send fails with ECONNRESET");
    cli.parse(argc, argv);

    svc::ServiceConfig config;
    config.threads = (std::size_t)cli.getInt("threads");
    config.maxQueuedJobs = (std::size_t)cli.getInt("max-queued");
    config.cache.path = cli.getString("cache-file");
    config.cache.capacity = (std::size_t)cli.getInt("cache-capacity");
    config.solver.maxSolutions =
        (std::size_t)cli.getInt("max-solutions");
    config.rejectLegacyPayloads = cli.getBool("reject-legacy");
    config.journalPath = cli.getString("journal-file");
    config.jobPolicy.maxRetries = (std::size_t)cli.getInt("retries");
    config.jobPolicy.backoffBaseSeconds =
        cli.getDouble("retry-backoff");
    config.jobPolicy.deadlineSeconds = cli.getDouble("job-deadline");
    const double start_delay = cli.getDouble("job-start-delay");
    if (start_delay > 0.0)
        config.onJobStart = [start_delay](svc::JobId) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(start_delay));
        };
    config.journalMaxBytes =
        (std::size_t)cli.getInt("journal-max-bytes");

    // Chaos injection: the service runs against deliberately faulty
    // file and socket I/O, exercising the same seams the differential
    // tests use — CI's service-chaos smoke drives a real daemon this
    // way and asserts no job is lost or duplicated.
    std::unique_ptr<svc::ChaosFileIo> chaos_file;
    std::unique_ptr<svc::ChaosSocketIo> chaos_socket;
    const std::uint64_t chaos_seed =
        (std::uint64_t)cli.getInt("chaos-seed");
    if (chaos_seed != 0) {
        svc::ChaosFileConfig file_chaos;
        file_chaos.seed = chaos_seed;
        file_chaos.enospcAfterWrites =
            (std::uint64_t)cli.getInt("chaos-enospc-after");
        file_chaos.enospcWindow =
            (std::uint64_t)cli.getInt("chaos-enospc-window");
        file_chaos.tornEveryWrites =
            (std::uint64_t)cli.getInt("chaos-torn-every");
        file_chaos.shortWriteRate =
            cli.getDouble("chaos-short-write-rate");
        chaos_file = std::make_unique<svc::ChaosFileIo>(file_chaos);
        config.fileIo = chaos_file.get();

        svc::ChaosSocketConfig socket_chaos;
        socket_chaos.seed = chaos_seed + 1;
        socket_chaos.acceptFailures =
            (std::uint64_t)cli.getInt("chaos-accept-failures");
        socket_chaos.resetEverySends =
            (std::uint64_t)cli.getInt("chaos-reset-every");
        chaos_socket =
            std::make_unique<svc::ChaosSocketIo>(socket_chaos);
    }

    util::installShutdownHandler();

    svc::RecoveryService service(config);
    svc::HttpConfig http;
    http.host = cli.getString("host");
    http.port = (std::uint16_t)cli.getInt("port");
    http.socketIo = chaos_socket.get();
    svc::HttpServer server(service, http);
    if (!server.start())
        util::fatal("cannot bind %s:%u", http.host.c_str(),
                    (unsigned)http.port);

    const svc::FingerprintCacheStats cache = service.health().cache;
    std::fprintf(stderr,
                 "beer_serve: listening on %s:%u (api v%d, %zu "
                 "cached fingerprints)\n",
                 http.host.c_str(), (unsigned)server.port(),
                 svc::kApiVersion, cache.entries);
    server.serve();

    std::fprintf(stderr,
                 "beer_serve: shutting down (draining jobs, "
                 "syncing journal, flushing cache)...\n");
    // shutdown() drains, fsyncs the journal and flushes the cache
    // exactly once (its stopped-flag exchange guards re-entry); the
    // service destructor's own shutdown() call then no-ops, so there
    // is no double flush to race a second SIGTERM against.
    service.shutdown();
    const svc::HealthReport health = service.health();
    std::fprintf(stderr,
                 "beer_serve: served %llu jobs (%llu SAT solves, "
                 "%llu exact cache hits, %llu retries, %llu "
                 "quarantined, %llu journal replays, %llu journal "
                 "compactions)\n",
                 (unsigned long long)health.scheduler.completed,
                 (unsigned long long)health.satSolves,
                 (unsigned long long)health.cache.exactHits,
                 (unsigned long long)health.retries,
                 (unsigned long long)health.quarantined,
                 (unsigned long long)health.journalReplays,
                 (unsigned long long)health.journal.compactions);
    // A drain that leaves unwell jobs behind is not a clean exit;
    // quarantined (a chip repeatedly failing — needs a human) is
    // distinguished from plain failures so init systems and CI
    // wrappers can route the two differently.
    if (health.jobStates.quarantined) {
        std::fprintf(stderr,
                     "beer_serve: %llu job(s) quarantined\n",
                     (unsigned long long)health.jobStates.quarantined);
        return 2;
    }
    if (health.jobStates.failed) {
        std::fprintf(stderr, "beer_serve: %llu job(s) failed\n",
                     (unsigned long long)health.jobStates.failed);
        return 1;
    }
    return 0;
}
