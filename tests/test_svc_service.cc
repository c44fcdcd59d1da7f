/**
 * @file
 * End-to-end tests for svc::RecoveryService: the service must recover
 * exactly the ECC function the batch beer_solve path recovers, answer
 * repeat submissions from the fingerprint cache with zero SAT solver
 * invocations, run concurrent jobs genuinely in parallel, enforce the
 * payload versioning contract, and list jobs deterministically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "beer/session.hh"
#include "beer/solver.hh"
#include "dram/chip.hh"
#include "dram/trace.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "svc/http.hh"
#include "svc/service.hh"
#include "util/rng.hh"

#include "ref/v1_trace_writer.hh"
#include "temp_path.hh"

using namespace beer;
using beer::ecc::LinearCode;
using beer::ecc::equivalent;
using beer::ecc::randomSecCode;
using beer::svc::CacheOutcome;
using beer::svc::JobState;
using beer::svc::JobStatus;
using beer::svc::RecoveryService;
using beer::svc::ServiceConfig;
using beer::svc::SubmitOptions;
using beer::svc::SubmitOutcome;
using beer::util::Rng;

namespace
{

MiscorrectionProfile
plantedProfile(const LinearCode &code,
               const std::vector<std::size_t> &charged)
{
    return exhaustiveProfile(code,
                             chargedPatternUnion(code.k(), charged));
}

/**
 * Record a small simulated measurement as a v2 trace at @p v2_path and
 * render the same measurement as v1 text at @p v1_path.
 */
void
writeTestTraces(const std::string &v2_path, const std::string &v1_path)
{
    dram::ChipConfig config = dram::makeVendorConfig('A', 8, 71);
    config.map.rows = 32;
    config.iidErrors = true;
    dram::SimulatedChip chip(config);
    MeasureConfig measure;
    for (double ber : {0.1, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = 10;

    std::ostringstream recorded;
    recordProfileTrace(chip, chargedPatterns(8, 1), measure,
                       dram::trueCellWords(chip), recorded);
    std::ofstream(v2_path, std::ios::binary | std::ios::trunc)
        << recorded.str();
    std::ofstream(v1_path, std::ios::binary | std::ios::trunc)
        << test::ref::renderV1Trace(recorded.str());
}

} // anonymous namespace

TEST(SvcService, RecoversSameFunctionAsBatchPath)
{
    Rng rng(21);
    RecoveryService service;
    for (const std::size_t k : {8u, 16u, 32u}) {
        const LinearCode code = randomSecCode(k, rng);
        const std::size_t parity = code.numParityBits();
        const MiscorrectionProfile profile =
            plantedProfile(code, {1, 2});

        // The reference answer from the batch beer_solve path.
        const BeerSolveResult batch =
            solveForEccFunction(profile, parity);
        ASSERT_TRUE(batch.unique()) << "k=" << k;

        const SubmitOutcome outcome = service.submitProfile(profile);
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        ASSERT_TRUE(service.waitForJob(outcome.id));

        const auto job = service.job(outcome.id);
        ASSERT_TRUE(job.has_value());
        EXPECT_EQ(job->state, JobState::Done);
        EXPECT_TRUE(job->succeeded) << "k=" << k;
        EXPECT_EQ(job->solutions, 1u);
        EXPECT_EQ(job->k, k);
        EXPECT_EQ(job->parityBits, parity);
        ASSERT_TRUE(job->code.has_value());
        EXPECT_TRUE(
            equivalent(*job->code, batch.solutions.front()));
        EXPECT_TRUE(equivalent(*job->code, code)) << "k=" << k;
    }
}

TEST(SvcService, RepeatSubmissionIsExactHitWithZeroSolves)
{
    Rng rng(23);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});

    RecoveryService service;
    const SubmitOutcome first = service.submitProfile(profile);
    ASSERT_TRUE(first.accepted);
    ASSERT_TRUE(service.waitForJob(first.id));
    const auto cold = service.job(first.id);
    ASSERT_TRUE(cold && cold->succeeded);
    EXPECT_EQ(cold->cache, CacheOutcome::None);
    const std::uint64_t solves_after_cold = service.health().satSolves;
    EXPECT_EQ(solves_after_cold, 1u);

    const SubmitOutcome second = service.submitProfile(profile);
    ASSERT_TRUE(second.accepted);
    ASSERT_TRUE(service.waitForJob(second.id));
    const auto warm = service.job(second.id);
    ASSERT_TRUE(warm && warm->succeeded);
    EXPECT_EQ(warm->cache, CacheOutcome::Exact);
    ASSERT_TRUE(warm->code.has_value());
    EXPECT_TRUE(*warm->code == *cold->code);

    // The acceptance criterion: the repeat cost zero SAT solves.
    EXPECT_EQ(service.health().satSolves, solves_after_cold);
    EXPECT_EQ(service.health().cache.exactHits, 1u);

    // A sibling chip measured with less coverage (the profile minus
    // its last two patterns) is a different profile: a miss and one
    // cold solve, which must still pin the generating code down.
    MiscorrectionProfile truncated = profile;
    truncated.patterns.resize(truncated.patterns.size() - 2);
    const SubmitOutcome third = service.submitProfile(truncated);
    ASSERT_TRUE(third.accepted);
    ASSERT_TRUE(service.waitForJob(third.id));
    const auto sibling = service.job(third.id);
    ASSERT_TRUE(sibling && sibling->succeeded);
    EXPECT_EQ(sibling->cache, CacheOutcome::None);
    EXPECT_EQ(sibling->solutions, 1u);
    EXPECT_TRUE(sibling->complete);
    ASSERT_TRUE(sibling->code.has_value());
    EXPECT_TRUE(equivalent(*sibling->code, code));
    EXPECT_EQ(service.health().satSolves, solves_after_cold + 1);
}

TEST(SvcService, BypassCacheSkipsLookupButStillSolves)
{
    Rng rng(29);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});

    RecoveryService service;
    SubmitOptions no_cache;
    no_cache.bypassCache = true;

    const SubmitOutcome first = service.submitProfile(profile);
    ASSERT_TRUE(first.accepted);
    ASSERT_TRUE(service.waitForJob(first.id));

    const SubmitOutcome second =
        service.submitProfile(profile, no_cache);
    ASSERT_TRUE(second.accepted);
    ASSERT_TRUE(service.waitForJob(second.id));
    const auto job = service.job(second.id);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->cache, CacheOutcome::None);
    EXPECT_EQ(service.health().satSolves, 2u);
}

TEST(SvcService, ConcurrentJobsProgressSimultaneously)
{
    Rng rng(31);
    const LinearCode code_a = randomSecCode(8, rng);
    const LinearCode code_b = randomSecCode(8, rng);

    // Both jobs must be inside their bodies at once before either may
    // proceed — deterministic proof of parallel progress.
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t started = 0;

    ServiceConfig config;
    config.threads = 2;
    config.onJobStart = [&](svc::JobId) {
        std::unique_lock<std::mutex> lock(mutex);
        ++started;
        cv.notify_all();
        cv.wait(lock, [&] { return started >= 2; });
    };
    RecoveryService service(config);

    const SubmitOutcome a =
        service.submitProfile(plantedProfile(code_a, {1, 2}));
    const SubmitOutcome b =
        service.submitProfile(plantedProfile(code_b, {1, 2}));
    ASSERT_TRUE(a.accepted);
    ASSERT_TRUE(b.accepted);
    service.drain();

    const auto health = service.health();
    EXPECT_GE(health.scheduler.peakConcurrent, 2u);
    EXPECT_EQ(health.scheduler.completed, 2u);
    EXPECT_TRUE(service.job(a.id)->succeeded);
    EXPECT_TRUE(service.job(b.id)->succeeded);
}

TEST(SvcService, ConcurrentExactHitsAgreeWithTheCache)
{
    // Four threads submit at once, each interleaving profiles the
    // cache already holds with profiles it does not. Every hit is
    // answered on its submitting thread; every miss solves cold.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kCached = 4;
    constexpr std::size_t kHitsPerThread = 8;
    constexpr std::size_t kHitsPerMiss = 4;
    constexpr std::size_t kMissesPerThread = kHitsPerThread / kHitsPerMiss;

    Rng rng(37);
    std::vector<MiscorrectionProfile> cached;
    std::vector<MiscorrectionProfile> uncached;
    std::set<std::uint64_t> fingerprints;
    const std::size_t wanted = kCached + kThreads * kMissesPerThread;
    // Bounded: a fingerprint that ignores part of the profile would
    // make every draw collide.
    for (int draw = 0;
         draw < 1000 && cached.size() + uncached.size() < wanted; ++draw) {
        const LinearCode code = randomSecCode(8, rng);
        MiscorrectionProfile profile = plantedProfile(code, {1, 2});
        if (!fingerprints
                 .insert(svc::FingerprintCache::fingerprint(
                     profile, code.numParityBits()))
                 .second)
            continue; // distinct profiles only: a repeat would hit
        (cached.size() < kCached ? cached : uncached)
            .push_back(std::move(profile));
    }
    ASSERT_EQ(cached.size() + uncached.size(), wanted)
        << "1000 random codes gave too few distinct fingerprints";

    ServiceConfig config;
    config.threads = 2;
    RecoveryService service(config);
    std::vector<std::string> stored;
    for (const MiscorrectionProfile &profile : cached) {
        const SubmitOutcome outcome = service.submitProfile(profile);
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        ASSERT_TRUE(service.waitForJob(outcome.id));
        const auto job = service.job(outcome.id);
        ASSERT_TRUE(job && job->succeeded);
        stored.push_back(job->codeString);
    }
    service.drain();
    const std::uint64_t hits_before = service.health().cache.exactHits;

    struct Submitted
    {
        SubmitOutcome outcome;
        /** Index into cached, or -1 for an uncached profile. */
        int cachedIndex = -1;
        /** The job's state when submit returned. */
        JobState stateAtSubmit = JobState::Queued;
    };
    std::vector<std::vector<Submitted>> submitted(kThreads);
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ++ready;
            while (ready.load() < kThreads)
                std::this_thread::yield();
            const auto submit = [&](const MiscorrectionProfile &profile,
                                    int cached_index) {
                Submitted s{service.submitProfile(profile), cached_index};
                if (const auto job = service.job(s.outcome.id))
                    s.stateAtSubmit = job->state;
                submitted[t].push_back(std::move(s));
            };
            for (std::size_t i = 0; i < kHitsPerThread; ++i) {
                const std::size_t index = (t + i) % kCached;
                submit(cached[index], (int)index);
                if (i % kHitsPerMiss == 0)
                    submit(uncached[t * kMissesPerThread +
                                    i / kHitsPerMiss],
                           -1);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    service.drain();

    std::size_t hit_submits = 0;
    for (const auto &per_thread : submitted) {
        ASSERT_EQ(per_thread.size(), kHitsPerThread + kMissesPerThread);
        for (const Submitted &s : per_thread) {
            ASSERT_TRUE(s.outcome.accepted) << s.outcome.error;
            const auto job = service.job(s.outcome.id);
            ASSERT_TRUE(job.has_value());
            EXPECT_EQ(job->state, JobState::Done);
            EXPECT_TRUE(job->succeeded);
            if (s.cachedIndex < 0) {
                EXPECT_EQ(job->cache, CacheOutcome::None);
                continue;
            }
            ++hit_submits;
            EXPECT_EQ(s.stateAtSubmit, JobState::Done);
            EXPECT_EQ(job->cache, CacheOutcome::Exact);
            EXPECT_EQ(job->codeString, stored[s.cachedIndex]);
        }
    }
    EXPECT_EQ(hit_submits, kThreads * kHitsPerThread);
    EXPECT_EQ(service.health().cache.exactHits - hits_before,
              hit_submits);
}

TEST(SvcService, PayloadVersionContract)
{
    Rng rng(37);
    const LinearCode code = randomSecCode(8, rng);
    const std::string payload =
        serializeProfile(plantedProfile(code, {1, 2}));
    ASSERT_NE(payload.find("version 2"), std::string::npos);

    RecoveryService service;

    // Current-version payload: accepted, no migration counted.
    const SubmitOutcome current = service.submitPayload(payload);
    ASSERT_TRUE(current.accepted) << current.error;
    ASSERT_TRUE(service.waitForJob(current.id));
    EXPECT_TRUE(service.job(current.id)->succeeded);
    EXPECT_EQ(service.health().legacyPayloads, 0u);

    // Legacy (version-less v1) payload: migrated and counted.
    std::string legacy = payload;
    const std::size_t pos = legacy.find("version 2\n");
    ASSERT_NE(pos, std::string::npos);
    legacy.erase(pos, std::string("version 2\n").size());
    const SubmitOutcome migrated = service.submitPayload(legacy);
    ASSERT_TRUE(migrated.accepted) << migrated.error;
    ASSERT_TRUE(service.waitForJob(migrated.id));
    EXPECT_TRUE(service.job(migrated.id)->succeeded);
    EXPECT_EQ(service.health().legacyPayloads, 1u);

    // Future version: explicit rejection, service stays alive.
    std::string future = payload;
    future.replace(future.find("version 2"),
                   std::string("version 2").size(), "version 99");
    const SubmitOutcome rejected = service.submitPayload(future);
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reject, SubmitOutcome::Reject::BadPayload);
    EXPECT_NE(rejected.error.find("version"), std::string::npos);
    EXPECT_TRUE(service.health().ok);
}

TEST(SvcService, LegacyPayloadsCanBeRejectedByPolicy)
{
    Rng rng(41);
    const LinearCode code = randomSecCode(8, rng);
    std::string legacy = serializeProfile(plantedProfile(code, {1}));
    const std::size_t pos = legacy.find("version 2\n");
    ASSERT_NE(pos, std::string::npos);
    legacy.erase(pos, std::string("version 2\n").size());

    ServiceConfig config;
    config.rejectLegacyPayloads = true;
    RecoveryService service(config);
    const SubmitOutcome outcome = service.submitPayload(legacy);
    EXPECT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reject, SubmitOutcome::Reject::BadPayload);
    EXPECT_NE(outcome.error.find("legacy"), std::string::npos);
}

TEST(SvcService, MalformedPayloadIsRejectedNotFatal)
{
    RecoveryService service;
    const SubmitOutcome outcome =
        service.submitPayload("this is not a profile");
    EXPECT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reject, SubmitOutcome::Reject::BadPayload);
    EXPECT_FALSE(outcome.error.empty());

    const SubmitOutcome empty = service.submitProfile({});
    EXPECT_FALSE(empty.accepted);
    EXPECT_EQ(empty.reject, SubmitOutcome::Reject::BadPayload);
}

TEST(SvcService, MissingTraceFileIsRejected)
{
    RecoveryService service;
    const SubmitOutcome outcome =
        service.submitTraceFile("/nonexistent/trace.bin");
    EXPECT_FALSE(outcome.accepted);
    EXPECT_EQ(outcome.reject, SubmitOutcome::Reject::BadPayload);
}

TEST(SvcService, RejectsV1TraceAtSubmitAndKeepsServing)
{
    // Only beer_trace_convert reads v1: a v1 file (rendered by the
    // reference writer) or a non-trace file is refused at submission,
    // naming the converter, not by a crashing worker, and the v2 job
    // beside them runs to the recovered function.
    const std::string v1_path = test::tempPath("v1.trace");
    const std::string v2_path = v1_path + "2";
    writeTestTraces(v2_path, v1_path);

    RecoveryService service;
    const SubmitOutcome v1 = service.submitTraceFile(v1_path);
    EXPECT_FALSE(v1.accepted);
    EXPECT_EQ(v1.reject, SubmitOutcome::Reject::BadPayload);
    EXPECT_NE(v1.error.find("beer_trace_convert"), std::string::npos)
        << v1.error;
    const SubmitOutcome v2 = service.submitTraceFile(v2_path);
    ASSERT_TRUE(v2.accepted) << v2.error;
    ASSERT_TRUE(service.waitForJob(v2.id));
    EXPECT_TRUE(service.job(v2.id)->succeeded);
    EXPECT_EQ(service.health().traceV2Jobs, 1u);

    {
        std::ofstream out(v1_path, std::ios::trunc);
        out << "not a trace of either format\n";
    }
    const SubmitOutcome bad = service.submitTraceFile(v1_path);
    EXPECT_FALSE(bad.accepted);
    EXPECT_EQ(bad.reject, SubmitOutcome::Reject::BadPayload);
    EXPECT_NE(bad.error.find("beer_trace_convert"), std::string::npos);
    EXPECT_TRUE(service.health().ok);

    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());
}

TEST(SvcService, ListJobsPaginatesDeterministically)
{
    Rng rng(43);
    const LinearCode code = randomSecCode(6, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});

    RecoveryService service;
    std::vector<svc::JobId> ids;
    for (int i = 0; i < 5; ++i) {
        const SubmitOutcome outcome = service.submitProfile(profile);
        ASSERT_TRUE(outcome.accepted);
        ids.push_back(outcome.id);
    }
    service.drain();

    const auto first = service.listJobs(0, 2);
    const auto second = service.listJobs(2, 2);
    const auto tail = service.listJobs(4, 10);
    EXPECT_EQ(first.total, 5u);
    ASSERT_EQ(first.jobs.size(), 2u);
    ASSERT_EQ(second.jobs.size(), 2u);
    ASSERT_EQ(tail.jobs.size(), 1u);
    EXPECT_EQ(first.jobs[0].id, ids[0]);
    EXPECT_EQ(first.jobs[1].id, ids[1]);
    EXPECT_EQ(second.jobs[0].id, ids[2]);
    EXPECT_EQ(second.jobs[1].id, ids[3]);
    EXPECT_EQ(tail.jobs[0].id, ids[4]);
    for (const JobStatus &job : tail.jobs)
        EXPECT_EQ(job.state, JobState::Done);

    const auto past_end = service.listJobs(10, 5);
    EXPECT_EQ(past_end.total, 5u);
    EXPECT_TRUE(past_end.jobs.empty());
}

TEST(SvcService, ShutdownShedsNewWorkButStaysQueryable)
{
    Rng rng(47);
    const LinearCode code = randomSecCode(6, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});

    RecoveryService service;
    const SubmitOutcome before = service.submitProfile(profile);
    ASSERT_TRUE(before.accepted);
    service.shutdown();

    const SubmitOutcome after = service.submitProfile(profile);
    EXPECT_FALSE(after.accepted);
    EXPECT_EQ(after.reject, SubmitOutcome::Reject::Overloaded);

    // Drained on shutdown: the earlier job finished and still polls.
    const auto job = service.job(before.id);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Done);
    EXPECT_FALSE(service.health().ok);
}

namespace
{

/** The journal's line escaping (see service.cc). */
std::string
journalEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** Frame a journal record exactly as svc::JobJournal does. */
std::string
journalFrame(const std::string &payload)
{
    char crc_hex[9];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x",
                  beer::svc::crc32(payload.data(), payload.size()));
    return std::string(crc_hex) + " " + payload + "\n";
}

} // anonymous namespace

TEST(SvcService, RetryPolicyRecoversFlakyJobs)
{
    Rng rng(53);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});

    ServiceConfig config;
    config.jobPolicy.maxRetries = 2;
    std::atomic<int> starts{0};
    config.onJobStart = [&](svc::JobId) {
        // Fail the first two attempts: the transient-fault scenario
        // retries exist for.
        if (starts.fetch_add(1) < 2)
            throw std::runtime_error("injected transient");
    };
    RecoveryService service(config);

    const SubmitOutcome outcome = service.submitProfile(profile);
    ASSERT_TRUE(outcome.accepted);
    ASSERT_TRUE(service.waitForJob(outcome.id));

    const auto job = service.job(outcome.id);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Done);
    EXPECT_TRUE(job->succeeded);
    EXPECT_EQ(job->attempts, 3u);
    // The winning attempt wiped the earlier attempts' failure state.
    EXPECT_TRUE(job->error.empty());
    EXPECT_EQ(job->errorCode, svc::JobErrorCode::None);
    EXPECT_EQ(service.health().retries, 2u);
    EXPECT_EQ(service.health().quarantined, 0u);
}

TEST(SvcService, PersistentFailureQuarantinesWithTaxonomy)
{
    Rng rng(59);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});

    ServiceConfig config;
    config.jobPolicy.maxRetries = 1;
    config.onJobStart = [](svc::JobId) {
        throw std::runtime_error("injected persistent");
    };
    RecoveryService service(config);

    const SubmitOutcome outcome = service.submitProfile(profile);
    ASSERT_TRUE(outcome.accepted);
    ASSERT_TRUE(service.waitForJob(outcome.id));

    const auto job = service.job(outcome.id);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Quarantined);
    EXPECT_EQ(job->attempts, 2u);
    EXPECT_EQ(job->error, "injected persistent");
    EXPECT_EQ(job->errorCode, svc::JobErrorCode::Internal);
    const auto health = service.health();
    EXPECT_EQ(health.retries, 1u);
    EXPECT_EQ(health.quarantined, 1u);
    EXPECT_EQ(health.jobStates.quarantined, 1u);
}

TEST(SvcService, SolveOutcomesCarryTaxonomyCodes)
{
    Rng rng(61);
    const LinearCode code = randomSecCode(8, rng);
    RecoveryService service;

    // A 1-CHARGED-only profile of a shortened code is ambiguous.
    const SubmitOutcome ambiguous =
        service.submitProfile(plantedProfile(code, {1}));
    ASSERT_TRUE(ambiguous.accepted);

    // A profile claiming a miscorrection the code space cannot
    // produce anywhere is unsatisfiable.
    MiscorrectionProfile contradictory = plantedProfile(code, {1, 2});
    for (PatternProfile &entry : contradictory.patterns)
        for (std::size_t bit = 0; bit < contradictory.k; ++bit)
            if (!patternContains(entry.pattern, bit))
                entry.miscorrectable.set(bit, true);
    const SubmitOutcome unsat =
        service.submitProfile(contradictory);
    ASSERT_TRUE(unsat.accepted);
    service.drain();

    const auto ambiguous_job = service.job(ambiguous.id);
    ASSERT_TRUE(ambiguous_job.has_value());
    EXPECT_EQ(ambiguous_job->state, JobState::Done);
    EXPECT_FALSE(ambiguous_job->succeeded);
    EXPECT_EQ(ambiguous_job->errorCode,
              svc::JobErrorCode::Ambiguous);

    const auto unsat_job = service.job(unsat.id);
    ASSERT_TRUE(unsat_job.has_value());
    EXPECT_EQ(unsat_job->state, JobState::Done);
    EXPECT_FALSE(unsat_job->succeeded);
    EXPECT_EQ(unsat_job->solutions, 0u);
    EXPECT_EQ(unsat_job->errorCode,
              svc::JobErrorCode::Unsatisfiable);
}

TEST(SvcService, JournalRecordsJobLifecycle)
{
    Rng rng(67);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});
    const std::string path = test::tempPath("journal.log");
    std::remove(path.c_str());

    svc::JobId id = 0;
    {
        ServiceConfig config;
        config.journalPath = path;
        RecoveryService service(config);
        const SubmitOutcome outcome = service.submitProfile(profile);
        ASSERT_TRUE(outcome.accepted);
        id = outcome.id;
        service.shutdown();
    }

    // One submit record, one done record, nothing unfinished: a
    // restart over the same journal replays nothing. Every line is
    // CRC-framed, so the verb starts at offset 9 (8 hex + space).
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::size_t submits = 0;
    std::size_t dones = 0;
    std::string line;
    while (std::getline(in, line)) {
        ASSERT_GE(line.size(), 9u) << line;
        const std::string payload = line.substr(9);
        if (payload.rfind("submit " + std::to_string(id) + " ", 0) ==
            0)
            ++submits;
        if (payload == "done " + std::to_string(id))
            ++dones;
    }
    EXPECT_EQ(submits, 1u);
    EXPECT_EQ(dones, 1u);

    ServiceConfig config;
    config.journalPath = path;
    RecoveryService service(config);
    EXPECT_EQ(service.health().journalReplays, 0u);
    std::remove(path.c_str());
}

TEST(SvcService, ChaosFileIoLosesAndDuplicatesNoJobs)
{
    // Differential: a service journaling through recoverable file
    // chaos (EINTR + short writes) must end in exactly the state a
    // clean-I/O service would — every accepted job Done, every
    // lifecycle durable, a restart replaying nothing.
    Rng rng(73);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});
    const std::string path = test::tempPath("journal.log");
    std::remove(path.c_str());

    svc::ChaosFileConfig chaos;
    chaos.seed = 1234;
    chaos.shortWriteRate = 0.3;
    chaos.eintrRate = 0.3;
    svc::ChaosFileIo chaos_io(chaos);

    std::vector<svc::JobId> accepted;
    {
        ServiceConfig config;
        config.journalPath = path;
        config.fileIo = &chaos_io;
        RecoveryService service(config);
        for (int i = 0; i < 8; ++i) {
            const SubmitOutcome outcome =
                service.submitProfile(profile);
            ASSERT_TRUE(outcome.accepted) << outcome.error;
            accepted.push_back(outcome.id);
        }
        service.drain();
        for (const svc::JobId id : accepted) {
            const auto job = service.job(id);
            ASSERT_TRUE(job.has_value());
            EXPECT_EQ(job->state, JobState::Done) << "job " << id;
            EXPECT_TRUE(job->succeeded) << "job " << id;
        }
        const auto health = service.health();
        EXPECT_EQ(health.journal.appendFailures, 0u);
        EXPECT_GT(health.journal.records, 0u);
        service.shutdown();
    }
    // The chaos really fired — this was not a clean run in disguise.
    EXPECT_GT(chaos_io.shortWrites() + chaos_io.eintrFaults(), 0u);

    // Restart over the same journal with clean I/O: nothing replays
    // (no duplicates), nothing is missing (no losses).
    ServiceConfig config;
    config.journalPath = path;
    RecoveryService service(config);
    EXPECT_EQ(service.health().journalReplays, 0u);
    EXPECT_EQ(service.health().journal.tornTail, 0u);
    EXPECT_EQ(service.health().journal.crcSkipped, 0u);
    std::remove(path.c_str());
}

TEST(SvcService, EnospcWindowRejectsSubmissionsInsteadOfLosingThem)
{
    // When the disk fills, un-journalable submissions must be refused
    // up front (the client knows and can retry) — never accepted into
    // a state a crash would silently lose. The second submission is a
    // different chip's profile: a repeat of the first could be an
    // exact cache hit, which needs no journal record and is accepted.
    Rng rng(79);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});
    const MiscorrectionProfile other =
        plantedProfile(randomSecCode(8, rng), {1, 2});
    ASSERT_FALSE(other == profile);
    const std::string path = test::tempPath("journal.log");
    std::remove(path.c_str());

    svc::ChaosFileConfig chaos;
    chaos.seed = 2;
    chaos.enospcAfterWrites = 1;   // first append lands...
    chaos.enospcWindow = 1000000;  // ...then the disk stays full
    svc::ChaosFileIo chaos_io(chaos);

    ServiceConfig config;
    config.journalPath = path;
    config.fileIo = &chaos_io;
    RecoveryService service(config);

    const SubmitOutcome first = service.submitProfile(profile);
    ASSERT_TRUE(first.accepted) << first.error;

    const SubmitOutcome second = service.submitProfile(other);
    EXPECT_FALSE(second.accepted);
    EXPECT_EQ(second.reject, SubmitOutcome::Reject::Overloaded);
    EXPECT_NE(second.error.find("journal"), std::string::npos)
        << second.error;
    EXPECT_GT(chaos_io.enospcFaults(), 0u);

    // The accepted job still runs to completion, and the failure is
    // visible on the health surface.
    service.drain();
    EXPECT_TRUE(service.job(first.id)->succeeded);
    EXPECT_GT(service.health().journal.appendFailures, 0u);

    // With the first answer cached, its repeat is an exact hit: it is
    // accepted even though the disk is still full, and it appends
    // nothing to the journal.
    const std::uint64_t faults = chaos_io.enospcFaults();
    const std::uint64_t failures =
        service.health().journal.appendFailures;
    const SubmitOutcome repeat = service.submitProfile(profile);
    ASSERT_TRUE(repeat.accepted) << repeat.error;
    EXPECT_EQ(service.job(repeat.id)->state, JobState::Done);
    EXPECT_EQ(service.job(repeat.id)->cache, CacheOutcome::Exact);
    EXPECT_EQ(chaos_io.enospcFaults(), faults);
    EXPECT_EQ(service.health().journal.appendFailures, failures);
    service.shutdown();
    std::remove(path.c_str());
}

TEST(SvcService, TornTerminalRecordReplaysJobInsteadOfLosingIt)
{
    // A crash can tear the done-record off the end of the journal.
    // The job's terminal state is then unproven, so a restart must
    // re-run it (at-least-once execution) rather than drop it — the
    // no-lost-jobs half of the crash contract.
    Rng rng(83);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});
    const std::string path = test::tempPath("journal.log");

    {
        std::ofstream out(path, std::ios::trunc);
        const std::string payload =
            journalEscape(serializeProfile(profile));
        out << journalFrame("submit 4 profile 0 0 " + payload);
        const std::string done = journalFrame("done 4");
        out << done.substr(0, done.size() / 2); // torn mid-append
    }

    ServiceConfig config;
    config.journalPath = path;
    RecoveryService service(config);
    EXPECT_EQ(service.health().journalReplays, 1u);
    EXPECT_EQ(service.health().journal.tornTail, 1u);
    ASSERT_TRUE(service.waitForJob(4));
    const auto job = service.job(4);
    ASSERT_TRUE(job.has_value());
    EXPECT_TRUE(job->succeeded);
    service.drain();
    std::remove(path.c_str());
}

TEST(SvcService, JournalReplayResumesUnfinishedJobs)
{
    Rng rng(71);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});
    const std::string path = test::tempPath("journal.log");

    // Hand-craft a crashed service's journal: job 3 finished, job 5
    // was still queued when the process died.
    {
        std::ofstream out(path, std::ios::trunc);
        const std::string payload =
            journalEscape(serializeProfile(profile));
        out << journalFrame("submit 3 profile 0 0 " + payload);
        out << journalFrame("done 3");
        out << journalFrame("submit 5 profile 0 0 " + payload);
    }

    ServiceConfig config;
    config.journalPath = path;
    RecoveryService service(config);

    // Only the unfinished job replays, under its original id.
    EXPECT_EQ(service.health().journalReplays, 1u);
    ASSERT_TRUE(service.waitForJob(5));
    const auto job = service.job(5);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Done);
    EXPECT_TRUE(job->succeeded);
    ASSERT_TRUE(job->code.has_value());
    EXPECT_TRUE(equivalent(*job->code, code));
    // The finished job did not replay...
    EXPECT_FALSE(service.job(3).has_value());
    // ...and organic ids continue past the journaled ones.
    const SubmitOutcome organic = service.submitProfile(profile);
    ASSERT_TRUE(organic.accepted);
    EXPECT_GT(organic.id, 5u);
    service.drain();
    std::remove(path.c_str());
}

TEST(SvcService, JournalReplayDropsV1TraceJobAndKeepsServing)
{
    // A journal written while the service still read v1 can hold a
    // pending trace job whose file is v1 text. Replay must drop it
    // with a terminal record (replaying it would end the process in
    // the worker on every restart) and then serve v2 trace jobs.
    const std::string path = test::tempPath("journal.log");
    const std::string v1_path = path + ".v1.trace";
    const std::string v2_path = path + ".v2.trace";
    writeTestTraces(v2_path, v1_path);
    {
        std::ofstream out(path, std::ios::trunc);
        out << journalFrame("submit 7 trace 0 0 " +
                            journalEscape(v1_path));
    }

    ServiceConfig config;
    config.journalPath = path;
    {
        RecoveryService service(config);
        EXPECT_EQ(service.health().journalReplays, 0u);
        EXPECT_EQ(service.health().journal.liveRecords, 0u);
        EXPECT_FALSE(service.job(7).has_value());

        const SubmitOutcome v2 = service.submitTraceFile(v2_path);
        ASSERT_TRUE(v2.accepted) << v2.error;
        ASSERT_TRUE(service.waitForJob(v2.id));
        EXPECT_TRUE(service.job(v2.id)->succeeded);
        service.drain();
    }
    {
        std::ifstream in(path);
        const std::string journal((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
        EXPECT_NE(journal.find(journalFrame("failed 7")),
                  std::string::npos)
            << journal;
    }
    // The terminal record holds: a second restart replays nothing.
    RecoveryService again(config);
    EXPECT_EQ(again.health().journalReplays, 0u);
    again.drain();

    std::remove(path.c_str());
    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());
}

TEST(SvcService, ExactHitIsAnsweredOnTheSubmitPath)
{
    Rng rng(89);
    const LinearCode code = randomSecCode(8, rng);
    const std::string payload =
        serializeProfile(plantedProfile(code, {1, 2}));
    const std::string path = test::tempPath("journal.log");
    std::remove(path.c_str());

    std::atomic<std::size_t> starts{0};
    ServiceConfig config;
    config.journalPath = path;
    config.onJobStart = [&](svc::JobId) { ++starts; };
    RecoveryService service(config);

    const SubmitOutcome cold = service.submitPayload(payload);
    ASSERT_TRUE(cold.accepted) << cold.error;
    // drain(), not waitForJob(): the done record is appended after
    // the job turns Done.
    service.drain();
    const auto before = service.health();
    EXPECT_EQ(before.satSolves, 1u);
    EXPECT_EQ(starts.load(), 1u);

    const SubmitOutcome hit = service.submitPayload(payload);
    ASSERT_TRUE(hit.accepted) << hit.error;
    // No waitForJob: the job is terminal when submit returns.
    const auto job = service.job(hit.id);
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->state, JobState::Done);
    EXPECT_TRUE(job->succeeded);
    EXPECT_EQ(job->cache, CacheOutcome::Exact);
    EXPECT_EQ(job->attempts, 1u);
    EXPECT_GE(job->seconds, 0.0);
    ASSERT_TRUE(job->code.has_value());
    EXPECT_TRUE(equivalent(*job->code, code));
    EXPECT_EQ(job->codeString, service.job(cold.id)->codeString);

    // No solve, no journal record, no worker; every view sees the job.
    const auto after = service.health();
    EXPECT_EQ(after.satSolves, before.satSolves);
    EXPECT_EQ(after.journal.records, before.journal.records);
    EXPECT_EQ(after.journal.liveRecords, 0u);
    EXPECT_EQ(after.cache.exactHits, before.cache.exactHits + 1);
    EXPECT_EQ(after.jobStates.done, 2u);
    EXPECT_EQ(after.scheduler.completed, 2u);
    EXPECT_EQ(starts.load(), 1u);
    EXPECT_TRUE(service.waitForJob(hit.id));
    const svc::JobPage page = service.listJobs(0, 10);
    ASSERT_EQ(page.total, 2u);
    EXPECT_EQ(page.jobs[1].id, hit.id);
    EXPECT_EQ(page.jobs[1].cache, CacheOutcome::Exact);

    // bypassCache still solves on a worker, journaled like any miss.
    SubmitOptions no_cache;
    no_cache.bypassCache = true;
    const SubmitOutcome bypass = service.submitPayload(payload, no_cache);
    ASSERT_TRUE(bypass.accepted) << bypass.error;
    service.drain();
    EXPECT_EQ(service.job(bypass.id)->cache, CacheOutcome::None);
    EXPECT_TRUE(service.job(bypass.id)->succeeded);
    EXPECT_EQ(starts.load(), 2u);
    EXPECT_EQ(service.health().satSolves, before.satSolves + 1);
    EXPECT_EQ(service.health().journal.records,
              after.journal.records + 2);
    service.shutdown();
    std::remove(path.c_str());
}

TEST(SvcService, ExactHitIsAcceptedWhileTheQueueIsFull)
{
    Rng rng(97);
    const MiscorrectionProfile cached =
        plantedProfile(randomSecCode(8, rng), {1, 2});
    std::vector<MiscorrectionProfile> misses;
    for (int i = 0; i < 3; ++i)
        misses.push_back(plantedProfile(randomSecCode(8, rng), {1, 2}));

    // While `hold` is set, every job that starts parks its worker.
    std::mutex mutex;
    std::condition_variable cv;
    bool hold = false;
    std::size_t held = 0;
    ServiceConfig config;
    config.threads = 1;
    config.maxQueuedJobs = 1;
    config.onJobStart = [&](svc::JobId) {
        std::unique_lock<std::mutex> lock(mutex);
        if (!hold)
            return;
        ++held;
        cv.notify_all();
        cv.wait(lock, [&] { return !hold; });
    };
    RecoveryService service(config);
    // Unparks the worker. It also runs on every early return (a failed
    // ASSERT), before the service's destructor drains the queue.
    struct Release
    {
        std::mutex &mutex;
        std::condition_variable &cv;
        bool &hold;
        void operator()()
        {
            {
                std::lock_guard<std::mutex> lock(mutex);
                hold = false;
            }
            cv.notify_all();
        }
        ~Release() { (*this)(); }
    } release{mutex, cv, hold};
    ASSERT_TRUE(service.submitProfile(cached).accepted);
    service.drain();

    {
        std::lock_guard<std::mutex> lock(mutex);
        hold = true;
    }
    const SubmitOutcome running = service.submitProfile(misses[0]);
    ASSERT_TRUE(running.accepted) << running.error;
    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                                [&] { return held == 1; }))
            << "the first miss never started a job";
    }
    const SubmitOutcome queued = service.submitProfile(misses[1]);
    ASSERT_TRUE(queued.accepted) << queued.error;

    // The queue is full: a miss is shed, an exact hit is answered.
    const SubmitOutcome shed = service.submitProfile(misses[2]);
    const SubmitOutcome hit = service.submitProfile(cached);
    const auto hit_job = service.job(hit.id);
    const std::uint64_t depth = service.health().queueDepth;
    release();
    service.drain();

    EXPECT_FALSE(shed.accepted);
    EXPECT_EQ(shed.reject, SubmitOutcome::Reject::Overloaded);
    ASSERT_TRUE(hit.accepted) << hit.error;
    ASSERT_TRUE(hit_job.has_value());
    EXPECT_EQ(hit_job->state, JobState::Done);
    EXPECT_EQ(hit_job->cache, CacheOutcome::Exact);
    EXPECT_EQ(depth, 1u);
    EXPECT_TRUE(service.job(running.id)->succeeded);
    EXPECT_TRUE(service.job(queued.id)->succeeded);
    EXPECT_EQ(service.health().satSolves, 3u);
}

TEST(SvcService, ReplayedJobThatIsNowAnExactHitIsAnsweredInline)
{
    Rng rng(101);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1, 2});
    ServiceConfig config;
    config.journalPath = test::tempPath("journal.log");
    config.cache.path = config.journalPath + ".cache";
    std::remove(config.journalPath.c_str());
    std::remove(config.cache.path.c_str());

    // A clean run solves the profile and flushes the cache...
    {
        RecoveryService service(config);
        ASSERT_TRUE(service.submitProfile(profile).accepted);
        service.shutdown();
    }
    // ...and a later run is killed with the same profile journaled
    // under id 7 (a repeat that raced its own cold solve).
    {
        std::ofstream out(config.journalPath, std::ios::trunc);
        out << journalFrame("submit 7 profile 0 0 " +
                            journalEscape(serializeProfile(profile)));
    }

    {
        RecoveryService service(config);
        const auto health = service.health();
        EXPECT_EQ(health.journalReplays, 1u);
        EXPECT_EQ(health.satSolves, 0u);
        // The replayed record was retired by a done record.
        EXPECT_EQ(health.journal.liveRecords, 0u);
        const auto job = service.job(7);
        ASSERT_TRUE(job.has_value());
        EXPECT_EQ(job->state, JobState::Done);
        EXPECT_EQ(job->cache, CacheOutcome::Exact);
        ASSERT_TRUE(job->code.has_value());
        EXPECT_TRUE(equivalent(*job->code, code));
        const SubmitOutcome organic = service.submitProfile(profile);
        ASSERT_TRUE(organic.accepted);
        EXPECT_GT(organic.id, 7u);
    }

    // Nothing is left to replay.
    RecoveryService restarted(config);
    EXPECT_EQ(restarted.health().journalReplays, 0u);
    EXPECT_FALSE(restarted.job(7).has_value());
    restarted.shutdown();
    std::remove(config.journalPath.c_str());
    std::remove(config.cache.path.c_str());
}
