/**
 * @file
 * Transport-agnostic ECC recovery service core.
 *
 * svc::RecoveryService turns the batch BEER pipeline into a
 * long-running, fleet-facing system: clients submit miscorrection
 * profiles (as in-process objects, versioned text payloads, or
 * recorded measurement traces), each submission becomes a scheduled
 * job on the shared thread pool, and results are polled by job id.
 * The service only solves profiles; it never drives a chip. A
 * measurement runs in a beer::Session, and its profile is submitted.
 * The API surface is versioned (kApiVersion) and deliberately
 * transport-free — tests drive it fully in-process, and the HTTP/1.1
 * adapter (svc/http.hh) is a thin serialization shim over exactly
 * these calls:
 *
 *   submit*   -> job id (or a load-shed/parse rejection)
 *   job(id)   -> poll one job
 *   listJobs  -> paginated, deterministic (id-ordered) job listing
 *   health    -> liveness + pool/scheduler/cache observability
 *
 * Every job consults the fingerprint cache first: an exact hit
 * returns the previously solved function with zero SAT solver
 * invocations (satSolves in HealthReport is the proof the acceptance
 * test asserts on), anything else is solved cold, and unique solves
 * are inserted for the next member of the fleet. A profile or
 * payload submission looks itself up on the caller's thread, and an
 * exact hit is Done before the submit call returns: no queue slot,
 * worker hop or journal record. The worker's lookup still serves
 * traces and repeats that raced a still-running cold solve. Both
 * lookups are plain FingerprintCache::lookup() calls, which
 * canonicalize on the calling thread outside the cache lock. Once a
 * job is terminal its record keeps only its status, not its parsed
 * profile.
 * shutdown() drains the scheduler and flushes the cache to disk; the
 * destructor does the same.
 */

#ifndef BEER_SVC_SERVICE_HH
#define BEER_SVC_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "beer/profile.hh"
#include "beer/solver.hh"
#include "svc/fingerprint_cache.hh"
#include "svc/io.hh"
#include "svc/journal.hh"
#include "svc/scheduler.hh"
#include "util/thread_pool.hh"

namespace beer::svc
{

/** Version of the request/response surface (the /v1 in URLs). */
inline constexpr int kApiVersion = 1;

/** Per-submission options. */
struct SubmitOptions
{
    /** Parity-bit count (0 = minimum SEC count for the profile's k). */
    std::size_t parityBits = 0;
    /** Skip the cache lookup (the solve still populates it). */
    bool bypassCache = false;
};

/** Outcome of a submit call. */
struct SubmitOutcome
{
    bool accepted = false;
    /** Valid when accepted. */
    JobId id = 0;
    /** Machine-readable rejection class. */
    enum class Reject
    {
        None,
        /** Payload failed to parse or declared an unusable version. */
        BadPayload,
        /** Bounded queue full — retry later (HTTP 429). */
        Overloaded,
    };
    Reject reject = Reject::None;
    /** Human-readable rejection detail. */
    std::string error;
};

/** How a job's answer was obtained. */
enum class CacheOutcome
{
    /** Full SAT solve, no cache involvement. */
    None,
    /** Returned from the cache with zero solver invocations. */
    Exact,
    /** Never produced: near matching is gone. Kept only because the
     *  end-to-end benchmark (perfbench/) still names it. */
    Near,
};

/**
 * Structured failure/degradation taxonomy for jobs. Orthogonal to
 * JobState: a Done job still carries Unsatisfiable or Ambiguous when
 * its solve found no unique function, and a Failed job says *why*
 * without string matching.
 */
enum class JobErrorCode
{
    None,
    /** The submission's own data was unusable (bad trace, bad k). */
    BadInput,
    /** No ECC function is consistent with the profile. */
    Unsatisfiable,
    /** Multiple candidate functions remain (need more evidence). */
    Ambiguous,
    /** The job's deadline expired first. Reserved for a per-job
     *  solve deadline; nothing produces it yet. */
    Timeout,
    /** Anything else that threw out of the job body. */
    Internal,
};

/** Stable lower_snake name for JSON/logs (e.g. "bad_input"). */
const char *jobErrorCodeName(JobErrorCode code);

/** Poll-able snapshot of one job. */
struct JobStatus
{
    JobId id = 0;
    JobState state = JobState::Queued;
    std::size_t k = 0;
    std::size_t parityBits = 0;
    std::size_t patterns = 0;
    /** Results below are valid once state == Done. */
    bool succeeded = false;
    std::size_t solutions = 0;
    /** True iff the enumeration ran to completion. */
    bool complete = false;
    /** Recovered H = [P | I] rendering (unique solves only). */
    std::string codeString;
    /** The recovered function (unique solves only). */
    std::optional<ecc::LinearCode> code;
    CacheOutcome cache = CacheOutcome::None;
    /** Wall-clock seconds inside the job body. */
    double seconds = 0.0;
    /** Set when state == Failed. */
    std::string error;
    /** Structured failure/degradation class; see JobErrorCode. */
    JobErrorCode errorCode = JobErrorCode::None;
    /** Attempts started (> 1 only under a retry policy). */
    std::size_t attempts = 0;
};

/** One page of the job listing. */
struct JobPage
{
    std::vector<JobStatus> jobs;
    std::size_t total = 0;
    std::size_t offset = 0;
};

/** Liveness + observability snapshot. */
struct HealthReport
{
    bool ok = true;
    int apiVersion = kApiVersion;
    double uptimeSeconds = 0.0;
    std::size_t poolThreads = 0;
    std::uint64_t poolQueuedTasks = 0;
    std::uint64_t poolActiveTasks = 0;
    std::uint64_t poolCompletedTasks = 0;
    SchedulerStats scheduler;
    /** Per-state census of every job issued: Queued pinned at
     * maxQueuedJobs plus rejected submissions rising = load shedding
     * in progress; Failed rising = job bodies are throwing. */
    JobStateCounts jobStates;
    /** Jobs waiting for a worker right now (scheduler queue depth). */
    std::uint64_t queueDepth = 0;
    FingerprintCacheStats cache;
    /** Jobs answered by a SAT solve (cache hits excluded). */
    std::uint64_t satSolves = 0;
    /** Version-1 (legacy) payloads accepted and migrated. */
    std::uint64_t legacyPayloads = 0;
    /** Trace jobs accepted. */
    std::uint64_t traceV2Jobs = 0;
    /** Job attempts re-queued by the retry policy. */
    std::uint64_t retries = 0;
    /** Jobs quarantined after exhausting their retries. */
    std::uint64_t quarantined = 0;
    /** Jobs failed unrun because their start deadline passed. */
    std::uint64_t expiredJobs = 0;
    /** Unfinished journaled jobs re-submitted at startup. */
    std::uint64_t journalReplays = 0;
    /** Journal size/compaction/corruption counters. */
    JournalStats journal;
};

/** Construction knobs for the service. */
struct ServiceConfig
{
    /** Scheduler worker threads (0 = hardware concurrency). */
    std::size_t threads = 0;
    /** Bounded job queue; submissions beyond it are load-shed.
     *  Inline exact hits take no slot and are never shed. */
    std::size_t maxQueuedJobs = 256;
    FingerprintCacheConfig cache;
    /** Solver knobs applied to every job. */
    BeerSolverConfig solver{.maxSolutions = 16};
    /**
     * Reject version-1 (version-less) payloads instead of migrating
     * them, for deployments that demand explicit versioning.
     */
    bool rejectLegacyPayloads = false;
    /** Resilience policy applied to every job (retries/backoff/start
     *  deadline); see JobPolicy. */
    JobPolicy jobPolicy;
    /**
     * Append-only job journal path (empty = no journal). Every
     * profile/payload/trace submission appends a `submit` record
     * (flushed before the submit call returns) and every terminal
     * job a `done`/`failed` record, so a service constructed over the
     * same path after a crash re-submits the unfinished jobs under
     * their original ids (HealthReport::journalReplays) — queued work
     * survives restarts without duplicate side effects. Inline exact
     * hits are not journaled: they are terminal before submit returns,
     * so replay would have nothing to redo, and a submit/done pair
     * would only be written to be compacted away. A replayed job that
     * is now an exact hit is answered inline and its submit record
     * retired.
     */
    std::string journalPath;
    /**
     * Journal size bound: compact (atomically rewrite keeping only
     * unfinished submit records) when the file exceeds this (0 =
     * never compact online; see JournalConfig::maxBytes).
     */
    std::size_t journalMaxBytes = 256 * 1024;
    /**
     * I/O seam for the journal and the fingerprint-cache file
     * (nullptr = raw POSIX). The chaos tests inject ENOSPC windows,
     * short writes and torn records through this to prove the
     * exactly-once job contract differentially.
     */
    FileIo *fileIo = nullptr;
    /** Test/observability hook: runs on the worker as a job starts.
     *  Inline exact hits never start on a worker and never call it. */
    std::function<void(JobId)> onJobStart;
};

/** Long-running recovery service; see file comment. */
class RecoveryService
{
  public:
    /** Loads the fingerprint cache if a path is configured. */
    explicit RecoveryService(ServiceConfig config = {});
    /** Calls shutdown(). */
    ~RecoveryService();

    RecoveryService(const RecoveryService &) = delete;
    RecoveryService &operator=(const RecoveryService &) = delete;

    /** Submit an in-process profile. */
    SubmitOutcome submitProfile(const MiscorrectionProfile &profile,
                                const SubmitOptions &options = {});

    /**
     * Submit a serialized profile payload (the beer_solve text
     * format). Future format versions are rejected as BadPayload;
     * legacy version-1 payloads are migrated (counted in
     * HealthReport::legacyPayloads) unless configured to reject.
     */
    SubmitOutcome submitPayload(const std::string &payload,
                                const SubmitOptions &options = {});

    /**
     * Submit a recorded measurement trace (dram/trace.hh format): the
     * profile is re-measured from the recorded reads with the
     * threshold stored in the trace, then solved like any other
     * submission.
     */
    SubmitOutcome submitTraceFile(const std::string &path,
                                  const SubmitOptions &options = {});

    /** Snapshot of one job; nullopt if the id was never issued. */
    std::optional<JobStatus> job(JobId id) const;

    /**
     * Block until @p id finishes.
     *
     * @return false if the id was never issued
     */
    bool waitForJob(JobId id);

    /** Block until every accepted job has finished. */
    void drain();

    /** Jobs in ascending-id order, windowed by @p offset/@p limit. */
    JobPage listJobs(std::size_t offset, std::size_t limit) const;

    HealthReport health() const;

    /**
     * Stop accepting work, drain in-flight jobs, flush the cache.
     * Idempotent; later submissions are load-shed as Overloaded.
     */
    void shutdown();

  private:
    struct JobRecord;

    SubmitOutcome enqueue(MiscorrectionProfile profile,
                          const SubmitOptions &options,
                          JobId force_id = 0, bool journal = true);
    /** Register + schedule a prepared record (shared submit tail).
     *  @p force_id reuses a journaled id; @p journal appends the
     *  submit record (off when replaying — the line already exists). */
    SubmitOutcome scheduleRecord(std::unique_ptr<JobRecord> record,
                                 JobId force_id, bool journal);
    void runJob(JobRecord &record);

    /** Re-submit unfinished jobs recorded in the journal. */
    void replayJournal();

    ServiceConfig config_;
    std::unique_ptr<util::ThreadPool> pool_;
    std::unique_ptr<FingerprintCache> cache_;
    std::unique_ptr<SessionScheduler> scheduler_;
    mutable std::mutex jobsMutex_;
    /** Ordered by id, the pagination contract. */
    std::map<JobId, std::unique_ptr<JobRecord>> jobs_;

    std::atomic<std::uint64_t> satSolves_{0};
    std::atomic<std::uint64_t> legacyPayloads_{0};
    std::atomic<std::uint64_t> traceV2Jobs_{0};
    std::atomic<std::uint64_t> journalReplays_{0};
    std::atomic<bool> stopped_{false};
    std::unique_ptr<JobJournal> journal_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace beer::svc

#endif // BEER_SVC_SERVICE_HH
