#include "svc/service.hh"

#include <algorithm>
#include <sstream>

#include "beer/measure.hh"
#include "dram/trace.hh"
#include "ecc/hamming.hh"
#include "util/logging.hh"

namespace beer::svc
{

namespace
{

/** Largest parity-bit count a submission may request; the LinearCode
 * syndrome table is sized 2^p, so this bounds per-job memory. */
constexpr std::size_t kMaxParityBits = 24;
/** Largest dataword length a submission may request. */
constexpr std::size_t kMaxDatawordBits = 512;

SubmitOutcome
rejected(SubmitOutcome::Reject why, std::string error)
{
    SubmitOutcome outcome;
    outcome.accepted = false;
    outcome.reject = why;
    outcome.error = std::move(error);
    return outcome;
}

/** The answer an exact fingerprint hit gives: the cached function,
 * without a solve. The submit path and the worker path share it. */
void
answerFromExactHit(JobStatus &status, const FingerprintCache::Hit &hit)
{
    status.succeeded = true;
    status.solutions = 1;
    status.complete = true;
    status.code = hit.code;
    status.codeString = hit.code->toString();
    status.cache = CacheOutcome::Exact;
}

/** One journal field may span the rest of its line; newlines and
 * backslashes inside it are escaped so records stay one-per-line. */
std::string
escapeJournalField(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
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

std::string
unescapeJournalField(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\\' && i + 1 < text.size()) {
            ++i;
            out += text[i] == 'n' ? '\n' : text[i];
        } else {
            out += text[i];
        }
    }
    return out;
}

} // anonymous namespace

const char *
jobErrorCodeName(JobErrorCode code)
{
    switch (code) {
    case JobErrorCode::None:
        return "none";
    case JobErrorCode::BadInput:
        return "bad_input";
    case JobErrorCode::Unsatisfiable:
        return "unsatisfiable";
    case JobErrorCode::Ambiguous:
        return "ambiguous";
    case JobErrorCode::Timeout:
        return "timeout";
    case JobErrorCode::Internal:
        return "internal";
    }
    return "unknown";
}

/** Everything one job owns; stable address for its whole lifetime. */
struct RecoveryService::JobRecord
{
    SubmitOptions options;
    /** Empty when tracePath is set (derived inside the job). */
    MiscorrectionProfile profile;
    /** Non-empty for trace submissions. */
    std::string tracePath;
    std::mutex mutex;
    JobStatus status;

    /** Drop the job's inputs once it is terminal (no attempt is left
     *  to read them); the record then holds only its status. */
    void
    releaseInputs()
    {
        std::lock_guard<std::mutex> lock(mutex);
        profile = {};
        tracePath = {};
    }
};

RecoveryService::RecoveryService(ServiceConfig config)
    : config_(std::move(config)),
      start_(std::chrono::steady_clock::now())
{
    // ThreadPool counts the calling thread as an executor; async jobs
    // only run on workers, so size the pool for `threads` workers.
    pool_ = std::make_unique<util::ThreadPool>(
        config_.threads == 0 ? 0 : config_.threads + 1);
    // The configured I/O seam covers every file the service persists:
    // the journal and the fingerprint-cache snapshot.
    if (!config_.cache.io)
        config_.cache.io = config_.fileIo;
    cache_ = std::make_unique<FingerprintCache>(config_.cache);
    cache_->loadFromDisk();
    JournalConfig journal;
    journal.path = config_.journalPath;
    journal.maxBytes = config_.journalMaxBytes;
    journal.io = config_.fileIo;
    journal_ = std::make_unique<JobJournal>(journal);
    SchedulerConfig sched;
    sched.maxQueuedJobs = config_.maxQueuedJobs;
    sched.onTerminal = [this](JobId id, JobState state) {
        if (journal_->enabled())
            journal_->appendTerminal(id, state == JobState::Done);
        std::lock_guard<std::mutex> lock(jobsMutex_);
        const auto it = jobs_.find(id);
        if (it != jobs_.end())
            it->second->releaseInputs();
    };
    scheduler_ = std::make_unique<SessionScheduler>(*pool_, sched);
    replayJournal();
}

RecoveryService::~RecoveryService()
{
    shutdown();
}

SubmitOutcome
RecoveryService::scheduleRecord(std::unique_ptr<JobRecord> record,
                                JobId force_id, bool journal)
{
    // Journal-before-schedule: the submit record must be durable
    // BEFORE the scheduler can start (or finish) the job, so a crash
    // at any point replays the job instead of losing it. The id is
    // allocated up front for the record; a journal append that fails
    // (ENOSPC and friends) rejects the submission — the service never
    // accepts work it could not make durable.
    std::string submit_line;
    if (journal && journal_->enabled()) {
        submit_line = !record->tracePath.empty()
                          ? "trace " + std::to_string(
                                record->options.parityBits) +
                                " " +
                                std::to_string(
                                    record->options.bypassCache) +
                                " " +
                                escapeJournalField(record->tracePath)
                          : "profile " + std::to_string(
                                record->options.parityBits) +
                                " " +
                                std::to_string(
                                    record->options.bypassCache) +
                                " " +
                                escapeJournalField(
                                    serializeProfile(record->profile));
    }

    JobId reserved = force_id;
    bool journaled = false;
    if (!submit_line.empty()) {
        if (reserved == 0)
            reserved = scheduler_->allocateId();
        if (!journal_->appendSubmit(reserved, submit_line))
            return rejected(SubmitOutcome::Reject::Overloaded,
                            "cannot journal submission (disk "
                            "failure?), retry later");
        journaled = true;
    }

    JobRecord *ptr = record.get();
    const JobId id = scheduler_->submit(
        [this, ptr](JobId job_id) {
            {
                std::lock_guard<std::mutex> lock(ptr->mutex);
                ptr->status.id = job_id;
            }
            runJob(*ptr);
        },
        config_.jobPolicy, reserved);
    if (id == 0) {
        // The submit record is already durable; retire it so replay
        // does not resurrect a job the client was told is rejected.
        if (journaled)
            journal_->appendTerminal(reserved, /*done=*/false);
        return rejected(SubmitOutcome::Reject::Overloaded,
                        "job queue is full, retry later");
    }
    {
        std::lock_guard<std::mutex> lock(ptr->mutex);
        ptr->status.id = id;
    }
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        jobs_.emplace(id, std::move(record));
        // A job that finished before it was registered here found no
        // record to release in onTerminal.
        const std::optional<JobState> state = scheduler_->state(id);
        if (state != JobState::Queued && state != JobState::Running)
            ptr->releaseInputs();
    }
    SubmitOutcome outcome;
    outcome.accepted = true;
    outcome.id = id;
    return outcome;
}

SubmitOutcome
RecoveryService::enqueue(MiscorrectionProfile profile,
                         const SubmitOptions &options, JobId force_id,
                         bool journal)
{
    if (stopped_.load())
        return rejected(SubmitOutcome::Reject::Overloaded,
                        "service is shutting down");

    auto record = std::make_unique<JobRecord>();
    record->options = options;

    if (profile.k == 0 || profile.patterns.empty())
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "profile has no patterns");
    if (profile.k > kMaxDatawordBits)
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "dataword length exceeds service limit");
    const std::size_t parity =
        options.parityBits ? options.parityBits
                           : ecc::parityBitsForDataBits(profile.k);
    if (parity > kMaxParityBits)
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "parity-bit count exceeds service limit");
    record->status.k = profile.k;
    record->status.parityBits = parity;
    record->status.patterns = profile.patterns.size();

    // An exact hit is answered here, on the caller's thread: the job
    // is registered already Done, with no journal record, queue slot
    // or worker hop (see ServiceConfig::journalPath).
    if (!options.bypassCache) {
        const auto lookup_start = std::chrono::steady_clock::now();
        const FingerprintCache::Hit hit = cache_->lookup(profile, parity);
        if (hit.kind == FingerprintCache::Hit::Kind::Exact) {
            answerFromExactHit(record->status, hit);
            record->status.seconds = secondsSince(lookup_start);
            record->status.state = JobState::Done;
            const JobId id = scheduler_->submitDone(force_id);
            record->status.id = id;
            {
                std::lock_guard<std::mutex> lock(jobsMutex_);
                jobs_.emplace(id, std::move(record));
            }
            // A replayed job's submit record is live, and no worker
            // will report its end: retire it here.
            if (force_id)
                journal_->appendTerminal(force_id, /*done=*/true);
            SubmitOutcome outcome;
            outcome.accepted = true;
            outcome.id = id;
            return outcome;
        }
    }

    record->profile = std::move(profile);
    return scheduleRecord(std::move(record), force_id, journal);
}

SubmitOutcome
RecoveryService::submitProfile(const MiscorrectionProfile &profile,
                               const SubmitOptions &options)
{
    return enqueue(profile, options);
}

SubmitOutcome
RecoveryService::submitPayload(const std::string &payload,
                               const SubmitOptions &options)
{
    MiscorrectionProfile profile;
    const ProfileParseStatus status = tryParseProfile(payload, profile);
    if (!status.ok)
        return rejected(SubmitOutcome::Reject::BadPayload,
                        status.error);
    if (status.version < kProfileFormatVersion) {
        if (config_.rejectLegacyPayloads)
            return rejected(
                SubmitOutcome::Reject::BadPayload,
                "legacy version-" + std::to_string(status.version) +
                    " payload rejected; re-serialize as version " +
                    std::to_string(kProfileFormatVersion));
        legacyPayloads_.fetch_add(1, std::memory_order_relaxed);
    }
    return enqueue(std::move(profile), options);
}

SubmitOutcome
RecoveryService::submitTraceFile(const std::string &path,
                                 const SubmitOptions &options)
{
    if (stopped_.load())
        return rejected(SubmitOutcome::Reject::Overloaded,
                        "service is shutting down");
    // Check the magic up front: a missing or non-v2 file (v1 text,
    // say) is a submission error, not a worker crash later.
    const std::string error = dram::traceFileMagicError(path);
    if (!error.empty())
        return rejected(SubmitOutcome::Reject::BadPayload, error);
    traceV2Jobs_.fetch_add(1, std::memory_order_relaxed);

    auto record = std::make_unique<JobRecord>();
    record->options = options;
    record->tracePath = path;

    return scheduleRecord(std::move(record), 0, true);
}

void
RecoveryService::replayJournal()
{
    // The journal already tolerated a torn tail, skipped corrupt
    // records, deduplicated by id, and dropped finished jobs; what
    // comes back is exactly the unfinished submissions, in original
    // submission order. A record the service itself cannot use (an
    // unreadable profile, a trace file that is gone or not v2) is
    // retired with a terminal record so it does not replay forever,
    // nor crash a worker on every restart.
    for (const ReplayedJob &job : journal_->replay()) {
        std::istringstream fields(job.payload);
        std::string kind;
        std::size_t parity_bits = 0;
        int bypass = 0;
        fields >> kind >> parity_bits >> bypass;
        if (!fields) {
            journal_->appendTerminal(job.id, /*done=*/false);
            continue;
        }
        std::string payload;
        std::getline(fields, payload);
        if (!payload.empty() && payload.front() == ' ')
            payload.erase(0, 1);

        SubmitOptions options;
        options.parityBits = parity_bits;
        options.bypassCache = bypass != 0;
        SubmitOutcome outcome;
        if (kind == "profile") {
            MiscorrectionProfile profile;
            if (!tryParseProfile(unescapeJournalField(payload), profile)
                     .ok) {
                util::warn("svc: journal job %llu: unreadable "
                              "profile record, dropped",
                              (unsigned long long)job.id);
                journal_->appendTerminal(job.id, /*done=*/false);
                continue;
            }
            outcome = enqueue(std::move(profile), options, job.id,
                              /*journal=*/false);
        } else if (kind == "trace") {
            const std::string path = unescapeJournalField(payload);
            const std::string error = dram::traceFileMagicError(path);
            if (!error.empty()) {
                util::warn("svc: journal job %llu: %s, dropped",
                           (unsigned long long)job.id, error.c_str());
                journal_->appendTerminal(job.id, /*done=*/false);
                continue;
            }
            auto record = std::make_unique<JobRecord>();
            record->options = options;
            record->tracePath = path;
            outcome = scheduleRecord(std::move(record), job.id,
                                     /*journal=*/false);
        } else {
            journal_->appendTerminal(job.id, /*done=*/false);
            continue;
        }
        if (outcome.accepted)
            journalReplays_.fetch_add(1, std::memory_order_relaxed);
        else
            util::warn("svc: journal job %llu: replay rejected "
                          "(%s)",
                          (unsigned long long)job.id,
                          outcome.error.c_str());
    }
}

void
RecoveryService::runJob(JobRecord &record)
{
    const auto wall_start = std::chrono::steady_clock::now();
    JobId id;
    {
        std::lock_guard<std::mutex> lock(record.mutex);
        // A retried attempt starts clean: the previous attempt's
        // failure is history, not state.
        record.status.state = JobState::Running;
        record.status.error.clear();
        record.status.errorCode = JobErrorCode::None;
        id = record.status.id;
    }

    try {
        // Inside the try so a throwing test hook is classified and
        // retried like any other job-body failure.
        if (config_.onJobStart)
            config_.onJobStart(id);
        // Trace submissions re-measure their profile first. A throw
        // here means the recorded trace itself was unusable.
        if (!record.tracePath.empty()) {
            try {
                dram::TraceReplayBackend trace(record.tracePath);
                const ProfileCounts counts = replayProfileTrace(trace);
                MiscorrectionProfile profile = counts.threshold(
                    traceMeasureConfig(trace).thresholdProbability);
                const std::size_t parity =
                    record.options.parityBits
                        ? record.options.parityBits
                        : ecc::parityBitsForDataBits(profile.k);
                std::lock_guard<std::mutex> lock(record.mutex);
                record.status.k = profile.k;
                record.status.parityBits = parity;
                record.status.patterns = profile.patterns.size();
                record.profile = std::move(profile);
            } catch (...) {
                std::lock_guard<std::mutex> lock(record.mutex);
                record.status.errorCode = JobErrorCode::BadInput;
                throw;
            }
        }

        const MiscorrectionProfile &profile = record.profile;
        const std::size_t parity = record.status.parityBits;

        FingerprintCache::Hit hit;
        if (!record.options.bypassCache)
            hit = cache_->lookup(profile, parity);

        JobStatus result;
        if (hit.kind == FingerprintCache::Hit::Kind::Exact) {
            answerFromExactHit(result, hit);
        } else {
            const BeerSolveResult solve =
                solveForEccFunction(profile, parity, config_.solver);
            satSolves_.fetch_add(1, std::memory_order_relaxed);
            result.succeeded = solve.unique();
            result.solutions = solve.solutions.size();
            result.complete = solve.complete;
            if (solve.unique()) {
                result.code = solve.solutions.front();
                result.codeString = result.code->toString();
                // Only answers enter the cache: a non-unique solve is
                // a request for more measurement, not a function.
                cache_->insert(profile, parity,
                               solve.solutions.front());
            }
        }

        // Taxonomy for completed-but-answerless solves.
        if (!result.succeeded)
            result.errorCode = (result.complete &&
                                result.solutions == 0)
                                   ? JobErrorCode::Unsatisfiable
                                   : JobErrorCode::Ambiguous;

        const double seconds = secondsSince(wall_start);
        std::lock_guard<std::mutex> lock(record.mutex);
        record.status.succeeded = result.succeeded;
        record.status.solutions = result.solutions;
        record.status.complete = result.complete;
        record.status.code = std::move(result.code);
        record.status.codeString = std::move(result.codeString);
        record.status.cache = result.cache;
        record.status.seconds = seconds;
        record.status.errorCode = result.errorCode;
        record.status.state = JobState::Done;
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(record.mutex);
        record.status.error = e.what();
        if (record.status.errorCode == JobErrorCode::None)
            record.status.errorCode = JobErrorCode::Internal;
        record.status.state = JobState::Failed;
        throw; // let the scheduler count (and maybe retry) the failure
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(record.mutex);
            record.status.error = "unknown job failure";
            if (record.status.errorCode == JobErrorCode::None)
                record.status.errorCode = JobErrorCode::Internal;
            record.status.state = JobState::Failed;
        }
        throw;
    }
}

std::optional<JobStatus>
RecoveryService::job(JobId id) const
{
    std::lock_guard<std::mutex> jobs_lock(jobsMutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    JobStatus status;
    {
        std::lock_guard<std::mutex> lock(it->second->mutex);
        status = it->second->status;
    }
    // The scheduler owns the lifecycle — it alone knows about retry
    // re-queues and quarantine — so its state and attempt count
    // overlay the record's last-written snapshot.
    if (const auto state = scheduler_->state(id))
        status.state = *state;
    status.attempts = scheduler_->attempts(id);
    return status;
}

bool
RecoveryService::waitForJob(JobId id)
{
    return scheduler_->wait(id);
}

void
RecoveryService::drain()
{
    scheduler_->drain();
}

JobPage
RecoveryService::listJobs(std::size_t offset, std::size_t limit) const
{
    constexpr std::size_t kDefaultLimit = 50;
    constexpr std::size_t kMaxLimit = 1000;
    if (limit == 0)
        limit = kDefaultLimit;
    limit = std::min(limit, kMaxLimit);

    JobPage page;
    page.offset = offset;
    std::lock_guard<std::mutex> jobs_lock(jobsMutex_);
    page.total = jobs_.size();
    auto it = jobs_.begin();
    std::advance(it, std::min(offset, jobs_.size()));
    for (; it != jobs_.end() && page.jobs.size() < limit; ++it) {
        JobStatus status;
        {
            std::lock_guard<std::mutex> lock(it->second->mutex);
            status = it->second->status;
        }
        if (const auto state = scheduler_->state(it->first))
            status.state = *state;
        status.attempts = scheduler_->attempts(it->first);
        page.jobs.push_back(std::move(status));
    }
    return page;
}

HealthReport
RecoveryService::health() const
{
    HealthReport report;
    report.ok = !stopped_.load();
    report.uptimeSeconds = secondsSince(start_);
    report.poolThreads = pool_->size() - 1;
    report.poolQueuedTasks = pool_->queuedTasks();
    report.poolActiveTasks = pool_->activeTasks();
    report.poolCompletedTasks = pool_->completedTasks();
    report.scheduler = scheduler_->stats();
    report.jobStates = scheduler_->stateCounts();
    report.queueDepth = report.scheduler.queued;
    report.cache = cache_->stats();
    report.satSolves = satSolves_.load(std::memory_order_relaxed);
    report.legacyPayloads =
        legacyPayloads_.load(std::memory_order_relaxed);
    report.traceV2Jobs = traceV2Jobs_.load(std::memory_order_relaxed);
    report.retries = report.scheduler.retries;
    report.quarantined = report.scheduler.quarantined;
    report.expiredJobs = report.scheduler.expired;
    report.journalReplays =
        journalReplays_.load(std::memory_order_relaxed);
    report.journal = journal_->stats();
    return report;
}

void
RecoveryService::shutdown()
{
    // The exchange makes the whole drain-fsync-flush sequence run
    // exactly once, however many of shutdown()/the destructor/a
    // signal handler race here: later callers see `true` and return
    // before touching the journal or the cache.
    if (stopped_.exchange(true))
        return;
    scheduler_->drain();
    // Graceful drain is the one moment durability is pinned: appends
    // are open-per-call (the OS flushes them eventually; a kill -9
    // loses at most what replay re-derives), but a *clean* shutdown
    // fsyncs so the journal survives even power loss right after.
    journal_->sync();
    if (!config_.cache.path.empty())
        cache_->flushToDisk();
}

} // namespace beer::svc
