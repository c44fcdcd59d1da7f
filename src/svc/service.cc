#include "svc/service.hh"

#include <algorithm>
#include <fstream>
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
    case JobErrorCode::MeasurementFailed:
        return "measurement_failed";
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
    /** Non-null for chip-endpoint session submissions. */
    dram::MemoryInterface *sessionMem = nullptr;
    SessionSubmitOptions sessionOptions;
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
        sessionOptions = {};
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
    if (journal && journal_->enabled() && !record->sessionMem) {
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
    if (!std::ifstream(path))
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "cannot open trace file '" + path + "'");
    // Sniff the trace format up front: unrecognized files are a
    // submission error, not a worker crash later, and the per-format
    // counters tell a fleet operator how far the v2 migration is.
    const auto format = dram::tryTraceFileFormat(path);
    if (!format)
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "'" + path +
                            "' is neither a v1 nor a v2 trace");
    if (*format == dram::TraceFormat::V1)
        traceV1Jobs_.fetch_add(1, std::memory_order_relaxed);
    else
        traceV2Jobs_.fetch_add(1, std::memory_order_relaxed);

    auto record = std::make_unique<JobRecord>();
    record->options = options;
    record->tracePath = path;

    return scheduleRecord(std::move(record), 0, true);
}

SubmitOutcome
RecoveryService::submitSession(dram::MemoryInterface &mem,
                               const SessionSubmitOptions &options)
{
    if (stopped_.load())
        return rejected(SubmitOutcome::Reject::Overloaded,
                        "service is shutting down");
    const std::size_t k = mem.datawordBits();
    if (k == 0 || k > kMaxDatawordBits)
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "chip dataword length outside service limits");
    const std::size_t parity = ecc::parityBitsForDataBits(k);
    if (parity > kMaxParityBits)
        return rejected(SubmitOutcome::Reject::BadPayload,
                        "parity-bit count exceeds service limit");

    auto record = std::make_unique<JobRecord>();
    record->sessionMem = &mem;
    record->sessionOptions = options;
    record->status.k = k;
    record->status.parityBits = parity;

    return scheduleRecord(std::move(record), 0, true);
}

void
RecoveryService::replayJournal()
{
    // The journal already tolerated a torn tail, skipped corrupt
    // records, deduplicated by id, and dropped finished jobs; what
    // comes back is exactly the unfinished submissions, in original
    // submission order. A record the service itself cannot use (an
    // unreadable profile, a trace file that is gone) is retired with
    // a terminal record so it does not replay forever.
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
            if (!std::ifstream(path)) {
                util::warn("svc: journal job %llu: trace file "
                              "'%s' is gone, dropped",
                              (unsigned long long)job.id, path.c_str());
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

FingerprintCache::Hit
RecoveryService::batchedLookup(const MiscorrectionProfile &profile,
                               std::size_t parity_bits)
{
    LookupWaiter waiter;
    waiter.profile = &profile;
    waiter.parityBits = parity_bits;

    std::unique_lock<std::mutex> lock(lookupMutex_);
    lookupQueue_.push_back(&waiter);
    if (lookupLeaderActive_) {
        // A leader is already serving the queue; it will carry this
        // request in its next lookupMany() pass.
        lookupServed_.wait(lock, [&] { return waiter.served; });
        return std::move(waiter.hit);
    }

    lookupLeaderActive_ = true;
    while (!lookupQueue_.empty()) {
        std::vector<LookupWaiter *> batch(lookupQueue_.begin(),
                                          lookupQueue_.end());
        lookupQueue_.clear();
        lock.unlock();

        std::vector<FingerprintCache::LookupRequest> requests;
        requests.reserve(batch.size());
        for (const LookupWaiter *w : batch)
            requests.push_back({w->profile, w->parityBits});
        std::vector<FingerprintCache::Hit> hits =
            cache_->lookupMany(requests);
        if (batch.size() > 1)
            batchedLookups_.fetch_add(batch.size(),
                                      std::memory_order_relaxed);

        lock.lock();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i]->hit = std::move(hits[i]);
            batch[i]->served = true;
        }
        lookupServed_.notify_all();
        // Requests that arrived while the pass ran are in the queue
        // again; keep leading until it drains.
    }
    lookupLeaderActive_ = false;
    return std::move(waiter.hit);
}

void
RecoveryService::runSessionJob(JobRecord &record)
{
    SessionConfig config;
    config.measure = record.sessionOptions.measure;
    config.solver = config_.solver;
    config.escalateToTwoCharged =
        record.sessionOptions.escalateToTwoCharged;
    config.adaptiveEarlyExit = record.sessionOptions.adaptiveEarlyExit;
    config.wordsUnderTest = record.sessionOptions.wordsUnderTest;
    config.pipelined = record.sessionOptions.pipelined;
    config.repair = record.sessionOptions.repair;
    config.deadlineSeconds = record.sessionOptions.deadlineSeconds;
    config.measurementBudget = record.sessionOptions.measurementBudget;
    // Solve tasks ride the service pool: while this job's worker
    // blocks on the chip, an idle worker picks the solve up — one job,
    // two busy cores. The claimable-task handoff keeps a saturated
    // pool safe (the join runs the solve inline instead of waiting).
    config.solverPool = pool_.get();

    Session session(*record.sessionMem, config);
    const RecoveryReport report = session.run();
    // One job, one answer-producing solve path (the session's rounds
    // share an incremental context), matching the counter's "jobs
    // answered by SAT" meaning.
    satSolves_.fetch_add(1, std::memory_order_relaxed);
    quorumVotesSpent_.fetch_add(report.stats.quorumVotesSpent,
                                std::memory_order_relaxed);
    quorumEscalations_.fetch_add(report.stats.quorumEscalations,
                                 std::memory_order_relaxed);

    const std::size_t parity =
        ecc::parityBitsForDataBits(report.profile.k);
    if (report.succeeded())
        cache_->insert(report.profile, parity, report.recoveredCode());

    // Graceful degradation is a *completed* job with a diagnosis: the
    // state stays Done, the taxonomy code says why the answer is not
    // a unique function.
    JobErrorCode code = JobErrorCode::None;
    switch (report.diagnosis.outcome) {
    case SessionOutcome::Unique:
        break;
    case SessionOutcome::Ambiguous:
        code = JobErrorCode::Ambiguous;
        break;
    case SessionOutcome::Unsatisfiable:
        code = JobErrorCode::Unsatisfiable;
        break;
    case SessionOutcome::DeadlineExceeded:
    case SessionOutcome::BudgetExhausted:
        code = JobErrorCode::Timeout;
        break;
    }

    std::lock_guard<std::mutex> lock(record.mutex);
    record.status.patterns = report.profile.patterns.size();
    record.status.succeeded = report.succeeded();
    record.status.solutions = report.solve.solutions.size();
    record.status.complete = report.solve.complete;
    if (report.succeeded()) {
        record.status.code = report.recoveredCode();
        record.status.codeString = record.status.code->toString();
    }
    record.status.overlapSeconds = report.stats.overlapSeconds;
    record.status.errorCode = code;
    record.status.diagnosisJson = report.diagnosis.toJson();
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
        if (record.sessionMem) {
            try {
                runSessionJob(record);
            } catch (...) {
                std::lock_guard<std::mutex> lock(record.mutex);
                record.status.errorCode =
                    JobErrorCode::MeasurementFailed;
                throw;
            }
            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            std::lock_guard<std::mutex> lock(record.mutex);
            record.status.seconds = seconds;
            record.status.state = JobState::Done;
            return;
        }
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
            hit = batchedLookup(profile, parity);

        JobStatus result;
        if (hit.kind == FingerprintCache::Hit::Kind::Exact) {
            result.succeeded = true;
            result.solutions = 1;
            result.complete = true;
            result.code = hit.code;
            result.codeString = hit.code->toString();
            result.cache = CacheOutcome::Exact;
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

        // Taxonomy for completed-but-answerless solves, mirroring the
        // session diagnosis mapping.
        if (!result.succeeded)
            result.errorCode = (result.complete &&
                                result.solutions == 0)
                                   ? JobErrorCode::Unsatisfiable
                                   : JobErrorCode::Ambiguous;

        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
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
    report.uptimeSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_)
            .count();
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
    report.traceV1Jobs = traceV1Jobs_.load(std::memory_order_relaxed);
    report.traceV2Jobs = traceV2Jobs_.load(std::memory_order_relaxed);
    report.batchedLookups =
        batchedLookups_.load(std::memory_order_relaxed);
    report.retries = report.scheduler.retries;
    report.quarantined = report.scheduler.quarantined;
    report.expiredJobs = report.scheduler.expired;
    report.journalReplays =
        journalReplays_.load(std::memory_order_relaxed);
    report.journal = journal_->stats();
    report.quorumVotesSpent =
        quorumVotesSpent_.load(std::memory_order_relaxed);
    report.quorumEscalations =
        quorumEscalations_.load(std::memory_order_relaxed);
    return report;
}

bool
RecoveryService::flushCache() const
{
    return cache_->flushToDisk();
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
