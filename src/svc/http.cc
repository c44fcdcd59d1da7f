#include "svc/http.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "util/logging.hh"
#include "util/signal.hh"

namespace beer::svc
{

namespace
{

/** Cap on one request's total size (profiles are small text). */
constexpr std::size_t kMaxRequestBytes = 4u << 20;

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 202:
        return "Accepted";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 413:
        return "Payload Too Large";
    case 429:
        return "Too Many Requests";
    default:
        return "Internal Server Error";
    }
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const char *
stateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Quarantined:
        return "quarantined";
    }
    return "unknown";
}

const char *
cacheName(CacheOutcome outcome)
{
    switch (outcome) {
    case CacheOutcome::None:
        return "none";
    case CacheOutcome::Exact:
        return "exact";
    case CacheOutcome::Near:
        return "near";
    }
    return "unknown";
}

std::string
jobJson(const JobStatus &job)
{
    std::ostringstream out;
    out << "{\"id\":" << job.id << ",\"state\":\""
        << stateName(job.state) << "\",\"k\":" << job.k
        << ",\"parity_bits\":" << job.parityBits
        << ",\"patterns\":" << job.patterns << ",\"succeeded\":"
        << (job.succeeded ? "true" : "false")
        << ",\"solutions\":" << job.solutions << ",\"complete\":"
        << (job.complete ? "true" : "false") << ",\"cache\":\""
        << cacheName(job.cache) << "\",\"seconds\":" << job.seconds
        << ",\"overlap_seconds\":" << job.overlapSeconds
        << ",\"error_code\":\"" << jobErrorCodeName(job.errorCode)
        << "\",\"attempts\":" << job.attempts;
    if (!job.codeString.empty())
        out << ",\"code\":\"" << jsonEscape(job.codeString) << "\"";
    if (!job.error.empty())
        out << ",\"error\":\"" << jsonEscape(job.error) << "\"";
    // diagnosisJson is already a JSON object; embed it raw.
    if (!job.diagnosisJson.empty())
        out << ",\"diagnosis\":" << job.diagnosisJson;
    out << "}";
    return out.str();
}

std::string
healthJson(const HealthReport &health)
{
    std::ostringstream out;
    out << "{\"ok\":" << (health.ok ? "true" : "false")
        << ",\"api_version\":" << health.apiVersion
        << ",\"uptime_seconds\":" << health.uptimeSeconds
        << ",\"pool\":{\"threads\":" << health.poolThreads
        << ",\"queued\":" << health.poolQueuedTasks
        << ",\"active\":" << health.poolActiveTasks
        << ",\"completed\":" << health.poolCompletedTasks
        << "},\"scheduler\":{\"submitted\":"
        << health.scheduler.submitted
        << ",\"rejected\":" << health.scheduler.rejected
        << ",\"completed\":" << health.scheduler.completed
        << ",\"failed\":" << health.scheduler.failed
        << ",\"queued\":" << health.scheduler.queued
        << ",\"running\":" << health.scheduler.running
        << ",\"peak_concurrent\":" << health.scheduler.peakConcurrent
        << ",\"queue_depth\":" << health.queueDepth
        << ",\"retries\":" << health.retries
        << ",\"quarantined\":" << health.quarantined
        << ",\"expired\":" << health.expiredJobs
        << ",\"journal_replays\":" << health.journalReplays
        << ",\"jobs\":{\"queued\":" << health.jobStates.queued
        << ",\"running\":" << health.jobStates.running
        << ",\"done\":" << health.jobStates.done
        << ",\"failed\":" << health.jobStates.failed
        << ",\"quarantined\":" << health.jobStates.quarantined
        << "}},\"cache\":{\"entries\":" << health.cache.entries
        << ",\"exact_hits\":" << health.cache.exactHits
        << ",\"misses\":" << health.cache.misses
        << ",\"inserts\":" << health.cache.inserts
        << ",\"evictions\":" << health.cache.evictions
        << ",\"loaded\":" << health.cache.loadedEntries
        << ",\"batched_passes\":" << health.cache.batchedPasses
        << ",\"batched_requests\":" << health.cache.batchedRequests
        << "},\"journal\":{\"bytes\":" << health.journal.bytes
        << ",\"records\":" << health.journal.records
        << ",\"live_records\":" << health.journal.liveRecords
        << ",\"compactions\":" << health.journal.compactions
        << ",\"crc_skipped\":" << health.journal.crcSkipped
        << ",\"torn_tail\":" << health.journal.tornTail
        << ",\"append_failures\":" << health.journal.appendFailures
        << "},\"quorum\":{\"votes_spent\":" << health.quorumVotesSpent
        << ",\"escalations\":" << health.quorumEscalations
        << "},\"sat_solves\":" << health.satSolves
        << ",\"legacy_payloads\":" << health.legacyPayloads
        << ",\"trace_v1_jobs\":" << health.traceV1Jobs
        << ",\"trace_v2_jobs\":" << health.traceV2Jobs
        << ",\"batched_lookups\":" << health.batchedLookups << "}";
    return out.str();
}

HttpResponse
errorResponse(int status, const std::string &message)
{
    HttpResponse response;
    response.status = status;
    response.body = "{\"error\":\"" + jsonEscape(message) + "\"}";
    return response;
}

/** Parse "a=1&b=2" into a map; keys without '=' map to "1". */
std::map<std::string, std::string>
parseQuery(const std::string &query)
{
    std::map<std::string, std::string> params;
    std::size_t pos = 0;
    while (pos < query.size()) {
        std::size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        std::string key = query.substr(pos, amp - pos);
        std::string value = "1";
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        }
        params[std::move(key)] = std::move(value);
        pos = amp + 1;
    }
    return params;
}

bool
parseSizeT(const std::string &text, std::size_t &out)
{
    if (text.empty())
        return false;
    std::size_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        // Out of range is malformed, not a wrapped number.
        if (__builtin_mul_overflow(value, (std::size_t)10, &value) ||
            __builtin_add_overflow(value, (std::size_t)(c - '0'),
                                   &value))
            return false;
    }
    out = value;
    return true;
}

} // anonymous namespace

HttpServer::HttpServer(RecoveryService &service, HttpConfig config)
    : service_(service), config_(std::move(config)),
      io_(config_.socketIo ? *config_.socketIo : SocketIo::system())
{
}

HttpServer::~HttpServer()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int fd : stopPipe_)
        if (fd >= 0)
            ::close(fd);
}

HttpResponse
HttpServer::handle(const std::string &method,
                   const std::string &target, const std::string &body)
{
    std::string path = target;
    std::string query;
    const std::size_t qmark = target.find('?');
    if (qmark != std::string::npos) {
        path = target.substr(0, qmark);
        query = target.substr(qmark + 1);
    }
    const auto params = parseQuery(query);

    if (path == "/health" || path == "/v1/stats") {
        if (method != "GET")
            return errorResponse(405, "use GET");
        HttpResponse response;
        response.body = healthJson(service_.health());
        return response;
    }

    if (path == "/v1/jobs") {
        if (method == "POST") {
            SubmitOptions options;
            auto it = params.find("parity");
            if (it != params.end() &&
                !parseSizeT(it->second, options.parityBits))
                return errorResponse(400, "bad parity parameter");
            it = params.find("no-cache");
            if (it != params.end() && it->second != "0")
                options.bypassCache = true;
            const SubmitOutcome outcome =
                service_.submitPayload(body, options);
            if (!outcome.accepted)
                return errorResponse(
                    outcome.reject == SubmitOutcome::Reject::Overloaded
                        ? 429
                        : 400,
                    outcome.error);
            HttpResponse response;
            response.status = 202;
            response.body =
                "{\"job_id\":" + std::to_string(outcome.id) + "}";
            return response;
        }
        if (method == "GET") {
            std::size_t offset = 0;
            std::size_t limit = 0;
            auto it = params.find("offset");
            if (it != params.end() &&
                !parseSizeT(it->second, offset))
                return errorResponse(400, "bad offset parameter");
            it = params.find("limit");
            if (it != params.end() && !parseSizeT(it->second, limit))
                return errorResponse(400, "bad limit parameter");
            const JobPage page = service_.listJobs(offset, limit);
            std::ostringstream out;
            out << "{\"total\":" << page.total
                << ",\"offset\":" << page.offset << ",\"jobs\":[";
            for (std::size_t i = 0; i < page.jobs.size(); ++i) {
                if (i)
                    out << ",";
                out << jobJson(page.jobs[i]);
            }
            out << "]}";
            HttpResponse response;
            response.body = out.str();
            return response;
        }
        return errorResponse(405, "use GET or POST");
    }

    const std::string jobs_prefix = "/v1/jobs/";
    if (path.rfind(jobs_prefix, 0) == 0) {
        if (method != "GET")
            return errorResponse(405, "use GET");
        std::size_t id = 0;
        if (!parseSizeT(path.substr(jobs_prefix.size()), id))
            return errorResponse(400, "bad job id");
        const std::optional<JobStatus> job = service_.job(id);
        if (!job)
            return errorResponse(404, "unknown job id");
        HttpResponse response;
        response.body = jobJson(*job);
        return response;
    }

    return errorResponse(404, "no such route");
}

bool
HttpServer::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        util::warn("http: socket: %s", std::strerror(errno));
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1) {
        util::warn("http: bad bind address '%s'",
                   config_.host.c_str());
        return false;
    }
    if (::bind(listenFd_, (const sockaddr *)&addr, sizeof(addr)) <
        0) {
        util::warn("http: bind %s:%u: %s", config_.host.c_str(),
                   (unsigned)config_.port, std::strerror(errno));
        return false;
    }
    if (::listen(listenFd_, 16) < 0) {
        util::warn("http: listen: %s", std::strerror(errno));
        return false;
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, (sockaddr *)&bound, &len) == 0)
        boundPort_ = ntohs(bound.sin_port);

    if (::pipe(stopPipe_) < 0) {
        util::warn("http: pipe: %s", std::strerror(errno));
        return false;
    }
    return true;
}

void
HttpServer::serve()
{
    while (!util::shutdownRequested()) {
        pollfd fds[3];
        fds[0] = {listenFd_, POLLIN, 0};
        fds[1] = {stopPipe_[0], POLLIN, 0};
        fds[2] = {util::shutdownWakeFd(), POLLIN, 0};
        const int n = ::poll(fds, 3, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue; // signal; loop re-checks shutdown flag
            util::warn("http: poll: %s", std::strerror(errno));
            return;
        }
        if (fds[1].revents || fds[2].revents)
            return;
        if (!(fds[0].revents & POLLIN))
            continue;
        // An accept that fails (ECONNABORTED during an accept storm,
        // EINTR, fd exhaustion) must never take the server down: the
        // loop just polls again. This is the behavior the chaos
        // accept-storm test pins.
        const int fd = io_.accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        handleConnection(fd);
    }
}

void
HttpServer::stop()
{
    const char byte = 'x';
    if (stopPipe_[1] >= 0)
        (void)!::write(stopPipe_[1], &byte, 1);
}

void
HttpServer::handleConnection(int fd)
{
    std::string request;
    char buf[4096];
    std::size_t header_end = std::string::npos;
    // Read headers first; they tell us how much body to expect.
    while (header_end == std::string::npos &&
           request.size() < kMaxRequestBytes) {
        const ssize_t got = io_.recv(fd, buf, sizeof(buf), 0);
        if (got <= 0) {
            if (got < 0 && errno == EINTR)
                continue;
            io_.close(fd);
            return;
        }
        request.append(buf, (std::size_t)got);
        header_end = request.find("\r\n\r\n");
    }

    HttpResponse response;
    std::string method;
    if (header_end == std::string::npos) {
        response = errorResponse(413, "headers too large");
    } else {
        std::istringstream head(request.substr(0, header_end));
        std::string target;
        std::string version;
        head >> method >> target >> version;

        std::size_t content_length = 0;
        std::string line;
        std::getline(head, line); // consume rest of request line
        while (std::getline(head, line)) {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                continue;
            std::string name = line.substr(0, colon);
            for (char &c : name)
                c = (char)std::tolower((unsigned char)c);
            if (name == "content-length") {
                std::string value = line.substr(colon + 1);
                value.erase(0, value.find_first_not_of(" \t"));
                (void)parseSizeT(value, content_length);
            }
        }

        if (content_length > kMaxRequestBytes) {
            response = errorResponse(413, "body too large");
        } else {
            const std::size_t body_start = header_end + 4;
            while (request.size() < body_start + content_length) {
                const ssize_t got = io_.recv(fd, buf, sizeof(buf), 0);
                if (got <= 0) {
                    if (got < 0 && errno == EINTR)
                        continue;
                    break;
                }
                request.append(buf, (std::size_t)got);
            }
            if (request.size() < body_start + content_length) {
                response = errorResponse(400, "truncated body");
            } else {
                response = handle(
                    method, target,
                    request.substr(body_start, content_length));
            }
        }
    }

    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << ' '
        << reasonPhrase(response.status)
        << "\r\nContent-Type: " << response.contentType
        << "\r\nContent-Length: " << response.body.size()
        << "\r\nConnection: close\r\n\r\n";
    if (method != "HEAD")
        out << response.body;
    const std::string bytes = out.str();
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        // Short sends loop; EINTR retries; a reset mid-response
        // abandons THIS client only (its job, if any, is already
        // accepted and journaled — the connection is not the work).
        const ssize_t put =
            io_.send(fd, bytes.data() + sent, bytes.size() - sent, 0);
        if (put <= 0) {
            if (put < 0 && errno == EINTR)
                continue;
            break;
        }
        sent += (std::size_t)put;
    }
    io_.close(fd);
}

} // namespace beer::svc
