#include "svc/journal.hh"

#include <fcntl.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>

#include "util/logging.hh"

namespace beer::svc
{

namespace
{

/** Frame @p payload as `<8-hex-crc> <payload>\n`. */
std::string
frameRecord(const std::string &payload)
{
    char crc_hex[9];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x",
                  crc32(payload.data(), payload.size()));
    return std::string(crc_hex) + " " + payload + "\n";
}

/**
 * Validate `<8-hex-crc> <payload>` starting at @p offset of @p line;
 * on success fills @p payload and returns true.
 */
bool
parseRecordAt(const std::string &line, std::size_t offset,
              std::string &payload)
{
    if (line.size() < offset + 9)
        return false;
    std::uint32_t declared = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const char c = line[offset + i];
        if (!std::isxdigit((unsigned char)c))
            return false;
        declared = declared * 16 +
                   (std::uint32_t)(c <= '9' ? c - '0'
                                            : std::tolower(c) - 'a' +
                                                  10);
    }
    if (line[offset + 8] != ' ')
        return false;
    const char *body = line.data() + offset + 9;
    const std::size_t body_len = line.size() - offset - 9;
    if (crc32(body, body_len) != declared)
        return false;
    payload.assign(body, body_len);
    return true;
}

/**
 * Parse one journal line, scanning past leading garbage (the residue
 * of a torn record that a later append landed on) for an embedded
 * valid record. Returns true with @p payload on success;
 * @p had_garbage reports whether valid bytes were preceded by junk.
 */
bool
recoverRecord(const std::string &line, std::string &payload,
              bool &had_garbage)
{
    had_garbage = false;
    if (parseRecordAt(line, 0, payload))
        return true;
    for (std::size_t offset = 1; offset + 9 <= line.size(); ++offset) {
        if (parseRecordAt(line, offset, payload)) {
            had_garbage = true;
            return true;
        }
    }
    return false;
}

/** The framed `submit <id> <payload>` record. */
std::string
submitRecord(JobId id, const std::string &payload)
{
    return frameRecord("submit " + std::to_string(id) + " " + payload);
}

} // anonymous namespace

JobJournal::JobJournal(JournalConfig config)
    : config_(std::move(config)),
      io_(config_.io ? *config_.io : FileIo::system())
{
}

std::vector<ReplayedJob>
JobJournal::replay()
{
    std::vector<ReplayedJob> out;
    if (!enabled())
        return out;

    std::lock_guard<std::mutex> lock(mutex_);
    std::string content;
    if (!readFileAll(io_, config_.path, content))
        return out; // first boot over this path: nothing to replay

    struct Seen
    {
        std::map<JobId, std::string> pending;
        std::set<JobId> finished;
    } seen;

    std::size_t at = 0;
    while (at < content.size()) {
        std::size_t end = content.find('\n', at);
        const bool has_newline = end != std::string::npos;
        if (!has_newline)
            end = content.size();
        const std::string line = content.substr(at, end - at);
        at = end + 1;

        if (line.empty())
            continue;
        std::string payload;
        bool had_garbage = false;
        if (!recoverRecord(line, payload, had_garbage)) {
            // An unrecoverable final line is the crash signature: a
            // torn or truncated append. Anywhere else it is damage.
            if (at >= content.size())
                ++stats_.tornTail;
            else
                ++stats_.crcSkipped;
            continue;
        }
        if (had_garbage)
            ++stats_.crcSkipped;
        // (A valid final record missing only its newline is kept:
        // the CRC proves the payload itself is intact.)

        std::istringstream fields(payload);
        std::string verb;
        JobId id = 0;
        fields >> verb >> id;
        if (id == 0)
            continue;
        if (verb == "done" || verb == "failed") {
            seen.finished.insert(id);
        } else if (verb == "submit") {
            std::string rest;
            std::getline(fields, rest);
            if (!rest.empty() && rest.front() == ' ')
                rest.erase(0, 1);
            // emplace: a duplicated record replays exactly once.
            seen.pending.emplace(id, std::move(rest));
        }
    }

    live_.clear();
    for (auto &[id, payload] : seen.pending) {
        if (seen.finished.count(id))
            continue;
        live_.emplace(id, submitRecord(id, payload));
        out.push_back({id, std::move(payload)});
    }

    // Restart compaction: begin the new epoch from a minimal journal
    // holding exactly the survivors.
    compactLocked();
    return out;
}

bool
JobJournal::appendLine(const std::string &framed)
{
    const int fd = io_.open(config_.path.c_str(),
                            O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0) {
        ++stats_.appendFailures;
        return false;
    }
    // Open-per-append: no buffered state to lose on a kill -9, and
    // the journal stays writable after transient filesystem errors.
    const bool ok = writeFully(io_, fd, framed.data(), framed.size());
    io_.close(fd);
    if (!ok) {
        ++stats_.appendFailures;
        return false;
    }
    stats_.bytes += framed.size();
    ++stats_.records;
    return true;
}

bool
JobJournal::appendSubmit(JobId id, const std::string &payload)
{
    if (!enabled())
        return true;
    std::lock_guard<std::mutex> lock(mutex_);
    std::string record = submitRecord(id, payload);
    if (!appendLine(record)) {
        util::warn("svc: journal append failed for job %llu ('%s')",
                   (unsigned long long)id, config_.path.c_str());
        return false;
    }
    live_.emplace(id, std::move(record));
    return true;
}

void
JobJournal::appendTerminal(JobId id, bool done)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(id);
    if (it == live_.end())
        return; // never journaled (or already retired): nothing owed
    // Retire locally even if the append fails: replay would re-run a
    // finished job (at-least-once for terminals), but the next
    // compaction rewrites the file without it.
    const std::string terminal =
        frameRecord((done ? "done " : "failed ") + std::to_string(id));
    retiredBytes_ += it->second.size() + terminal.size();
    live_.erase(it);
    appendLine(terminal);
    // A rewrite is due only once the bytes retired since the last one
    // reach what that one wrote; otherwise a live backlog larger than
    // maxBytes would rewrite the whole file on every terminal record.
    if (config_.maxBytes > 0 && stats_.bytes > config_.maxBytes &&
        retiredBytes_ >= rewriteBytes_)
        compactLocked();
}

void
JobJournal::compactLocked()
{
    std::string content;
    for (const auto &[id, record] : live_)
        content += record;
    if (!writeFileAtomic(io_, config_.path, content)) {
        util::warn("svc: journal compaction failed ('%s')",
                   config_.path.c_str());
        return; // stale journal is safe: replay dedups and drops
    }
    stats_.bytes = content.size();
    stats_.records = live_.size();
    ++stats_.compactions;
    rewriteBytes_ = content.size();
    retiredBytes_ = 0;
}

void
JobJournal::sync()
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    const int fd = io_.open(config_.path.c_str(), O_WRONLY, 0);
    if (fd < 0)
        return;
    io_.fsync(fd);
    io_.close(fd);
}

JournalStats
JobJournal::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JournalStats stats = stats_;
    stats.liveRecords = live_.size();
    return stats;
}

} // namespace beer::svc
