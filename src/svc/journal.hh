/**
 * @file
 * Bounded, checksummed job journal for the recovery service.
 *
 * The service journals one record per job transition so a crash (or a
 * kill -9) loses no accepted work: `submit <id> <payload>` when a job
 * is accepted, `done <id>` / `failed <id>` when it reaches a terminal
 * state. This class owns the on-disk framing and the replay semantics;
 * the service owns what the payload means.
 *
 * Framing: every record is one line, `<8-hex-crc32> <payload>\n`, the
 * CRC computed over the payload bytes. The CRC is the journal's only
 * defense against the write failures that lie: a torn append (half the
 * bytes hit the disk, the caller was told all did) is invisible at
 * write time and only detectable at replay. Replay therefore:
 *
 *  - drops a trailing record that fails its CRC or is truncated
 *    (counted as tornTail — the expected crash signature);
 *  - skips mid-file lines that fail their CRC (counted as crcSkipped
 *    — bit rot or a torn record that later appends ran into), after
 *    first scanning the line for an embedded valid record so a record
 *    appended *onto* a torn line is still recovered;
 *  - deduplicates submit records by id, so a doubled line replays a
 *    job exactly once.
 *
 * Size bound: the journal tracks which submit records are still live
 * (no terminal record yet). When the file exceeds maxBytes and the
 * records retired since the last rewrite outweigh what it wrote, the
 * file is compacted — atomically rewritten to hold only the live
 * submit records, in original submission order — so a rewrite costs
 * amortized O(1) per record even when live records exceed maxBytes.
 * Replay also compacts, so a restart always begins from a minimal
 * journal. With this, 1k jobs of churn keep the
 * file within the bound while every unfinished job survives a crash.
 *
 * All file access goes through the svc::FileIo seam, so the chaos
 * tests can inject ENOSPC windows, short writes and torn records and
 * verify the no-lost-no-duplicated-jobs contract differentially.
 */

#ifndef BEER_SVC_JOURNAL_HH
#define BEER_SVC_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "svc/io.hh"
#include "svc/scheduler.hh"
#include "util/checksum.hh"

namespace beer::svc
{

/** CRC-32 over @p len bytes of @p data (shared util::crc32). */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return util::crc32(data, len);
}

/** Knobs for JobJournal. */
struct JournalConfig
{
    /** Journal file path; empty disables the journal entirely. */
    std::string path;
    /**
     * Compact when the file grows past this many bytes and the bytes
     * retired since the last rewrite reach that rewrite's size (0 =
     * never compact online; replay-time compaction still runs).
     */
    std::size_t maxBytes = 256 * 1024;
    /** I/O seam; nullptr uses FileIo::system(). */
    FileIo *io = nullptr;
};

/** Observability counters for the journal (health endpoint). */
struct JournalStats
{
    /** Approximate current file size in bytes. */
    std::uint64_t bytes = 0;
    /** Records (lines) currently in the file. */
    std::uint64_t records = 0;
    /** Live submit records (journaled, no terminal record yet). */
    std::uint64_t liveRecords = 0;
    /** Atomic rewrites performed (replay-time and online). */
    std::uint64_t compactions = 0;
    /** Mid-file records dropped for CRC mismatch at replay. */
    std::uint64_t crcSkipped = 0;
    /** Truncated/torn trailing records dropped at replay. */
    std::uint64_t tornTail = 0;
    /** Appends that failed to reach the file (ENOSPC, ...). */
    std::uint64_t appendFailures = 0;
};

/** One unfinished job recovered by replay(). */
struct ReplayedJob
{
    JobId id = 0;
    /** The payload given to appendSubmit(), verbatim. */
    std::string payload;
};

/** Crash-safe bounded job journal; see file comment. */
class JobJournal
{
  public:
    explicit JobJournal(JournalConfig config);

    /** False when constructed with an empty path (all ops no-op). */
    bool enabled() const { return !config_.path.empty(); }

    /**
     * Read the journal, tolerating a torn tail and skipping corrupt
     * records, and return the submit records with no terminal record,
     * deduplicated by id, in submission (id) order. Seeds the live-
     * record tracking and compacts the file down to exactly those
     * survivors. Call once, before concurrent appends begin.
     */
    std::vector<ReplayedJob> replay();

    /**
     * Append `submit <id> <payload>` and mark the id live. Returns
     * false if the record could not be written (the caller should
     * reject the submission rather than accept un-journaled work).
     * @p payload must not contain newlines.
     */
    bool appendSubmit(JobId id, const std::string &payload);

    /**
     * Append `done <id>` or `failed <id>` and retire the id. A no-op
     * for ids that are not live — terminal records are only meaningful
     * for journaled submissions, and this keeps a double-reported
     * terminal from appending twice. May trigger online compaction.
     */
    void appendTerminal(JobId id, bool done);

    /**
     * fsync the journal file (graceful-drain durability). Appends are
     * open-per-call and rely on the OS to flush; a graceful shutdown
     * pins everything to disk exactly once through this.
     */
    void sync();

    JournalStats stats() const;

  private:
    /** Append one framed record; updates bytes/records. */
    bool appendLine(const std::string &framed);
    /** Rewrite the file to the live records only (caller holds lock). */
    void compactLocked();

    JournalConfig config_;
    FileIo &io_;
    mutable std::mutex mutex_;
    /** Live submit records, framed as in the file, keyed by id; ids
     *  are monotonic, so map order is submission order — the order
     *  compaction preserves. */
    std::map<JobId, std::string> live_;
    /** Bytes the last rewrite wrote, and bytes of the records retired
     *  since; compaction waits until the second reaches the first. */
    std::uint64_t rewriteBytes_ = 0;
    std::uint64_t retiredBytes_ = 0;
    JournalStats stats_;
};

} // namespace beer::svc

#endif // BEER_SVC_JOURNAL_HH
