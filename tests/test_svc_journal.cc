/**
 * @file
 * Tests for the bounded, checksummed job journal: replay round-trips
 * unfinished submissions, a torn tail is dropped without losing the
 * records before it, a bit-flipped mid-file record is skipped and
 * counted, a duplicated submit replays exactly once, compaction
 * preserves submission order, a thousand jobs of churn stay within
 * the size bound with compactions visible in the stats, and a live
 * backlog larger than the bound does not rewrite the file per record.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "svc/journal.hh"

#include "temp_path.hh"

using beer::svc::JobJournal;
using beer::svc::JournalConfig;
using beer::svc::JournalStats;
using beer::svc::ReplayedJob;

namespace
{

/** Frame a record exactly as the journal does. */
std::string
frame(const std::string &payload)
{
    char crc_hex[9];
    std::snprintf(crc_hex, sizeof crc_hex, "%08x",
                  beer::svc::crc32(payload.data(), payload.size()));
    return std::string(crc_hex) + " " + payload + "\n";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

} // anonymous namespace

TEST(SvcJournal, Crc32MatchesKnownVector)
{
    // The standard IEEE check value: crc32("123456789").
    EXPECT_EQ(beer::svc::crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(beer::svc::crc32("", 0), 0u);
}

TEST(SvcJournal, DisabledJournalNoOps)
{
    JobJournal journal(JournalConfig{});
    EXPECT_FALSE(journal.enabled());
    EXPECT_TRUE(journal.replay().empty());
    EXPECT_TRUE(journal.appendSubmit(1, "payload"));
    journal.appendTerminal(1, true);
    journal.sync();
    EXPECT_EQ(journal.stats().records, 0u);
}

TEST(SvcJournal, ReplayReturnsUnfinishedJobsOnly)
{
    const beer::test::TempFile journal_file("unfinished.log");
    JournalConfig config;
    config.path = journal_file.path;
    {
        JobJournal journal(config);
        EXPECT_TRUE(journal.replay().empty());
        EXPECT_TRUE(journal.appendSubmit(1, "alpha"));
        EXPECT_TRUE(journal.appendSubmit(2, "beta"));
        EXPECT_TRUE(journal.appendSubmit(3, "gamma"));
        journal.appendTerminal(2, /*done=*/true);
        journal.appendTerminal(1, /*done=*/false);
        journal.sync();
    }
    JobJournal restarted(config);
    const std::vector<ReplayedJob> jobs = restarted.replay();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, 3u);
    EXPECT_EQ(jobs[0].payload, "gamma");
    EXPECT_EQ(restarted.stats().liveRecords, 1u);
}

TEST(SvcJournal, TornTailDroppedWithoutLosingEarlierRecords)
{
    const beer::test::TempFile journal_file("torn_tail.log");
    JournalConfig config;
    config.path = journal_file.path;
    // Two good records, then a crash mid-append: only half of the
    // third record's bytes reached the disk.
    const std::string torn = frame("submit 3 gamma");
    writeFile(config.path, frame("submit 1 alpha") +
                               frame("submit 2 beta") +
                               torn.substr(0, torn.size() / 2));

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, 1u);
    EXPECT_EQ(jobs[0].payload, "alpha");
    EXPECT_EQ(jobs[1].id, 2u);
    EXPECT_EQ(jobs[1].payload, "beta");
    const JournalStats stats = journal.stats();
    EXPECT_EQ(stats.tornTail, 1u);
    EXPECT_EQ(stats.crcSkipped, 0u);
}

TEST(SvcJournal, ValidFinalRecordMissingOnlyNewlineIsKept)
{
    const beer::test::TempFile journal_file("no_newline.log");
    JournalConfig config;
    config.path = journal_file.path;
    std::string content = frame("submit 1 alpha") +
                          frame("submit 2 beta");
    content.pop_back(); // drop the final '\n'; the CRC still holds
    writeFile(config.path, content);

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[1].id, 2u);
    EXPECT_EQ(journal.stats().tornTail, 0u);
}

TEST(SvcJournal, BitFlippedMidFileRecordSkippedAndCounted)
{
    const beer::test::TempFile journal_file("bitflip.log");
    JournalConfig config;
    config.path = journal_file.path;
    std::string second = frame("submit 2 beta");
    second[12] ^= 0x01; // flip a payload bit; the CRC now lies
    writeFile(config.path, frame("submit 1 alpha") + second +
                               frame("submit 3 gamma"));

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, 1u);
    EXPECT_EQ(jobs[1].id, 3u);
    const JournalStats stats = journal.stats();
    EXPECT_EQ(stats.crcSkipped, 1u);
    EXPECT_EQ(stats.tornTail, 0u);
}

TEST(SvcJournal, RecordAppendedOntoTornLineIsStillRecovered)
{
    const beer::test::TempFile journal_file("embedded.log");
    JournalConfig config;
    config.path = journal_file.path;
    // A torn append left half a record with NO newline; the next
    // append landed on the same line. The merged line fails its CRC,
    // but the embedded second record must still be found.
    const std::string torn = frame("submit 1 alpha");
    writeFile(config.path,
              torn.substr(0, torn.size() / 2) + frame("submit 2 beta"));

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, 2u);
    EXPECT_EQ(jobs[0].payload, "beta");
}

TEST(SvcJournal, DuplicatedSubmitReplaysExactlyOnce)
{
    const beer::test::TempFile journal_file("duplicate.log");
    JournalConfig config;
    config.path = journal_file.path;
    writeFile(config.path, frame("submit 7 payload") +
                               frame("submit 7 payload") +
                               frame("submit 8 other"));

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, 7u);
    EXPECT_EQ(jobs[1].id, 8u);
}

TEST(SvcJournal, TerminalForUnknownIdIsIgnored)
{
    const beer::test::TempFile journal_file("unknown_terminal.log");
    JournalConfig config;
    config.path = journal_file.path;
    writeFile(config.path,
              frame("done 99") + frame("submit 1 alpha"));

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, 1u);
}

TEST(SvcJournal, ReplayCompactsToLiveRecordsInSubmissionOrder)
{
    const beer::test::TempFile journal_file("compact_order.log");
    JournalConfig config;
    config.path = journal_file.path;
    writeFile(config.path,
              frame("submit 1 a") + frame("submit 2 b") +
                  frame("submit 3 c") + frame("done 2") +
                  frame("submit 4 d") + frame("failed 1"));

    JobJournal journal(config);
    const std::vector<ReplayedJob> jobs = journal.replay();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, 3u);
    EXPECT_EQ(jobs[1].id, 4u);
    EXPECT_GE(journal.stats().compactions, 1u);

    // The on-disk file now holds exactly the two live submits, in
    // submission order — nothing else.
    EXPECT_EQ(readFile(config.path),
              frame("submit 3 c") + frame("submit 4 d"));
    EXPECT_EQ(journal.stats().records, 2u);
}

TEST(SvcJournal, ChurnStaysWithinSizeBoundWithVisibleCompactions)
{
    const beer::test::TempFile journal_file("churn.log");
    JournalConfig config;
    config.path = journal_file.path;
    config.maxBytes = 4096;
    JobJournal journal(config);
    EXPECT_TRUE(journal.replay().empty());

    // 1k jobs submitted and retired; a padded payload makes each
    // record ~64 bytes so an unbounded journal would reach ~128 KiB.
    const std::string payload(48, 'x');
    for (beer::svc::JobId id = 1; id <= 1000; ++id) {
        ASSERT_TRUE(journal.appendSubmit(id, payload));
        journal.appendTerminal(id, /*done=*/(id % 3) != 0);
        const JournalStats stats = journal.stats();
        ASSERT_LE(stats.bytes, config.maxBytes + 2 * 128)
            << "journal exceeded its bound at job " << id;
    }
    const JournalStats stats = journal.stats();
    EXPECT_GE(stats.compactions, 10u);
    EXPECT_EQ(stats.liveRecords, 0u);
    EXPECT_EQ(stats.appendFailures, 0u);

    // Everything retired, so a restart replays nothing.
    JobJournal restarted(config);
    EXPECT_TRUE(restarted.replay().empty());
}

TEST(SvcJournal, RestartSurvivesChurnMidFlight)
{
    const beer::test::TempFile journal_file("midflight.log");
    JournalConfig config;
    config.path = journal_file.path;
    config.maxBytes = 2048;
    {
        JobJournal journal(config);
        EXPECT_TRUE(journal.replay().empty());
        for (beer::svc::JobId id = 1; id <= 200; ++id) {
            ASSERT_TRUE(journal.appendSubmit(id, "work"));
            if (id % 2 == 0) // odd ids stay live across the restart
                journal.appendTerminal(id, true);
        }
        // No sync, no graceful shutdown: the process just dies here.
    }
    JobJournal restarted(config);
    const std::vector<ReplayedJob> jobs = restarted.replay();
    ASSERT_EQ(jobs.size(), 100u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].id, 2 * i + 1);
}

TEST(SvcJournal, LiveBacklogOverTheBoundDoesNotCompactPerRecord)
{
    // Twenty live 300-byte submits already exceed maxBytes. Retiring
    // them must not rewrite the whole file on every terminal record
    // (that was 17 rewrites): a rewrite waits until as many bytes have
    // retired as the previous rewrite wrote.
    const beer::test::TempFile journal_file("backlog.log");
    JournalConfig config;
    config.path = journal_file.path;
    config.maxBytes = 1024;
    JobJournal journal(config);
    EXPECT_TRUE(journal.replay().empty());

    const std::string payload(300, 'p');
    for (beer::svc::JobId id = 1; id <= 20; ++id)
        ASSERT_TRUE(journal.appendSubmit(id, payload));
    for (beer::svc::JobId id = 1; id <= 20; ++id)
        journal.appendTerminal(id, /*done=*/true);

    const JournalStats stats = journal.stats();
    EXPECT_GE(stats.compactions, 1u);
    EXPECT_LE(stats.compactions, 2u);
    EXPECT_EQ(stats.liveRecords, 0u);
    EXPECT_EQ(stats.appendFailures, 0u);
    JobJournal restarted(config);
    EXPECT_TRUE(restarted.replay().empty());
}
