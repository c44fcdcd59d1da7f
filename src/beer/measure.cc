#include "beer/measure.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dram/types.hh"
#include "sim/stats_reduce.hh"
#include "sim/word_sim.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/signal.hh"
#include "util/thread_pool.hh"

namespace beer
{

using gf2::BitVec;

MiscorrectionProfile
ProfileCounts::threshold(double min_probability) const
{
    MiscorrectionProfile profile;
    profile.k = k;
    profile.patterns.reserve(patterns.size());
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        PatternProfile entry;
        entry.pattern = patterns[p];
        entry.suspect = suspect(p);
        entry.miscorrectable = BitVec(k);
        for (std::size_t bit = 0; bit < k; ++bit) {
            if (patternContains(patterns[p], bit))
                continue;
            if (probability(p, bit) > min_probability)
                entry.miscorrectable.set(bit, true);
        }
        profile.patterns.push_back(std::move(entry));
    }
    return profile;
}

double
ProfileCounts::probability(std::size_t pattern_idx, std::size_t bit) const
{
    BEER_ASSERT(pattern_idx < patterns.size() && bit < k);
    if (wordsTested[pattern_idx] == 0)
        return 0.0;
    return (double)errorCounts[pattern_idx][bit] /
           (double)wordsTested[pattern_idx];
}

void
ProfileCounts::merge(const ProfileCounts &other, MergeMode mode)
{
    if (k == 0 && patterns.empty()) {
        *this = other;
        return;
    }
    BEER_ASSERT(k == other.k);

    // Pre-quorum producers leave disagreements/votesSpent empty;
    // normalize to dense zero vectors so merging mixed-provenance
    // counts is safe.
    disagreements.resize(patterns.size(), 0);
    votesSpent.resize(patterns.size(), 0);
    const auto otherDisagreements = [&other](std::size_t p) {
        return p < other.disagreements.size() ? other.disagreements[p]
                                              : (std::uint64_t)0;
    };
    const auto otherVotesSpent = [&other](std::size_t p) {
        return p < other.votesSpent.size() ? other.votesSpent[p]
                                           : (std::uint64_t)0;
    };

    std::unordered_map<TestPattern, std::size_t, TestPatternHash> index;
    index.reserve(patterns.size() + other.patterns.size());
    for (std::size_t p = 0; p < patterns.size(); ++p)
        index.emplace(patterns[p], p);

    for (std::size_t p = 0; p < other.patterns.size(); ++p) {
        const auto it = index.find(other.patterns[p]);
        if (it == index.end()) {
            index.emplace(other.patterns[p], patterns.size());
            patterns.push_back(other.patterns[p]);
            errorCounts.push_back(other.errorCounts[p]);
            wordsTested.push_back(other.wordsTested[p]);
            disagreements.push_back(otherDisagreements(p));
            votesSpent.push_back(otherVotesSpent(p));
            continue;
        }
        // Overlap under AppendDisjoint is a caller bug: the caller
        // promised fresh patterns, and silently accumulating would
        // change this pattern's probability denominator.
#ifndef NDEBUG
        BEER_ASSERT(mode != MergeMode::AppendDisjoint);
#else
        (void)mode;
#endif
        const std::size_t at = it->second;
        wordsTested[at] += other.wordsTested[p];
        disagreements[at] += otherDisagreements(p);
        votesSpent[at] += otherVotesSpent(p);
        for (std::size_t bit = 0; bit < k; ++bit)
            errorCounts[at][bit] += other.errorCounts[p][bit];
    }
}

std::uint64_t
ProfileCounts::totalObservations() const
{
    return std::accumulate(wordsTested.begin(), wordsTested.end(),
                           (std::uint64_t)0);
}

std::uint64_t
ProfileCounts::totalDisagreements() const
{
    return std::accumulate(disagreements.begin(), disagreements.end(),
                           (std::uint64_t)0);
}

std::uint64_t
ProfileCounts::totalVotesSpent() const
{
    return std::accumulate(votesSpent.begin(), votesSpent.end(),
                           (std::uint64_t)0);
}

void
ProfileCounts::removePatterns(const std::vector<TestPattern> &to_remove)
{
    if (to_remove.empty())
        return;
    std::unordered_map<TestPattern, std::size_t, TestPatternHash> gone;
    gone.reserve(to_remove.size());
    for (const TestPattern &pattern : to_remove)
        gone.emplace(pattern, 0);

    disagreements.resize(patterns.size(), 0);
    votesSpent.resize(patterns.size(), 0);
    std::size_t out = 0;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        if (gone.count(patterns[p]))
            continue;
        if (out != p) {
            patterns[out] = std::move(patterns[p]);
            errorCounts[out] = std::move(errorCounts[p]);
            wordsTested[out] = wordsTested[p];
            disagreements[out] = disagreements[p];
            votesSpent[out] = votesSpent[p];
        }
        ++out;
    }
    patterns.resize(out);
    errorCounts.resize(out);
    wordsTested.resize(out);
    disagreements.resize(out);
    votesSpent.resize(out);
}

MeasureConfig
MeasureConfig::paperDefault()
{
    MeasureConfig config;
    for (int minutes = 2; minutes <= 22; ++minutes)
        config.pausesSeconds.push_back(60.0 * minutes);
    config.temperatureC = 80.0;
    return config;
}

void
majorityVotePlanar(std::uint64_t *votes, std::size_t n,
                   std::size_t frame_words)
{
    for (std::size_t w = 0; w < frame_words; ++w) {
        std::uint64_t differs = 0;
        for (std::size_t v = 1; v < n; ++v)
            differs |= votes[v * frame_words + w] ^ votes[w];
        for (; differs != 0; differs &= differs - 1) {
            const std::uint64_t bit = differs & (~differs + 1);
            std::size_t set = 0;
            for (std::size_t v = 0; v < n; ++v)
                set += (votes[v * frame_words + w] & bit) != 0;
            // Ties keep the first vote's bit, i.e. flip nothing.
            if (2 * set != n && (2 * set > n) != ((votes[w] & bit) != 0))
                votes[w] ^= bit;
        }
    }
}

namespace
{

ProfileCounts
emptyCounts(std::size_t k, const std::vector<TestPattern> &patterns)
{
    ProfileCounts counts;
    counts.k = k;
    counts.patterns = patterns;
    counts.errorCounts.assign(patterns.size(),
                              std::vector<std::uint64_t>(k, 0));
    counts.wordsTested.assign(patterns.size(), 0);
    counts.disagreements.assign(patterns.size(), 0);
    counts.votesSpent.assign(patterns.size(), 0);
    return counts;
}

/**
 * Count per-bit mismatches of one planar read batch against the
 * written dataword, adding into @p error_counts. Plane pos mismatches
 * where its lane bits differ from data[pos]: one @p popcount row
 * reduction over the full lane words (complemented when data[pos] is
 * set) plus the tail-masked last lane word. Planes are independent
 * and the adds are integer, so sharding over @p pool is bit-identical
 * at any thread count and under every kernel.
 */
void
countMismatchesPlanar(const dram::PlanarReadBatch &batch,
                      const BitVec &data, std::size_t k,
                      const sim::StatsReduceKernel &popcount,
                      std::vector<std::uint64_t> &error_counts,
                      util::ThreadPool *pool)
{
    if (batch.laneWords == 0)
        return;
    const std::size_t full = batch.laneWords - 1;
    const std::uint64_t tail =
        ~std::uint64_t{0} >> ((64 - batch.count % 64) % 64);
    const auto countPlane = [&](std::size_t pos) {
        const std::uint64_t *row = batch.row(pos);
        const bool expected = data.get(pos);
        const std::uint64_t set = popcount.rowPopcount(row, full);
        error_counts[pos] +=
            (expected ? 64 * full - set : set) +
            (std::uint64_t)util::popcount64(row[full] ^ (expected ? tail : 0));
    };
    if (pool)
        pool->parallelFor(k, countPlane);
    else
        for (std::size_t pos = 0; pos < k; ++pos)
            countPlane(pos);
}

/** Reused read buffers: quorum vote frames laid end to end, and a
 *  declining backend's datawords with their transposed frame. */
struct SweepFrames
{
    std::vector<std::uint64_t> votes;
    std::vector<BitVec> datawords;
    std::vector<std::uint64_t> transposed;
};

/** One read sweep as a bit-plane frame: the backend's view, else its
 *  datawords transposed. Valid until the next backend operation. */
dram::PlanarReadBatch
readSweep(dram::MemoryInterface &mem, const std::vector<std::size_t> &words,
          std::size_t k, SweepFrames &frames)
{
    dram::PlanarReadBatch batch;
    if (mem.readDatawordsPlanar(words.data(), words.size(), batch))
        return batch;
    mem.readDatawords(words.data(), words.size(), frames.datawords);
    return dram::PlanarReadBatch::fromDatawords(
        frames.datawords.data(), words.size(), k, frames.transposed);
}

/** One experiment's quorum verdict (see quorumVote). */
struct QuorumOutcome
{
    /** Any two votes returned differing data. */
    bool disagreed = false;
    /** Dataword read sweeps this experiment spent in total. */
    std::size_t reads = 1;
    /** The experiment escalated to the full vote count. */
    bool escalated = false;
};

/**
 * Quorum voting for one experiment: reads every vote into
 * frames.votes and leaves the per-(word, bit) majority in the first.
 * Only quorum runs reach this function, so disabled quorum keeps the
 * historical single-read operation sequence exactly.
 *
 * Fixed policy (quorum.adaptive == false): quorum.votes base reads,
 * any disagreement escalates straight to @c escalatedVotes.
 *
 * Adaptive policy: max(2, votes) base reads; on disagreement the
 * pattern's own smoothed disagreement rate — (@p prior_disagreements
 * + 1) / (@p prior_experiments + 1), counting this experiment — is
 * compared against @p estimate + quorum.escalateMargin. Only patterns
 * above the margin pay the full escalation; the rest settle for a
 * quorum.confirmVotes majority (enough to outvote one transient
 * flip). Zero-noise runs never disagree, so the first vote's data is
 * used unchanged and the counts stay bit-identical to votes == 1.
 */
QuorumOutcome
quorumVote(dram::MemoryInterface &mem,
           const std::vector<std::size_t> &words,
           const QuorumConfig &quorum, double estimate,
           std::uint64_t prior_disagreements,
           std::uint64_t prior_experiments, SweepFrames &frames)
{
    const std::size_t k = mem.datawordBits();
    const std::size_t lanes = (words.size() + 63) / 64;
    const std::size_t frame_words = k * lanes;
    const std::size_t base =
        quorum.adaptive ? std::max<std::size_t>(2, quorum.votes)
                        : quorum.votes;
    frames.votes.resize(
        std::max({base, quorum.confirmVotes, quorum.escalatedVotes}) *
        frame_words);

    // Each vote is copied out of the backend's view, which dies at
    // the next read. Returns whether it differs from the first vote.
    std::size_t n = 0;
    const auto readVote = [&] {
        const auto batch = readSweep(mem, words, k, frames);
        std::uint64_t *vote = frames.votes.data() + n++ * frame_words;
        for (std::size_t pos = 0; pos < k; ++pos)
            std::copy_n(batch.row(pos), lanes, vote + pos * lanes);
        return !std::equal(vote, vote + frame_words,
                           frames.votes.data());
    };

    QuorumOutcome outcome;
    while (n < base)
        outcome.disagreed = readVote() || outcome.disagreed;
    outcome.reads = n;
    if (!outcome.disagreed)
        return outcome;

    // Buy more votes before taking the majority; clean experiments
    // never pay these reads. Under the adaptive policy the full
    // escalation is reserved for patterns disagreeing measurably more
    // often than the session as a whole.
    std::size_t target;
    if (!quorum.adaptive) {
        target = std::max(base, quorum.escalatedVotes);
        outcome.escalated = true;
    } else {
        const double observed =
            (double)(prior_disagreements + 1) /
            (double)(prior_experiments + 1);
        if (observed > estimate + quorum.escalateMargin) {
            target = std::max({base, quorum.confirmVotes,
                               quorum.escalatedVotes});
            outcome.escalated = true;
        } else {
            target = std::max(base, quorum.confirmVotes);
        }
    }
    while (n < target)
        readVote();
    outcome.reads = n;
    majorityVotePlanar(frames.votes.data(), n, frame_words);
    return outcome;
}

} // anonymous namespace

ProfileCounts
measureProfile(dram::MemoryInterface &mem,
               const std::vector<TestPattern> &patterns,
               const MeasureConfig &config,
               const std::vector<std::size_t> &words_under_test)
{
    const std::size_t k = mem.datawordBits();
    ProfileCounts counts = emptyCounts(k, patterns);

    // The adaptive schedule depends only on the estimator's seed
    // state and the observed read data: work on a local copy and
    // write it back on return, so a recorded run and its trace replay
    // (which reconstructs the seed from the trace meta) make the same
    // escalation decisions read for read.
    const bool use_quorum =
        config.quorum.votes > 1 || config.quorum.adaptive;
    QuorumEstimator estimator;
    if (config.estimator)
        estimator = *config.estimator;
    else
        estimator.rate = config.quorum.initialEstimate;

    // The paper's methodology tests true-cell regions (Section 5.1.3).
    // The caller supplies that subset — from discoverCellTypes() on
    // real/unknown backends, or dram::trueCellWords() in simulation; an
    // empty selection means "every word" (all-true-cell backends).
    std::vector<std::size_t> every_word(
        words_under_test.empty() ? mem.numWords() : 0);
    std::iota(every_word.begin(), every_word.end(), (std::size_t)0);
    const std::vector<std::size_t> &words =
        words_under_test.empty() ? every_word : words_under_test;
    BEER_ASSERT(!words.empty());
    // Resolved once per call: resolution reads the environment.
    const sim::StatsReduceKernel &popcount = sim::statsReduceKernel();

    // Fill and read through the batched interface seams: on the
    // transposed simulated chip both run on whole lane words (fills
    // broadcast into the planes, reads decode plane windows through
    // the wide kernel into a bit-plane frame, sharded over the chip's
    // worker threads);
    // everywhere else the default per-word loops keep the operation
    // sequence — and any recorded trace — identical to before.
    const auto writeBackEstimator = [&] {
        if (config.estimator)
            *config.estimator = estimator;
    };

    SweepFrames frames;
    const std::size_t lanes = (words.size() + 63) / 64;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
        // Honor a pending SIGINT/SIGTERM between patterns: a partial
        // profile still thresholds into usable constraints, whereas
        // dying mid-pattern would skew that pattern's denominator.
        if (util::shutdownRequested()) {
            util::warn("measurement interrupted: returning %zu of "
                       "%zu patterns",
                       p, patterns.size());
            break;
        }
        const BitVec data = datawordForPattern(patterns[p], k,
                                               dram::CellType::True);
        std::uint64_t experiments = 0;
        for (double pause : config.pausesSeconds) {
            for (std::size_t rep = 0; rep < config.repeatsPerPause;
                 ++rep) {
                if (config.cancel && config.cancel()) {
                    writeBackEstimator();
                    return counts;
                }
                mem.writeDatawordsBroadcast(words.data(), words.size(),
                                            data);
                mem.pauseRefresh(pause, config.temperatureC);
                // Every read is a bit-plane frame (the backend's view,
                // a declining backend's datawords transposed, or the
                // quorum majority), counted by one popcount path.
                dram::PlanarReadBatch batch;
                if (use_quorum) {
                    const QuorumOutcome outcome = quorumVote(
                        mem, words, config.quorum, estimator.rate,
                        counts.disagreements[p], experiments, frames);
                    batch = {frames.votes.data(), lanes, lanes, words.size()};
                    if (outcome.disagreed)
                        ++counts.disagreements[p];
                    counts.votesSpent[p] += outcome.reads;
                    estimator.votesSpent += outcome.reads;
                    if (config.quorum.adaptive)
                        estimator.observe(outcome.disagreed,
                                          config.quorum.ewmaAlpha);
                    if (outcome.escalated)
                        ++estimator.escalations;
                    else if (outcome.disagreed)
                        ++estimator.confirmations;
                } else {
                    batch = readSweep(mem, words, k, frames);
                    ++counts.votesSpent[p];
                    ++estimator.votesSpent;
                }
                ++experiments;
                counts.wordsTested[p] += words.size();
                countMismatchesPlanar(batch, data, k, popcount,
                                      counts.errorCounts[p],
                                      config.pool);
            }
        }
    }
    writeBackEstimator();
    return counts;
}

ProfileCounts
measureProfileOnChip(dram::Chip &chip,
                     const std::vector<TestPattern> &patterns,
                     const MeasureConfig &config)
{
    const std::vector<std::size_t> words = dram::trueCellWords(chip);
    BEER_ASSERT(!words.empty());
    return measureProfile(chip, patterns, config, words);
}

namespace
{

using dram::formatTraceDouble;

/**
 * Parse a trace-meta number with @p parse (std::stoul or std::stod);
 * fatal on garbage or trailing characters.
 */
template <typename Parse>
auto
parseMeta(const std::string &text, const char *what, Parse parse)
{
    try {
        std::size_t consumed = 0;
        const auto value = parse(text, &consumed);
        if (consumed != text.size())
            throw std::invalid_argument(text);
        return value;
    } catch (const std::exception &) {
        util::fatal("trace meta: malformed %s value '%s'", what,
                    text.c_str());
    }
}

std::size_t
parseMetaSize(const std::string &text, const char *what)
{
    return parseMeta(text, what, [](const std::string &t, std::size_t *n) {
        return (std::size_t)std::stoul(t, n);
    });
}

double
parseMetaDouble(const std::string &text, const char *what)
{
    return parseMeta(text, what, [](const std::string &t, std::size_t *n) {
        return std::stod(t, n);
    });
}

/** @p items, each rendered by @p format, joined with @p sep. */
template <typename Items, typename Format>
std::string
joinFields(const Items &items, char sep, Format format)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += format(items[i]);
    }
    return out;
}

/** Comma-separated decimals of @p values, or @p if_empty. */
std::string
joinSizes(const std::vector<std::size_t> &values, const char *if_empty)
{
    if (values.empty())
        return if_empty;
    return joinFields(values, ',',
                      [](std::size_t v) { return std::to_string(v); });
}

/**
 * Fields of @p text split at @p sep. An empty last field counts only
 * when @p keep_empty_last is set, so "" splits into one empty field
 * then and into none otherwise.
 */
std::vector<std::string>
splitFields(const std::string &text, char sep, bool keep_empty_last)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (pos < text.size() || (keep_empty_last && pos == text.size())) {
        std::size_t next = text.find(sep, pos);
        if (next == std::string::npos)
            next = text.size();
        fields.push_back(text.substr(pos, next - pos));
        pos = next + 1;
    }
    return fields;
}

TestPattern
parsePattern(const std::string &text)
{
    TestPattern pattern;
    if (text == "-")
        return pattern;
    for (const std::string &field : splitFields(text, ',', false))
        pattern.push_back(parseMetaSize(field, "pattern bit"));
    return pattern;
}

/** Value of the meta line "<key> <value>", if present. */
std::optional<std::string>
metaValue(const dram::TraceReplayBackend &trace, const std::string &key)
{
    for (const std::string &line : trace.metaLines()) {
        if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
            line[key.size()] == ' ')
            return line.substr(key.size() + 1);
    }
    return std::nullopt;
}

} // anonymous namespace

ProfileCounts
recordProfileTrace(dram::MemoryInterface &mem,
                   const std::vector<TestPattern> &patterns,
                   const MeasureConfig &config,
                   const std::vector<std::size_t> &words_under_test,
                   std::ostream &out,
                   const dram::TraceWriteOptions &trace_options)
{
    dram::TraceRecorder recorder(mem, out, trace_options);

    recorder.writeMeta("measure-pauses " +
                       joinFields(config.pausesSeconds, ',',
                                  formatTraceDouble));
    recorder.writeMeta("measure-temp " + formatTraceDouble(config.temperatureC));
    recorder.writeMeta("measure-repeats " +
                       std::to_string(config.repeatsPerPause));
    recorder.writeMeta("measure-threshold " +
                       formatTraceDouble(config.thresholdProbability));
    // Only quorum runs carry the meta line, keeping pre-quorum traces
    // byte-identical. Replay re-derives escalation from the recorded
    // read data itself, so the knobs alone reconstruct the schedule;
    // adaptive runs additionally persist the estimator seed (the only
    // other input to their escalation decisions).
    if (config.quorum.votes > 1 || config.quorum.adaptive) {
        std::string meta =
            "measure-quorum " + std::to_string(config.quorum.votes) +
            "," + std::to_string(config.quorum.escalatedVotes);
        if (config.quorum.adaptive) {
            const double seed_rate =
                config.estimator ? config.estimator->rate
                                 : config.quorum.initialEstimate;
            meta += ",adaptive," +
                    formatTraceDouble(config.quorum.ewmaAlpha) + "," +
                    formatTraceDouble(config.quorum.escalateMargin) +
                    "," + std::to_string(config.quorum.confirmVotes) +
                    "," + formatTraceDouble(seed_rate);
        }
        recorder.writeMeta(meta);
    }

    recorder.writeMeta(
        "patterns " + joinFields(patterns, ';', [](const TestPattern &p) {
            return joinSizes(p, "-");
        }));
    recorder.writeMeta("words " + joinSizes(words_under_test, "all"));

    return measureProfile(recorder, patterns, config, words_under_test);
}

MeasureConfig
traceMeasureConfig(const dram::TraceReplayBackend &trace)
{
    const auto pauses = metaValue(trace, "measure-pauses");
    const auto temp = metaValue(trace, "measure-temp");
    const auto repeats = metaValue(trace, "measure-repeats");
    if (!pauses || !temp || !repeats)
        util::fatal("trace carries no measurement plan (missing "
                    "measure-* meta lines); was it recorded with "
                    "recordProfileTrace()?");

    MeasureConfig config;
    for (const std::string &field : splitFields(*pauses, ',', false))
        config.pausesSeconds.push_back(
            parseMetaDouble(field, "measure-pauses"));
    config.temperatureC = parseMetaDouble(*temp, "measure-temp");
    config.repeatsPerPause =
        parseMetaSize(*repeats, "measure-repeats");
    if (const auto threshold = metaValue(trace, "measure-threshold"))
        config.thresholdProbability =
            parseMetaDouble(*threshold, "measure-threshold");
    if (const auto quorum = metaValue(trace, "measure-quorum")) {
        const auto fields = splitFields(*quorum, ',', true);
        if (fields.size() < 2 ||
            (fields.size() > 2 &&
             (fields.size() != 7 || fields[2] != "adaptive")))
            util::fatal("trace meta: malformed measure-quorum '%s'",
                        quorum->c_str());
        config.quorum.votes =
            parseMetaSize(fields[0], "measure-quorum votes");
        config.quorum.escalatedVotes =
            parseMetaSize(fields[1], "measure-quorum escalation");
        if (fields.size() == 7) {
            config.quorum.adaptive = true;
            config.quorum.ewmaAlpha =
                parseMetaDouble(fields[3], "measure-quorum alpha");
            config.quorum.escalateMargin =
                parseMetaDouble(fields[4], "measure-quorum margin");
            config.quorum.confirmVotes = parseMetaSize(
                fields[5], "measure-quorum confirm votes");
            config.quorum.initialEstimate = parseMetaDouble(
                fields[6], "measure-quorum seed estimate");
        }
    }
    return config;
}

ProfileCounts
replayProfileTrace(dram::TraceReplayBackend &trace,
                   util::ThreadPool *pool)
{
    MeasureConfig config = traceMeasureConfig(trace);
    config.pool = pool;

    const auto serialized = metaValue(trace, "patterns");
    if (!serialized)
        util::fatal("trace carries no 'patterns' meta line");
    std::vector<TestPattern> patterns;
    for (const std::string &field : splitFields(*serialized, ';', true))
        patterns.push_back(parsePattern(field));

    std::vector<std::size_t> words;
    const auto words_text = metaValue(trace, "words");
    if (words_text && *words_text != "all")
        for (const std::string &field : splitFields(*words_text, ',', false))
            words.push_back(parseMetaSize(field, "words"));

    ProfileCounts counts = measureProfile(trace, patterns, config, words);
    if (!trace.atEnd())
        util::warn("trace replay finished with %zu unconsumed "
                   "operations",
                   trace.remainingOps());
    return counts;
}

ProfileCounts
measureProfileSim(const ecc::LinearCode &code,
                  const std::vector<TestPattern> &patterns, double ber,
                  std::uint64_t words_per_pattern, util::Rng &rng,
                  const sim::SimConfig &sim_config)
{
    const std::size_t k = code.k();
    ProfileCounts counts = emptyCounts(k, patterns);

    // One pool for the whole sweep rather than one per pattern.
    sim::SimConfig config = sim_config;
    std::optional<util::ThreadPool> sweep_pool;
    if (!config.pool && config.threads != 1) {
        sweep_pool.emplace(config.threads);
        config.pool = &*sweep_pool;
    }

    for (std::size_t p = 0; p < patterns.size(); ++p) {
        const BitVec data = datawordForPattern(patterns[p], k,
                                               dram::CellType::True);
        const BitVec codeword = code.encode(data);
        const BitVec mask =
            sim::chargedMask(codeword, dram::CellType::True);
        const sim::WordSimStats stats = sim::simulateRetentionErrors(
            code, codeword, mask, ber, words_per_pattern, rng,
            config);
        counts.wordsTested[p] = stats.wordsSimulated;
        for (std::size_t bit = 0; bit < k; ++bit)
            counts.errorCounts[p][bit] +=
                stats.postCorrectionErrors[bit];
    }
    return counts;
}

} // namespace beer
