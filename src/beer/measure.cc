#include "beer/measure.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "dram/types.hh"
#include "sim/word_sim.hh"
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
 * where its lane bits differ from data[pos], so the count is a
 * popcount of row XOR fill — identical arithmetic to the scalar
 * per-read loop, just 64 words at a time. Planes are independent and
 * the adds are integer, so sharding over @p pool is bit-identical at
 * any thread count.
 */
void
countMismatchesPlanar(const dram::PlanarReadBatch &batch,
                      const BitVec &data, std::size_t k,
                      std::vector<std::uint64_t> &error_counts,
                      util::ThreadPool *pool)
{
    const std::size_t lanes = batch.laneWords;
    const std::uint64_t tail =
        batch.count % 64 == 0
            ? ~std::uint64_t{0}
            : (~std::uint64_t{0} >> (64 - batch.count % 64));
    const auto countPlane = [&](std::size_t pos) {
        const std::uint64_t *row = batch.row(pos);
        const bool expected = data.get(pos);
        std::uint64_t mismatches = 0;
        for (std::size_t lw = 0; lw < lanes; ++lw) {
            std::uint64_t v = row[lw];
            if (expected)
                v ^= lw + 1 == lanes ? tail : ~std::uint64_t{0};
            mismatches += (std::uint64_t)__builtin_popcountll(v);
        }
        error_counts[pos] += mismatches;
    };
    if (pool)
        pool->parallelFor(k, countPlane);
    else
        for (std::size_t pos = 0; pos < k; ++pos)
            countPlane(pos);
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
 * Quorum voting for one experiment. @p reads holds the first vote on
 * entry and the per-(word, bit) majority on return; additional votes
 * are read only here, so disabled quorum never reaches this function
 * and the historical single-read operation sequence is preserved
 * exactly.
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
           const QuorumConfig &quorum, std::vector<BitVec> &reads,
           double estimate, std::uint64_t prior_disagreements,
           std::uint64_t prior_experiments)
{
    const std::size_t k = mem.datawordBits();
    const std::size_t base =
        quorum.adaptive ? std::max<std::size_t>(2, quorum.votes)
                        : quorum.votes;
    std::vector<std::vector<BitVec>> votes;
    votes.push_back(reads);

    QuorumOutcome outcome;
    std::vector<BitVec> extra;
    for (std::size_t v = 1; v < base; ++v) {
        mem.readDatawords(words.data(), words.size(), extra);
        outcome.disagreed = outcome.disagreed || extra != votes.front();
        votes.push_back(extra);
    }
    outcome.reads = votes.size();
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
    while (votes.size() < target) {
        mem.readDatawords(words.data(), words.size(), extra);
        votes.push_back(extra);
    }
    outcome.reads = votes.size();

    // Per-(word, bit) majority; ties resolve to the first vote.
    const std::size_t n = votes.size();
    for (std::size_t w = 0; w < reads.size(); ++w) {
        for (std::size_t bit = 0; bit < k; ++bit) {
            std::size_t set = 0;
            for (std::size_t v = 0; v < n; ++v)
                if (votes[v][w].get(bit))
                    ++set;
            const bool majority = 2 * set == n
                                      ? votes.front()[w].get(bit)
                                      : 2 * set > n;
            reads[w].set(bit, majority);
        }
    }
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
    std::vector<std::size_t> words = words_under_test;
    if (words.empty()) {
        words.resize(mem.numWords());
        std::iota(words.begin(), words.end(), (std::size_t)0);
    }
    BEER_ASSERT(!words.empty());

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

    std::vector<BitVec> reads;
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
                // Planar fast path (single-vote only; quorum majority
                // logic wants materialized datawords): backends whose
                // read results already live in bit-plane layout (the
                // transposed simulated chip, v2 trace replay) hand the
                // frame over zero-copy and the mismatch counting runs
                // plane-parallel. Bookkeeping
                // is identical to the scalar branch below, and the
                // counting arithmetic is the same adds in a different
                // order-free grouping, so counts are bit-identical.
                dram::PlanarReadBatch planar;
                if (!use_quorum &&
                    mem.readDatawordsPlanar(words.data(), words.size(),
                                            planar)) {
                    ++counts.votesSpent[p];
                    ++estimator.votesSpent;
                    ++experiments;
                    counts.wordsTested[p] += words.size();
                    countMismatchesPlanar(planar, data, k,
                                          counts.errorCounts[p],
                                          config.pool);
                    continue;
                }
                mem.readDatawords(words.data(), words.size(), reads);
                if (use_quorum) {
                    const QuorumOutcome outcome = quorumVote(
                        mem, words, config.quorum, reads,
                        estimator.rate, counts.disagreements[p],
                        experiments);
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
                    ++counts.votesSpent[p];
                    ++estimator.votesSpent;
                }
                ++experiments;
                counts.wordsTested[p] += words.size();
                for (const BitVec &read : reads) {
                    if (read == data)
                        continue;
                    for (std::size_t bit = 0; bit < k; ++bit)
                        if (read.get(bit) != data.get(bit))
                            ++counts.errorCounts[p][bit];
                }
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

/** Parse an unsigned integer from trace metadata; fatal on garbage. */
std::size_t
parseMetaSize(const std::string &text, const char *what)
{
    try {
        std::size_t consumed = 0;
        const unsigned long value = std::stoul(text, &consumed);
        if (consumed != text.size())
            throw std::invalid_argument(text);
        return (std::size_t)value;
    } catch (const std::exception &) {
        util::fatal("trace meta: malformed %s value '%s'", what,
                    text.c_str());
    }
}

/** Parse a double from trace metadata; fatal on garbage. */
double
parseMetaDouble(const std::string &text, const char *what)
{
    try {
        std::size_t consumed = 0;
        const double value = std::stod(text, &consumed);
        if (consumed != text.size())
            throw std::invalid_argument(text);
        return value;
    } catch (const std::exception &) {
        util::fatal("trace meta: malformed %s value '%s'", what,
                    text.c_str());
    }
}

std::string
serializePattern(const TestPattern &pattern)
{
    if (pattern.empty())
        return "-";
    std::string out;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(pattern[i]);
    }
    return out;
}

TestPattern
parsePattern(const std::string &text)
{
    TestPattern pattern;
    if (text == "-")
        return pattern;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t next = text.find(',', pos);
        if (next == std::string::npos)
            next = text.size();
        pattern.push_back(parseMetaSize(text.substr(pos, next - pos),
                                        "pattern bit"));
        pos = next + 1;
    }
    return pattern;
}

std::vector<double>
parseDoubleCsv(const std::string &text, const char *what)
{
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t next = text.find(',', pos);
        if (next == std::string::npos)
            next = text.size();
        out.push_back(
            parseMetaDouble(text.substr(pos, next - pos), what));
        pos = next + 1;
    }
    return out;
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
                   std::ostream &out)
{
    return recordProfileTrace(mem, patterns, config, words_under_test,
                              out,
                              dram::TraceWriteOptions{
                                  dram::TraceFormat::V1, true});
}

ProfileCounts
recordProfileTrace(dram::MemoryInterface &mem,
                   const std::vector<TestPattern> &patterns,
                   const MeasureConfig &config,
                   const std::vector<std::size_t> &words_under_test,
                   std::ostream &out,
                   const dram::TraceWriteOptions &trace_options)
{
    dram::TraceRecorder recorder(mem, out, trace_options);

    std::string pauses;
    for (std::size_t i = 0; i < config.pausesSeconds.size(); ++i) {
        if (i)
            pauses += ',';
        pauses += formatTraceDouble(config.pausesSeconds[i]);
    }
    recorder.writeMeta("measure-pauses " + pauses);
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

    std::string serialized;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        if (i)
            serialized += ';';
        serialized += serializePattern(patterns[i]);
    }
    recorder.writeMeta("patterns " + serialized);

    std::string words;
    for (std::size_t i = 0; i < words_under_test.size(); ++i) {
        if (i)
            words += ',';
        words += std::to_string(words_under_test[i]);
    }
    recorder.writeMeta("words " + (words.empty() ? "all" : words));

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
    config.pausesSeconds = parseDoubleCsv(*pauses, "measure-pauses");
    config.temperatureC = parseMetaDouble(*temp, "measure-temp");
    config.repeatsPerPause =
        parseMetaSize(*repeats, "measure-repeats");
    if (const auto threshold = metaValue(trace, "measure-threshold"))
        config.thresholdProbability =
            parseMetaDouble(*threshold, "measure-threshold");
    if (const auto quorum = metaValue(trace, "measure-quorum")) {
        std::vector<std::string> fields;
        std::size_t pos = 0;
        while (pos <= quorum->size()) {
            std::size_t next = quorum->find(',', pos);
            if (next == std::string::npos)
                next = quorum->size();
            fields.push_back(quorum->substr(pos, next - pos));
            pos = next + 1;
        }
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
    std::size_t pos = 0;
    while (pos <= serialized->size()) {
        std::size_t next = serialized->find(';', pos);
        if (next == std::string::npos)
            next = serialized->size();
        patterns.push_back(
            parsePattern(serialized->substr(pos, next - pos)));
        pos = next + 1;
    }

    std::vector<std::size_t> words;
    const auto words_text = metaValue(trace, "words");
    if (words_text && *words_text != "all") {
        std::size_t at = 0;
        while (at < words_text->size()) {
            std::size_t next = words_text->find(',', at);
            if (next == std::string::npos)
                next = words_text->size();
            words.push_back(parseMetaSize(
                words_text->substr(at, next - at), "words"));
            at = next + 1;
        }
    }

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
