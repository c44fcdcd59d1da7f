/**
 * @file
 * Chaos tests for noise-hardened recovery: the quorum-read measurement
 * path, the session's UNSAT-core repair loop, and the graceful
 * degradation diagnosis must survive a FaultInjectionProxy configured
 * as an adversarial backend — and the whole stack must stay
 * bit-identical to the clean path when every chaos knob is at its
 * default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "beer/beer.hh"
#include "beer/session.hh"
#include "dram/chip.hh"
#include "dram/fault_proxy.hh"
#include "dram/trace.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"

#include "scalar_only.hh"

using namespace beer;
using beer::dram::ChipConfig;
using beer::dram::FaultInjectionConfig;
using beer::dram::FaultInjectionProxy;
using beer::dram::makeVendorConfig;
using beer::dram::SimulatedChip;

namespace
{

ChipConfig
testChipConfig(char vendor, std::size_t k, std::uint64_t seed)
{
    ChipConfig config = makeVendorConfig(vendor, k, seed);
    config.map.rows = 64;
    config.iidErrors = true;
    return config;
}

MeasureConfig
fastMeasure(const SimulatedChip &chip)
{
    MeasureConfig measure;
    measure.pausesSeconds.clear();
    for (double ber : {0.05, 0.15, 0.3})
        measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    measure.repeatsPerPause = 25;
    measure.thresholdProbability = 1e-4;
    return measure;
}

/** The exhaustive (ground-truth) profile of @p code over 1-CHARGED
 *  patterns — what an ideal noise-free measurement converges to. */
MiscorrectionProfile
exhaustiveProfile(const ecc::LinearCode &code, std::size_t k)
{
    MiscorrectionProfile profile;
    profile.k = k;
    // {1,2}-CHARGED: the union the paper proves unique for shortened
    // codes (1-CHARGED alone is ambiguous at k=8).
    for (const TestPattern &pattern : chargedPatternUnion(k, {1, 2})) {
        PatternProfile entry;
        entry.pattern = pattern;
        entry.miscorrectable = gf2::BitVec(k);
        for (std::size_t bit = 0; bit < k; ++bit) {
            if (patternContains(pattern, bit))
                continue;
            if (miscorrectionPossible(code, pattern, bit))
                entry.miscorrectable.set(bit, true);
        }
        profile.patterns.push_back(std::move(entry));
    }
    return profile;
}

/** FNV-1a over @p bytes: a stable fingerprint of a recorded trace. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The pinned noisy-quorum run: one k=16 chip behind transient plus
 *  burst noise, adaptive quorum, recorded as a v2 trace. */
struct PinnedNoisyRun
{
    ProfileCounts counts;
    QuorumEstimator estimator;
    std::uint64_t injectedFlips = 0;
    std::uint64_t readOps = 0;
    std::string trace;
};

PinnedNoisyRun
runPinnedNoisyQuorum(bool record)
{
    const std::size_t k = 16;
    SimulatedChip chip(testChipConfig('A', k, 7700));
    FaultInjectionConfig chaos;
    chaos.transientFlipRate = 1e-4;
    chaos.burst = {2048, 64, 5e-4};
    chaos.seed = 4258;
    FaultInjectionProxy proxy(chip, chaos);

    PinnedNoisyRun run;
    MeasureConfig measure = fastMeasure(chip);
    measure.quorum.votes = 3;
    measure.quorum.escalatedVotes = 7;
    measure.quorum.adaptive = true;
    run.estimator.rate = measure.quorum.initialEstimate;
    measure.estimator = &run.estimator;
    const auto words = dram::trueCellWords(chip);
    const auto patterns = chargedPatterns(k, 1);
    if (record) {
        std::ostringstream out(std::ios::binary);
        run.counts =
            recordProfileTrace(proxy, patterns, measure, words, out);
        run.trace = out.str();
    } else {
        run.counts = measureProfile(proxy, patterns, measure, words);
    }
    run.injectedFlips = proxy.injectedFlips();
    run.readOps = proxy.readOps();
    return run;
}

/** Every proxy counter, for all-counters-equal checks. */
std::vector<std::uint64_t>
proxyCounters(const FaultInjectionProxy &proxy)
{
    return {proxy.injectedFlips(), proxy.stuckAtHits(),
            proxy.readOps(),       proxy.stallsInjected(),
            proxy.patternHits(),   proxy.throwsInjected()};
}

/** The three proxy read routes over same-seed chips. */
enum class ReadRoute
{
    Frame,
    Datawords,
    Sequential
};

/** Read @p words through @p proxy by @p route, as datawords. */
std::vector<gf2::BitVec>
readBy(FaultInjectionProxy &proxy, ReadRoute route,
       const std::vector<std::size_t> &words)
{
    std::vector<gf2::BitVec> out;
    switch (route) {
    case ReadRoute::Frame: {
        dram::PlanarReadBatch frame;
        EXPECT_TRUE(proxy.readDatawordsPlanar(words.data(), words.size(),
                                              frame));
        frame.toDatawords(proxy.datawordBits(), out);
        break;
    }
    case ReadRoute::Datawords:
        proxy.readDatawords(words.data(), words.size(), out);
        break;
    case ReadRoute::Sequential:
        for (std::size_t word : words)
            out.push_back(proxy.readDataword(word));
        break;
    }
    return out;
}

/** A ragged word list with duplicates: 135 words, two full lane
 *  words and 7 more; words[7] appears at least three times. */
std::vector<std::size_t>
raggedWords(std::size_t num_words)
{
    std::vector<std::size_t> words;
    for (std::size_t i = 0; i < 133; ++i)
        words.push_back((i * 37 + i / 5) % num_words);
    words.push_back(words[7]);
    words.push_back(words[7]);
    return words;
}

} // anonymous namespace

// With every chaos knob at its default the proxy must be a perfect
// pass-through: the full adaptive session recovers the identical
// function with the identical schedule, and no fault counter moves.
TEST(Chaos, DefaultProxyIsTransparentToSessions)
{
    SimulatedChip bare(testChipConfig('A', 16, 7001));
    SessionConfig config;
    config.measure = fastMeasure(bare);
    config.wordsUnderTest = dram::trueCellWords(bare);
    Session bare_session(bare, config);
    const RecoveryReport clean = bare_session.run();
    ASSERT_TRUE(clean.succeeded());

    SimulatedChip chip(testChipConfig('A', 16, 7001));
    FaultInjectionProxy proxy(chip, FaultInjectionConfig{});
    config.wordsUnderTest = dram::trueCellWords(chip);
    Session proxied_session(proxy, config);
    const RecoveryReport proxied = proxied_session.run();

    ASSERT_TRUE(proxied.succeeded());
    EXPECT_EQ(clean.counts.patterns, proxied.counts.patterns);
    EXPECT_EQ(clean.counts.errorCounts, proxied.counts.errorCounts);
    EXPECT_EQ(clean.profile, proxied.profile);
    EXPECT_TRUE(ecc::equivalent(clean.recoveredCode(),
                                proxied.recoveredCode()));
    EXPECT_EQ(clean.stats.patternMeasurements,
              proxied.stats.patternMeasurements);
    EXPECT_EQ(proxy.injectedFlips(), 0u);
    EXPECT_EQ(proxy.stuckAtHits(), 0u);
    EXPECT_EQ(proxy.patternHits(), 0u);
    EXPECT_EQ(proxy.stallsInjected(), 0u);
    EXPECT_EQ(proxied.stats.quorumDisagreements, 0u);
    EXPECT_EQ(proxied.diagnosis.outcome, SessionOutcome::Unique);
}

// Batched reads through the proxy must perturb identically to the
// scalar path: same read-back data, same injected-flip count.
TEST(Chaos, BatchedReadsMatchScalarFlipForFlip)
{
    FaultInjectionConfig chaos;
    chaos.transientFlipRate = 0.05;
    chaos.stuckAt.push_back({3, 2, true});
    chaos.seed = 42;

    SimulatedChip chip_a(testChipConfig('B', 8, 7002));
    SimulatedChip chip_b(testChipConfig('B', 8, 7002));
    FaultInjectionProxy scalar(chip_a, chaos);
    FaultInjectionProxy batched(chip_b, chaos);

    const std::vector<std::size_t> words = {0, 1, 2, 3, 4, 5, 6, 7};
    for (int round = 0; round < 10; ++round) {
        std::vector<gf2::BitVec> batch;
        batched.readDatawords(words.data(), words.size(), batch);
        for (std::size_t i = 0; i < words.size(); ++i)
            EXPECT_EQ(scalar.readDataword(words[i]), batch[i])
                << "round " << round << " word " << i;
    }
    EXPECT_EQ(scalar.injectedFlips(), batched.injectedFlips());
    EXPECT_EQ(scalar.stuckAtHits(), batched.stuckAtHits());
    EXPECT_GT(batched.injectedFlips(), 0u);
    EXPECT_GT(batched.stuckAtHits(), 0u);
    EXPECT_EQ(scalar.readOps(), batched.readOps());
}

// The proxy's bit-plane frame, its readDatawords and sequential
// readDataword calls must agree on every read and every counter
// under each kind of fault: windows, bursts, partial-rate and
// expiring pattern faults, stuck-at pins, stalls, over a ragged word
// list with duplicates.
TEST(Chaos, PlanarFrameMatchesDatawordsAndScalarReads)
{
    const std::size_t k = 16;
    SimulatedChip probe(testChipConfig('B', k, 7003));
    const std::vector<std::size_t> words = raggedWords(probe.numWords());

    gf2::BitVec trigger(k);
    trigger.set(4, true);
    FaultInjectionConfig chaos;
    chaos.transientFlipRate = 2e-3;
    chaos.windows.push_back({300, 420, 0.05});
    chaos.burst = {256, 16, 0.02};
    chaos.patternFaults.push_back({trigger, 9, 0.5, 0});
    chaos.patternFaults.push_back({trigger, 2, 1.0, 40});
    chaos.stuckAt.push_back({words[3], 5, true});
    chaos.stuckAt.push_back({words[7], 0, false}); // a duplicated word
    chaos.stuckAt.push_back({words[7], 11, true});
    chaos.stallEveryReads = 97;
    chaos.seed = 314;

    std::vector<std::unique_ptr<SimulatedChip>> chips;
    std::vector<std::unique_ptr<FaultInjectionProxy>> proxies;
    for (int route = 0; route < 3; ++route) {
        chips.push_back(std::make_unique<SimulatedChip>(
            testChipConfig('B', k, 7003)));
        proxies.push_back(
            std::make_unique<FaultInjectionProxy>(*chips.back(), chaos));
    }
    const double pause =
        probe.retentionModel().pauseForBitErrorRate(0.1, 80.0);
    for (int round = 0; round < 6; ++round) {
        const gf2::BitVec data = round % 2 ? trigger : gf2::BitVec(k);
        std::vector<std::vector<gf2::BitVec>> reads;
        for (int route = 0; route < 3; ++route) {
            proxies[route]->writeDatawordsBroadcast(words.data(),
                                                    words.size(), data);
            proxies[route]->pauseRefresh(pause, 80.0);
            reads.push_back(
                readBy(*proxies[route], (ReadRoute)route, words));
        }
        EXPECT_EQ(reads[0], reads[1]) << "round " << round;
        EXPECT_EQ(reads[0], reads[2]) << "round " << round;
        EXPECT_EQ(proxyCounters(*proxies[0]), proxyCounters(*proxies[1]));
        EXPECT_EQ(proxyCounters(*proxies[0]), proxyCounters(*proxies[2]));
    }
    const FaultInjectionProxy &proxy = *proxies[0];
    EXPECT_GT(proxy.injectedFlips(), proxy.patternHits());
    EXPECT_GT(proxy.patternHits(), 40u);
    EXPECT_GT(proxy.stuckAtHits(), 0u);
    EXPECT_GT(proxy.stallsInjected(), 0u);
    EXPECT_EQ(proxy.readOps(), 6 * words.size());
}

// An injected throw fires at the same read op on every route and
// leaves the counters equal; the next batch resumes in step.
TEST(Chaos, PlanarFrameThrowsMidBatchLikeScalarReads)
{
    const std::size_t k = 16;
    FaultInjectionConfig chaos;
    chaos.transientFlipRate = 0.01;
    chaos.throwEveryReads = 100;
    chaos.seed = 2718;

    std::vector<std::unique_ptr<SimulatedChip>> chips;
    std::vector<std::unique_ptr<FaultInjectionProxy>> proxies;
    for (int route = 0; route < 3; ++route) {
        chips.push_back(std::make_unique<SimulatedChip>(
            testChipConfig('A', k, 7004)));
        proxies.push_back(
            std::make_unique<FaultInjectionProxy>(*chips.back(), chaos));
    }
    const std::vector<std::size_t> words =
        raggedWords(chips[0]->numWords());
    const std::vector<std::size_t> head(words.begin(), words.begin() + 60);
    for (int route = 0; route < 3; ++route) {
        FaultInjectionProxy &proxy = *proxies[route];
        // 60 clean ops, then a batch whose 40th word throws.
        readBy(proxy, (ReadRoute)route, head);
        EXPECT_THROW(readBy(proxy, (ReadRoute)route, words),
                     dram::InjectedReadFailure);
        EXPECT_EQ(proxy.readOps(), 100u);
        EXPECT_EQ(proxy.throwsInjected(), 1u);
    }
    EXPECT_EQ(proxyCounters(*proxies[0]), proxyCounters(*proxies[1]));
    EXPECT_EQ(proxyCounters(*proxies[0]), proxyCounters(*proxies[2]));
    std::vector<std::vector<gf2::BitVec>> reads;
    for (int route = 0; route < 3; ++route)
        reads.push_back(readBy(*proxies[route], (ReadRoute)route, head));
    EXPECT_EQ(reads[0], reads[1]);
    EXPECT_EQ(reads[0], reads[2]);
    EXPECT_EQ(proxyCounters(*proxies[0]), proxyCounters(*proxies[1]));
    EXPECT_EQ(proxyCounters(*proxies[0]), proxyCounters(*proxies[2]));
    EXPECT_GT(proxies[0]->injectedFlips(), 0u);
}

// Over a backend that declines the planar seam the proxy declines
// too, before drawing from its Rng or counting a read op.
TEST(Chaos, PlanarFrameDeclinesWithTheInnerBackend)
{
    FaultInjectionConfig chaos;
    chaos.transientFlipRate = 0.05;
    chaos.stuckAt.push_back({1, 3, true});
    chaos.seed = 77;
    SimulatedChip chip(testChipConfig('A', 16, 7005));
    test::ScalarOnly scalar(chip);
    FaultInjectionProxy proxy(scalar, chaos);
    SimulatedChip twin_chip(testChipConfig('A', 16, 7005));
    FaultInjectionProxy twin(twin_chip, chaos);

    const std::vector<std::size_t> words = raggedWords(chip.numWords());
    dram::PlanarReadBatch frame;
    EXPECT_FALSE(
        proxy.readDatawordsPlanar(words.data(), words.size(), frame));
    EXPECT_EQ(proxyCounters(proxy),
              std::vector<std::uint64_t>(6, 0));
    // Still in step with a proxy that never saw the declined call.
    EXPECT_EQ(readBy(proxy, ReadRoute::Datawords, words),
              readBy(twin, ReadRoute::Frame, words));
    EXPECT_EQ(proxyCounters(proxy), proxyCounters(twin));
}

// The acceptance differential: under transient + burst noise, quorum
// reads plus UNSAT-core repair must still recover the ground-truth
// function a clean session recovers, for k in {8, 16, 32}.
TEST(Chaos, DifferentialRecoveryUnderNoise)
{
    for (std::size_t k : {8u, 16u, 32u}) {
        SimulatedChip clean_chip(testChipConfig('A', k, 7100 + k));
        SessionConfig clean_config;
        clean_config.measure = fastMeasure(clean_chip);
        clean_config.wordsUnderTest = dram::trueCellWords(clean_chip);
        Session clean_session(clean_chip, clean_config);
        const RecoveryReport clean = clean_session.run();
        ASSERT_TRUE(clean.succeeded()) << "k=" << k;

        SimulatedChip chip(testChipConfig('A', k, 7100 + k));
        FaultInjectionConfig chaos;
        chaos.transientFlipRate = 1e-4;
        chaos.burst = {2048, 64, 5e-4};
        chaos.seed = 4242 + k;
        FaultInjectionProxy proxy(chip, chaos);

        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.measure.quorum.votes = 3;
        config.measure.quorum.escalatedVotes = 7;
        config.repair.enabled = true;
        config.repair.maxAttempts = 4;
        config.repair.remeasureVotes = 7;
        config.wordsUnderTest = dram::trueCellWords(chip);
        Session session(proxy, config);
        const RecoveryReport noisy = session.run();

        ASSERT_TRUE(noisy.succeeded()) << "k=" << k;
        EXPECT_TRUE(ecc::equivalent(noisy.recoveredCode(),
                                    chip.groundTruthCode()))
            << "k=" << k;
        EXPECT_TRUE(ecc::equivalent(noisy.recoveredCode(),
                                    clean.recoveredCode()))
            << "k=" << k;
        EXPECT_EQ(noisy.diagnosis.outcome, SessionOutcome::Unique)
            << "k=" << k;
    }
}

// The adaptive quorum's value proposition: against the identical
// injected-fault schedule it recovers the same ground-truth function
// the fixed policy does, while spending fewer dataword read sweeps —
// clean patterns stop paying the full vote count.
TEST(Chaos, AdaptiveQuorumCheaperThanFixedAtEqualAccuracy)
{
    const std::size_t k = 16;
    SimulatedChip clean_chip(testChipConfig('A', k, 7150));
    SessionConfig clean_config;
    clean_config.measure = fastMeasure(clean_chip);
    clean_config.wordsUnderTest = dram::trueCellWords(clean_chip);
    Session clean_session(clean_chip, clean_config);
    const RecoveryReport clean = clean_session.run();
    ASSERT_TRUE(clean.succeeded());

    const auto run_arm = [&](bool adaptive) {
        SimulatedChip chip(testChipConfig('A', k, 7150));
        FaultInjectionConfig chaos;
        chaos.transientFlipRate = 1e-4;
        chaos.burst = {2048, 64, 5e-4};
        chaos.seed = 9000;
        FaultInjectionProxy proxy(chip, chaos);

        SessionConfig config;
        config.measure = fastMeasure(chip);
        config.measure.quorum.votes = 3;
        config.measure.quorum.escalatedVotes = 7;
        config.measure.quorum.adaptive = adaptive;
        config.repair.enabled = true;
        config.repair.maxAttempts = 4;
        config.repair.remeasureVotes = 7;
        config.wordsUnderTest = dram::trueCellWords(chip);
        Session session(proxy, config);
        const RecoveryReport report = session.run();
        EXPECT_TRUE(report.succeeded());
        EXPECT_TRUE(ecc::equivalent(report.recoveredCode(),
                                    chip.groundTruthCode()));
        EXPECT_TRUE(ecc::equivalent(report.recoveredCode(),
                                    clean.recoveredCode()));
        return report;
    };

    const RecoveryReport fixed = run_arm(/*adaptive=*/false);
    const RecoveryReport adaptive = run_arm(/*adaptive=*/true);
    EXPECT_GT(fixed.stats.quorumVotesSpent, 0u);
    EXPECT_LT(adaptive.stats.quorumVotesSpent,
              fixed.stats.quorumVotesSpent);
    // The noise was strong enough that some patterns escalated — the
    // savings come from selectivity, not from never escalating.
    EXPECT_GT(adaptive.stats.quorumEscalations, 0u);
}

// Quorum voting masks transient read noise the single-read path would
// swallow into the profile, and flags the disagreements it saw.
TEST(Chaos, QuorumVotesOutTransientNoise)
{
    SimulatedChip clean_chip(testChipConfig('C', 8, 7200));
    MeasureConfig measure = fastMeasure(clean_chip);
    const auto words = dram::trueCellWords(clean_chip);
    const auto patterns = chargedPatterns(8, 1);
    const ProfileCounts clean =
        measureProfile(clean_chip, patterns, measure, words);

    SimulatedChip chip(testChipConfig('C', 8, 7200));
    FaultInjectionConfig chaos;
    chaos.transientFlipRate = 1e-3;
    chaos.seed = 11;
    FaultInjectionProxy proxy(chip, chaos);
    measure.quorum.votes = 5;
    measure.quorum.escalatedVotes = 9;
    const ProfileCounts quorum =
        measureProfile(proxy, patterns, measure, words);

    // The noise really fired, the quorum really saw it...
    EXPECT_GT(proxy.injectedFlips(), 0u);
    EXPECT_GT(quorum.totalDisagreements(), 0u);
    // ...and the thresholded profile still matches the clean chip's.
    EXPECT_EQ(clean.threshold(measure.thresholdProbability),
              quorum.threshold(measure.thresholdProbability));
}

// One poisoned measurement round — a pattern-triggered deterministic
// corruption that expires before the repair re-measures — must be
// localized by the UNSAT-core probe, retracted, re-measured, and the
// session must still converge on the ground-truth function.
TEST(Chaos, RepairRetractsPoisonedRound)
{
    const std::size_t k = 16;
    SimulatedChip chip(testChipConfig('A', k, 7300));
    const auto words = dram::trueCellWords(chip);

    // Find a (pattern, bit) where the secret code can never
    // miscorrect; rate-1 corruption there is a hard contradiction.
    const ecc::LinearCode &secret = chip.groundTruthCode();
    TestPattern poisoned;
    std::size_t bad_bit = k;
    for (const TestPattern &pattern : chargedPatterns(k, 1)) {
        for (std::size_t bit = 0; bit < k && bad_bit == k; ++bit) {
            if (patternContains(pattern, bit))
                continue;
            if (!miscorrectionPossible(secret, pattern, bit)) {
                poisoned = pattern;
                bad_bit = bit;
            }
        }
        if (bad_bit != k)
            break;
    }
    ASSERT_NE(bad_bit, k) << "no contradiction site in this code";

    MeasureConfig measure = fastMeasure(chip);
    dram::PatternCorruption corruption;
    corruption.triggerData = datawordForPattern(poisoned, k,
                                                dram::CellType::True);
    corruption.bit = bad_bit;
    corruption.flipRate = 1.0;
    // Enough hits to poison the pattern's first full measurement
    // (words x pauses x repeats reads), then the fault goes away — the
    // transient-burst scenario repair exists for.
    corruption.maxHits = words.size() *
                         measure.pausesSeconds.size() *
                         measure.repeatsPerPause;

    FaultInjectionConfig chaos;
    chaos.patternFaults.push_back(corruption);
    FaultInjectionProxy proxy(chip, chaos);

    SessionConfig config;
    config.measure = measure;
    config.repair.enabled = true;
    config.repair.remeasureVotes = 5;
    config.wordsUnderTest = words;
    Session session(proxy, config);
    const RecoveryReport report = session.run();

    EXPECT_GT(proxy.patternHits(), 0u);
    ASSERT_TRUE(report.succeeded());
    EXPECT_TRUE(ecc::equivalent(report.recoveredCode(),
                                chip.groundTruthCode()));
    EXPECT_GE(report.stats.repairAttempts, 1u);
    EXPECT_GE(report.stats.roundsRetracted, 1u);
    EXPECT_GT(report.stats.patternsRemeasured, 0u);
    EXPECT_EQ(report.diagnosis.outcome, SessionOutcome::Unique);
}

// A persistent stuck-at fault contradicts every re-measurement, so
// repair must exhaust its attempts and the session must degrade
// gracefully into an Unsatisfiable diagnosis instead of throwing or
// claiming an answer.
TEST(Chaos, PersistentStuckAtDiagnosedUnsatisfiable)
{
    const std::size_t k = 16;
    SimulatedChip chip(testChipConfig('B', k, 7400));
    const auto words = dram::trueCellWords(chip);

    FaultInjectionConfig chaos;
    // Pin one data bit of several words high: patterns that discharge
    // that bit read a miscorrection no SEC function can explain.
    for (std::size_t i = 0; i < 4 && i < words.size(); ++i)
        chaos.stuckAt.push_back({words[i], 5, true});
    FaultInjectionProxy proxy(chip, chaos);

    SessionConfig config;
    config.measure = fastMeasure(chip);
    config.repair.enabled = true;
    config.repair.maxAttempts = 2;
    config.wordsUnderTest = words;
    Session session(proxy, config);
    const RecoveryReport report = session.run();

    EXPECT_GT(proxy.stuckAtHits(), 0u);
    EXPECT_FALSE(report.succeeded());
    EXPECT_EQ(report.diagnosis.outcome, SessionOutcome::Unsatisfiable);
    EXPECT_FALSE(report.diagnosis.detail.empty());
    EXPECT_EQ(report.diagnosis.repairAttempts, 2u);
    // The machine-readable form carries the same verdict.
    EXPECT_NE(report.diagnosis.toJson().find("\"unsatisfiable\""),
              std::string::npos);
}

// Injected read stalls against a session deadline: the session must
// stop on time and say why, not hang or crash.
TEST(Chaos, DeadlineExceededUnderReadStalls)
{
    SimulatedChip chip(testChipConfig('A', 16, 7500));
    FaultInjectionConfig chaos;
    chaos.stallEveryReads = 16;
    chaos.stallSeconds = 0.01;
    FaultInjectionProxy proxy(chip, chaos);

    SessionConfig config;
    config.measure = fastMeasure(chip);
    config.deadlineSeconds = 0.05;
    config.wordsUnderTest = dram::trueCellWords(chip);
    Session session(proxy, config);
    const RecoveryReport report = session.run();

    EXPECT_GT(proxy.stallsInjected(), 0u);
    EXPECT_EQ(report.diagnosis.outcome,
              SessionOutcome::DeadlineExceeded);
    EXPECT_FALSE(report.diagnosis.detail.empty());
    EXPECT_GT(report.diagnosis.elapsedSeconds, 0.0);
}

// Seed-pinned contract: a self-contradictory profile has zero
// consistent ECC functions, the enumeration proves it (complete with
// an empty solution list), and it does not throw.
TEST(Diagnosis, ContradictoryProfileHasZeroSolutions)
{
    const std::size_t k = 8;
    const ecc::LinearCode code = ecc::canonicalSecCode(k);
    MiscorrectionProfile profile = exhaustiveProfile(code, k);

    // Sanity: the honest profile identifies the function.
    const BeerSolveResult honest = solveForEccFunction(profile);
    ASSERT_TRUE(honest.unique());

    // Claim a miscorrection at a position the code can never produce.
    bool poisoned = false;
    for (PatternProfile &entry : profile.patterns) {
        for (std::size_t bit = 0; bit < k && !poisoned; ++bit) {
            if (patternContains(entry.pattern, bit) ||
                entry.miscorrectable.get(bit))
                continue;
            entry.miscorrectable.set(bit, true);
            poisoned = true;
        }
        if (poisoned)
            break;
    }
    ASSERT_TRUE(poisoned);

    const BeerSolveResult contradicted = solveForEccFunction(profile);
    EXPECT_TRUE(contradicted.complete);
    EXPECT_TRUE(contradicted.solutions.empty());
}

// Golden values for the noisy quorum stream: counts, the proxy's
// counters, the adaptive estimator and a fingerprint of the recorded
// v2 trace, pinned as literals. The batched-vs-scalar differentials
// compare two routes with each other and cannot see a change both
// routes share; this test can.
TEST(Chaos, NoisyQuorumStreamIsPinned)
{
    const PinnedNoisyRun run = runPinnedNoisyQuorum(/*record=*/true);
    const std::vector<std::vector<std::uint64_t>> error_counts = {
        {888, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 404, 0, 0, 422, 0},
        {199, 1004, 0, 0, 0, 0, 0, 212, 0, 0, 220, 198, 191, 193, 206, 0},
        {0, 0, 1033, 239, 0, 0, 185, 170, 0, 0, 0, 0, 0, 194, 0, 208},
        {0, 0, 0, 864, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 355},
        {0, 0, 0, 0, 915, 0, 392, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {82, 128, 118, 84, 57, 1130, 108, 132, 72, 92, 84, 109, 84, 116,
         125, 131},
        {0, 0, 0, 0, 0, 0, 902, 0, 0, 0, 0, 0, 0, 0, 0, 0},
        {0, 0, 0, 0, 0, 0, 0, 896, 0, 0, 0, 0, 0, 0, 0, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 952, 0, 0, 0, 0, 0, 406, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 949, 0, 409, 0, 0, 0, 413},
        {0, 0, 0, 0, 0, 0, 0, 404, 0, 0, 854, 0, 0, 0, 389, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 961, 0, 0, 0, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 401, 913, 406, 0, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 883, 0, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 916, 0},
        {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 948},
    };
    EXPECT_EQ(run.counts.errorCounts, error_counts);
    EXPECT_EQ(run.counts.wordsTested,
              std::vector<std::uint64_t>(16, 9600));
    EXPECT_EQ(run.counts.disagreements,
              (std::vector<std::uint64_t>{28, 40, 40, 33, 37, 39, 37, 38,
                                          41, 33, 39, 43, 44, 40, 43,
                                          39}));
    EXPECT_EQ(run.counts.votesSpent,
              (std::vector<std::uint64_t>{253, 289, 309, 293, 281, 309,
                                          333, 313, 309, 293, 305, 277,
                                          281, 333, 285, 305}));
    EXPECT_EQ(run.injectedFlips, 1135u);
    EXPECT_EQ(run.readOps, 610304u);
    EXPECT_EQ(run.estimator.rate, 0x1.4804cd893478ap-4);
    EXPECT_EQ(run.estimator.samples, 1200u);
    EXPECT_EQ(run.estimator.votesSpent, 4768u);
    EXPECT_EQ(run.estimator.escalations, 292u);
    EXPECT_EQ(run.estimator.confirmations, 322u);
    EXPECT_EQ(run.trace.size(), 556448u);
    EXPECT_EQ(fnv1a(run.trace), 0x9aa8b2b38134ebb0ULL);

    // Recording is transparent: the same run unrecorded counts alike.
    const PinnedNoisyRun plain = runPinnedNoisyQuorum(/*record=*/false);
    EXPECT_EQ(plain.counts.errorCounts, run.counts.errorCounts);
    EXPECT_EQ(plain.counts.disagreements, run.counts.disagreements);
    EXPECT_EQ(plain.counts.votesSpent, run.counts.votesSpent);
    EXPECT_EQ(plain.injectedFlips, run.injectedFlips);
    EXPECT_EQ(plain.readOps, run.readOps);
}
