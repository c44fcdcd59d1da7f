/**
 * @file
 * Equivalence tests for beer::IncrementalSolver: feeding a profile
 * round by round into one persistent context must yield the same
 * solutions and the same uniqueness verdicts as re-running the
 * from-scratch solveForEccFunction() on each prefix — including
 * across the 2-CHARGED escalation and across retraction of blocking
 * clauses added by earlier uniqueness checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "beer/profile.hh"
#include "beer/solver.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "util/rng.hh"

using namespace beer;
using beer::ecc::LinearCode;
using beer::ecc::equivalent;
using beer::ecc::randomSecCode;
using beer::util::Rng;

namespace
{

std::vector<std::string>
canonicalKeys(const BeerSolveResult &result)
{
    std::vector<std::string> out;
    out.reserve(result.solutions.size());
    for (const auto &solution : result.solutions)
        out.push_back(solution.pMatrix().toString());
    std::sort(out.begin(), out.end());
    return out;
}

/** Profile containing the first @p count entries of @p full. */
MiscorrectionProfile
prefixProfile(const MiscorrectionProfile &full, std::size_t count)
{
    MiscorrectionProfile out;
    out.k = full.k;
    out.patterns.assign(full.patterns.begin(),
                        full.patterns.begin() + (std::ptrdiff_t)count);
    return out;
}

/**
 * The round-by-round measurement plan the equivalence sweep feeds:
 * 1-CHARGED patterns, then (escalation) a slice of the 2-CHARGED
 * class, chunked into @p chunk-pattern rounds.
 */
MiscorrectionProfile
planProfile(const LinearCode &code, std::size_t two_charged_limit)
{
    auto patterns = chargedPatterns(code.k(), 1);
    auto two = chargedPatterns(code.k(), 2);
    if (two.size() > two_charged_limit)
        two.resize(two_charged_limit);
    patterns.insert(patterns.end(), two.begin(), two.end());
    return exhaustiveProfile(code, patterns);
}

} // anonymous namespace

TEST(IncrementalSolver, MatchesFromScratchUncappedAtSmallK)
{
    // k=4 keeps every intermediate enumeration tiny, so each round can
    // compare the COMPLETE solution sets, not just verdicts.
    Rng rng(61);
    for (int seed = 0; seed < 4; ++seed) {
        const LinearCode code = randomSecCode(4, rng);
        const MiscorrectionProfile full = planProfile(code, 6);

        IncrementalSolver incremental(4, code.numParityBits());
        for (std::size_t n = 1; n <= full.patterns.size(); ++n) {
            const MiscorrectionProfile prefix = prefixProfile(full, n);
            incremental.addProfile(prefix);
            const BeerSolveResult inc = incremental.solve();
            const BeerSolveResult scratch =
                solveForEccFunction(prefix, code.numParityBits());

            ASSERT_TRUE(inc.complete && scratch.complete)
                << "seed " << seed << " round " << n;
            EXPECT_EQ(canonicalKeys(inc), canonicalKeys(scratch))
                << "seed " << seed << " round " << n;
        }
        EXPECT_EQ(incremental.rebuilds(), 0u);
    }
}

/** Parameterized sweep (the acceptance-criteria dataword lengths). */
class IncrementalEquivalence
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(IncrementalEquivalence, RoundVerdictsAndFinalSetMatchScratch)
{
    const std::size_t k = GetParam();
    Rng rng(4000 + k);

    for (int seed = 0; seed < 2; ++seed) {
        const LinearCode code = randomSecCode(k, rng);
        // 1-CHARGED rounds plus a 2-CHARGED escalation slice, chunked
        // like an adaptive session would measure them.
        const MiscorrectionProfile full = planProfile(code, 2 * k);
        const std::size_t chunk = std::max<std::size_t>(1, k / 2);

        BeerSolverConfig capped;
        capped.maxSolutions = 2; // uniqueness check, as Session does

        IncrementalSolver incremental(k, code.numParityBits(), capped);
        for (std::size_t n = chunk; n < full.patterns.size();
             n += chunk) {
            const MiscorrectionProfile prefix =
                prefixProfile(full, std::min(n, full.patterns.size()));
            incremental.addProfile(prefix);
            const BeerSolveResult inc = incremental.solve();
            const BeerSolveResult scratch = solveForEccFunction(
                prefix, code.numParityBits(), capped);

            // Capped enumerations may surface different witnesses, but
            // the uniqueness verdict (complete? how many?) must agree,
            // and every witness must be consistent with the evidence.
            EXPECT_EQ(inc.complete, scratch.complete)
                << "k=" << k << " n=" << n;
            EXPECT_EQ(inc.solutions.size(), scratch.solutions.size())
                << "k=" << k << " n=" << n;
            EXPECT_EQ(inc.unique(), scratch.unique())
                << "k=" << k << " n=" << n;
            std::vector<TestPattern> measured;
            for (const auto &entry : prefix.patterns)
                measured.push_back(entry.pattern);
            for (const auto &solution : inc.solutions)
                EXPECT_EQ(exhaustiveProfile(solution, measured), prefix)
                    << "k=" << k << " n=" << n;
        }

        // Final round: full evidence, uncapped — the solution sets
        // must be identical and contain the planted code, even though
        // earlier rounds blocked (then retracted) candidate models.
        incremental.addProfile(full);
        const BeerSolveResult inc = incremental.solve(0);
        const BeerSolveResult scratch =
            solveForEccFunction(full, code.numParityBits());
        ASSERT_TRUE(inc.complete && scratch.complete) << "k=" << k;
        EXPECT_EQ(canonicalKeys(inc), canonicalKeys(scratch))
            << "k=" << k;
        bool planted_found = false;
        for (const auto &solution : inc.solutions)
            planted_found |= equivalent(solution, code);
        EXPECT_TRUE(planted_found) << "k=" << k;
        EXPECT_EQ(incremental.rebuilds(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(DatawordLengths, IncrementalEquivalence,
                         ::testing::Values(4, 8, 16, 32),
                         ::testing::PrintToStringParamName());

TEST(IncrementalSolver, RetractedBlockingClausesReappear)
{
    // Round 1 enumerates (and blocks) EVERY candidate; round 2 adds
    // evidence. If retraction were broken, the final enumeration
    // could not re-find the planted code it blocked in round 1.
    Rng rng(71);
    const LinearCode code = randomSecCode(4, rng);
    const MiscorrectionProfile full =
        exhaustiveProfile(code, chargedPatterns(4, 1));

    IncrementalSolver incremental(4, code.numParityBits());
    incremental.addProfile(prefixProfile(full, 1));
    const BeerSolveResult first = incremental.solve();
    ASSERT_TRUE(first.complete);
    ASSERT_GE(first.solutions.size(), 1u);

    // Re-solving the same evidence reproduces the same set: blocking
    // clauses from the previous call must not leak in.
    const BeerSolveResult again = incremental.solve();
    EXPECT_EQ(canonicalKeys(first), canonicalKeys(again));

    incremental.addProfile(full);
    const BeerSolveResult final_result = incremental.solve();
    const BeerSolveResult scratch =
        solveForEccFunction(full, code.numParityBits());
    EXPECT_EQ(canonicalKeys(final_result), canonicalKeys(scratch));
    bool planted_found = false;
    for (const auto &solution : final_result.solutions)
        planted_found |= equivalent(solution, code);
    EXPECT_TRUE(planted_found);
}

TEST(IncrementalSolver, NonMonotoneEntryForcesRebuild)
{
    // Flip one observation bit of an already-encoded pattern: the
    // context must rebuild (permanent constraints cannot be retracted)
    // and then agree with a from-scratch solve of the modified profile.
    Rng rng(73);
    const LinearCode code = randomSecCode(8, rng);
    MiscorrectionProfile profile =
        exhaustiveProfile(code, chargedPatterns(8, 1));

    IncrementalSolver incremental(8, code.numParityBits());
    incremental.addProfile(profile);
    (void)incremental.solve();
    EXPECT_EQ(incremental.rebuilds(), 0u);

    // Mutate entry 0 at some discharged bit.
    const std::size_t charged = profile.patterns[0].pattern[0];
    const std::size_t bit = charged == 0 ? 1 : 0;
    profile.patterns[0].miscorrectable.set(
        bit, !profile.patterns[0].miscorrectable.get(bit));

    incremental.addProfile(profile);
    EXPECT_EQ(incremental.rebuilds(), 1u);
    const BeerSolveResult inc = incremental.solve();
    const BeerSolveResult scratch =
        solveForEccFunction(profile, code.numParityBits());
    EXPECT_EQ(inc.complete, scratch.complete);
    EXPECT_EQ(canonicalKeys(inc), canonicalKeys(scratch));
}

TEST(IncrementalSolver, WithoutSymmetryBreakingMatchesScratch)
{
    // Without symmetry breaking the solver enumerates raw models (p!
    // per equivalence class), so intermediate weakly-constrained
    // rounds run capped; the full profile compares complete sets.
    Rng rng(79);
    const LinearCode code = randomSecCode(6, rng);
    const MiscorrectionProfile full =
        exhaustiveProfile(code, chargedPatterns(6, 1));
    BeerSolverConfig config;
    config.symmetryBreaking = false;
    config.maxSolutions = 2;

    IncrementalSolver incremental(6, code.numParityBits(), config);
    for (std::size_t n = 2; n < full.patterns.size(); n += 2) {
        const MiscorrectionProfile prefix = prefixProfile(full, n);
        incremental.addProfile(prefix);
        const BeerSolveResult inc = incremental.solve();
        const BeerSolveResult scratch = solveForEccFunction(
            prefix, code.numParityBits(), config);
        EXPECT_EQ(inc.complete, scratch.complete) << "n=" << n;
        EXPECT_EQ(inc.unique(), scratch.unique()) << "n=" << n;
    }

    incremental.addProfile(full);
    const BeerSolveResult inc = incremental.solve(0);
    BeerSolverConfig uncapped = config;
    uncapped.maxSolutions = 0;
    const BeerSolveResult scratch =
        solveForEccFunction(full, code.numParityBits(), uncapped);
    ASSERT_TRUE(inc.complete && scratch.complete);
    EXPECT_EQ(canonicalKeys(inc), canonicalKeys(scratch));
}

TEST(IncrementalSolver, StatsAreDeltasPerRound)
{
    Rng rng(83);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile full =
        exhaustiveProfile(code, chargedPatterns(8, 1));

    IncrementalSolver incremental(8, code.numParityBits());
    incremental.addProfile(prefixProfile(full, 4));
    const BeerSolveResult first = incremental.solve();
    incremental.addProfile(full);
    const BeerSolveResult second = incremental.solve();

    // Per-round deltas must sum to no more than the cumulative totals.
    const auto &cumulative = incremental.satSolver().stats();
    EXPECT_LE(first.stats.propagations + second.stats.propagations,
              cumulative.propagations);
    EXPECT_GT(first.stats.propagations, 0u);
    EXPECT_GT(cumulative.addedClauses, 0u);
    EXPECT_EQ(incremental.encodedPatterns(), full.patterns.size());
}
