/**
 * @file
 * Differential tests of the lazily refined beer::IncrementalSolver
 * against the eager reference model (tests/ref/eager_beer_solve.hh):
 * canonical solution sets must be identical on fig5-style profiles,
 * on the recovery service's capped one-shot solves, on every round of
 * real session trajectories, under retractable rounds (suspend,
 * probe, drop), across a non-monotone rebuild, and in the complete
 * instance exported for external solvers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "beer/beer.hh"
#include "dram/chip.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "gf2/matrix.hh"
#include "ref/dimacs_reader.hh"
#include "ref/eager_beer_solve.hh"
#include "sat/dimacs.hh"
#include "sat/encoder.hh"
#include "util/rng.hh"

using namespace beer;
using beer::ecc::LinearCode;
using beer::ecc::randomSecCode;
using beer::test::ref::eagerBeerSolve;
using beer::util::Rng;

namespace
{

std::vector<std::string>
canonicalKeys(const std::vector<LinearCode> &solutions)
{
    std::vector<std::string> out;
    for (const LinearCode &solution : solutions)
        out.push_back(solution.pMatrix().toString());
    std::sort(out.begin(), out.end());
    return out;
}

/** Same completeness verdict, and the same set when complete (a
 *  capped enumeration may legitimately stop at different members). */
void
expectSameSolutions(const BeerSolveResult &lazy,
                    const BeerSolveResult &eager, const std::string &where)
{
    EXPECT_EQ(lazy.complete, eager.complete) << where;
    if (lazy.complete && eager.complete) {
        EXPECT_EQ(canonicalKeys(lazy.solutions),
                  canonicalKeys(eager.solutions))
            << where;
    }
}

/** Entries of @p full whose patterns are not in @p without. */
MiscorrectionProfile
withoutPatterns(const MiscorrectionProfile &full,
                const std::vector<TestPattern> &without)
{
    MiscorrectionProfile out;
    out.k = full.k;
    for (const PatternProfile &entry : full.patterns)
        if (std::find(without.begin(), without.end(), entry.pattern) ==
            without.end())
            out.patterns.push_back(entry);
    return out;
}

/** Entries [begin, end) of @p full. */
MiscorrectionProfile
slice(const MiscorrectionProfile &full, std::size_t begin, std::size_t end)
{
    MiscorrectionProfile out;
    out.k = full.k;
    out.patterns.assign(full.patterns.begin() + (std::ptrdiff_t)begin,
                        full.patterns.begin() + (std::ptrdiff_t)end);
    return out;
}

/** Flip one discharged bit of entry @p index. */
void
corrupt(MiscorrectionProfile &profile, std::size_t index)
{
    PatternProfile &entry = profile.patterns[index];
    std::size_t bit = 0;
    while (patternContains(entry.pattern, bit))
        ++bit;
    entry.miscorrectable.set(bit, !entry.miscorrectable.get(bit));
}

} // anonymous namespace

TEST(LazySolver, Fig5StyleProfilesMatchEager)
{
    // The fig5 workload: exhaustive profiles of random codes under each
    // charged-pattern class, full enumeration on both sides.
    Rng rng(3);
    const std::vector<std::vector<std::size_t>> classes = {
        {1}, {2}, {3}, {1, 2}};
    for (std::size_t k : {4u, 5u, 6u, 7u, 8u, 10u, 11u, 12u, 14u, 16u}) {
        for (int i = 0; i < 2; ++i) {
            const LinearCode code = randomSecCode(k, rng);
            for (const auto &counts : classes) {
                if (counts == std::vector<std::size_t>{3} && k > 10)
                    continue;
                const auto profile = exhaustiveProfile(
                    code, chargedPatternUnion(k, counts));
                const std::size_t p = code.numParityBits();
                expectSameSolutions(
                    solveForEccFunction(profile, p),
                    eagerBeerSolve(profile, p),
                    "k=" + std::to_string(k) + " code " +
                        std::to_string(i) + " classes " +
                        std::to_string(counts.size()) + "/" +
                        std::to_string(counts.front()));
            }
        }
    }
}

TEST(LazySolver, ServiceSolveShapeMatchesEager)
{
    // The recovery service's one-shot solve: a k=16 {1,2}-CHARGED
    // profile capped at 16 solutions, whole and as a sibling chip
    // missing its last two patterns. Multi-charged entries are refined
    // one at a time, only once no cheaper constraint is violated.
    constexpr std::size_t kCap = 16;
    const auto patterns = chargedPatternUnion(16, {1, 2});
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Rng rng(seed);
        const LinearCode code = randomSecCode(16, rng);
        const std::size_t p = code.numParityBits();
        const MiscorrectionProfile full = exhaustiveProfile(code, patterns);
        const MiscorrectionProfile truncated =
            slice(full, 0, full.patterns.size() - 2);
        BeerSolverConfig config;
        config.maxSolutions = kCap;
        for (const MiscorrectionProfile *profile : {&full, &truncated}) {
            const std::string where =
                "seed " + std::to_string(seed) + " patterns " +
                std::to_string(profile->patterns.size());
            const BeerSolveResult lazy =
                solveForEccFunction(*profile, p, config);
            expectSameSolutions(lazy, eagerBeerSolve(*profile, p, kCap),
                                where);
            ASSERT_TRUE(lazy.unique()) << where;
            EXPECT_TRUE(ecc::equivalent(lazy.solutions.front(), code))
                << where;
        }
    }
}

/** (first seed, k, vendor): each case runs kTrajectorySeeds seeds. */
class LazySessionTrajectory
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, char>>
{
};

constexpr std::uint64_t kTrajectorySeeds = 25;

TEST_P(LazySessionTrajectory, EveryRoundMatchesEager)
{
    // Each round's thresholded profile from real adaptive sessions
    // (the perfbench recover chip shape), fed round by round into one
    // persistent context exactly as the session does, capped at the
    // session's two candidates. A capped lazy enumeration is checked
    // directly: two distinct valid codes matching the profile mean
    // the eager enumeration hits the cap too. A complete one must
    // equal the eager reference's set.
    const auto [first_seed, k, vendor] = GetParam();
    constexpr std::size_t kCap = 2;
    for (std::uint64_t seed = first_seed;
         seed < first_seed + kTrajectorySeeds; ++seed) {
        dram::ChipConfig config = dram::makeVendorConfig(vendor, k, seed);
        config.map.rows = 64;
        config.iidErrors = true;
        dram::SimulatedChip chip(config);
        SessionConfig sc;
        for (double ber : {0.05, 0.15, 0.3})
            sc.measure.pausesSeconds.push_back(
                chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
        sc.measure.repeatsPerPause = 25;
        sc.measure.thresholdProbability = 1e-4;
        sc.wordsUnderTest = dram::trueCellWords(chip);
        Session session(chip, sc);
        const RecoveryReport report = session.run();

        // Patterns are measured once each, so round r's profile is the
        // final profile's prefix of the patterns committed so far.
        const std::size_t p = ecc::parityBitsForDataBits(k);
        IncrementalSolver lazy(k, p);
        std::size_t end = 0;
        for (const SolveRoundStats &round : report.stats.solveRounds) {
            end += round.patternsEncoded;
            const MiscorrectionProfile prefix =
                slice(report.profile, 0, end);
            lazy.addProfile(prefix);
            const BeerSolveResult result = lazy.solve(kCap);
            const std::string where = std::string(1, vendor) + " seed " +
                                      std::to_string(seed) +
                                      " patterns " + std::to_string(end);
            if (result.complete) {
                expectSameSolutions(result, eagerBeerSolve(prefix, p),
                                    where);
                continue;
            }
            ASSERT_EQ(result.solutions.size(), kCap) << where;
            EXPECT_NE(canonicalKeys(result.solutions)[0],
                      canonicalKeys(result.solutions)[1])
                << where;
            std::vector<TestPattern> patterns;
            for (const PatternProfile &entry : prefix.patterns)
                patterns.push_back(entry.pattern);
            for (const LinearCode &solution : result.solutions) {
                EXPECT_TRUE(solution.isValidSec()) << where;
                EXPECT_EQ(exhaustiveProfile(solution, patterns), prefix)
                    << where;
            }
        }
        EXPECT_EQ(end, report.profile.patterns.size());
    }
}

// Seeds 1-50 in two ranges, so ctest -j spreads the slow k=32 cases.
// The range is the outer parameter: cases /0-/5 run seeds 1-25 and
// /6-/11 seeds 26-50, each over the same (k, vendor) grid.
INSTANTIATE_TEST_SUITE_P(
    Vendors, LazySessionTrajectory,
    ::testing::Combine(::testing::Values(std::uint64_t{1},
                                         1 + kTrajectorySeeds),
                       ::testing::Values(std::size_t{16}, std::size_t{32}),
                       ::testing::Values('A', 'B', 'C')));

TEST(LazySolver, RetractableRoundsSuspendProbeDropMatchEager)
{
    Rng rng(91);
    const LinearCode code = randomSecCode(11, rng);
    const std::size_t p = code.numParityBits();
    auto patterns = chargedPatterns(11, 1);
    auto two = chargedPatterns(11, 2);
    patterns.insert(patterns.end(), two.begin(), two.begin() + 12);
    const MiscorrectionProfile truth = exhaustiveProfile(code, patterns);
    MiscorrectionProfile noisy = truth;
    corrupt(noisy, 13); // a 2-CHARGED entry of round 2

    BeerSolverConfig config;
    config.retractableProfile = true;
    IncrementalSolver lazy(11, p, config);
    lazy.addProfile(slice(noisy, 0, 6));
    lazy.addProfile(slice(noisy, 6, 11));
    lazy.addProfile(slice(noisy, 11, 23));
    ASSERT_EQ(lazy.roundCount(), 3u);

    expectSameSolutions(lazy.solve(), eagerBeerSolve(noisy, p),
                        "all rounds");
    EXPECT_TRUE(lazy.solve().solutions.empty());

    lazy.suspendRound(2);
    const MiscorrectionProfile enforced =
        withoutPatterns(noisy, lazy.roundPatterns(2));
    EXPECT_EQ(lazy.probe(), sat::SolveResult::Sat);
    expectSameSolutions(lazy.solve(), eagerBeerSolve(enforced, p),
                        "round 2 suspended");
    lazy.resumeRound(2);
    EXPECT_EQ(lazy.probe(), sat::SolveResult::Unsat);

    const std::vector<TestPattern> retracted = lazy.roundPatterns(2);
    lazy.dropRound(2);
    expectSameSolutions(lazy.solve(), eagerBeerSolve(enforced, p),
                        "round 2 dropped");

    // Re-measured evidence for the dropped patterns opens a new round.
    lazy.addProfile(slice(truth, 11, 23));
    EXPECT_EQ(lazy.roundCount(), 4u);
    expectSameSolutions(lazy.solve(), eagerBeerSolve(truth, p),
                        "re-measured");
    bool found = false;
    for (const LinearCode &solution : lazy.solve().solutions)
        found = found || ecc::equivalent(solution, code);
    EXPECT_TRUE(found);
    EXPECT_EQ(retracted.size(), 12u);
}

TEST(LazySolver, NonMonotoneRebuildMatchesEager)
{
    // A rebuild re-registers entries without their held bits; the
    // refinement must re-derive whatever the new models violate, in
    // both the permanent and the retractable encodings.
    Rng rng(73);
    const LinearCode code = randomSecCode(10, rng);
    const std::size_t p = code.numParityBits();
    auto patterns = chargedPatterns(10, 1);
    auto two = chargedPatterns(10, 2);
    patterns.insert(patterns.end(), two.begin(), two.begin() + 8);
    const MiscorrectionProfile truth = exhaustiveProfile(code, patterns);
    MiscorrectionProfile flipped = truth;
    corrupt(flipped, 12);

    for (bool retractable : {false, true}) {
        BeerSolverConfig config;
        config.retractableProfile = retractable;
        IncrementalSolver lazy(10, p, config);
        lazy.addProfile(slice(flipped, 0, 10));
        lazy.addProfile(slice(flipped, 10, 18));
        expectSameSolutions(lazy.solve(), eagerBeerSolve(flipped, p),
                            "before rebuild");
        if (retractable)
            lazy.suspendRound(0);

        lazy.addProfile(truth);
        EXPECT_EQ(lazy.rebuilds(), 1u);
        const MiscorrectionProfile enforced =
            retractable ? slice(truth, 10, 18) : truth;
        expectSameSolutions(lazy.solve(64),
                            eagerBeerSolve(enforced, p, 64),
                            "after rebuild");
        if (retractable) {
            // Round 0 stayed suspended: with round 1 suspended too, no
            // profile entry is enforced.
            lazy.suspendRound(1);
            expectSameSolutions(lazy.solve(64),
                                eagerBeerSolve(slice(truth, 0, 0), p, 64),
                                "both rounds suspended");
            lazy.resumeRound(1);
            lazy.resumeRound(0);
            expectSameSolutions(lazy.solve(), eagerBeerSolve(truth, p),
                                "resumed after rebuild");
        }
    }
}

TEST(LazySolver, ConflictLimitedSolveIsIncomplete)
{
    // The limit covers refinement re-solves too, so a budget far below
    // the uniqueness proof's cost must end incomplete, never unique.
    Rng rng(5);
    const LinearCode code = randomSecCode(32, rng);
    const auto profile = exhaustiveProfile(code, chargedPatterns(32, 1));
    BeerSolverConfig config;
    config.conflictLimit = 1;
    const BeerSolveResult limited =
        solveForEccFunction(profile, code.numParityBits(), config);
    EXPECT_FALSE(limited.complete);
    EXPECT_FALSE(limited.unique());
    const BeerSolveResult full =
        solveForEccFunction(profile, code.numParityBits());
    EXPECT_TRUE(full.complete);
    EXPECT_GT(full.stats.conflicts, 1u);
}

TEST(LazySolver, DimacsExportIsTheCompleteInstance)
{
    // encodeHeldConstraints() + extractCnf() must export the whole
    // formula: a fresh solver enumerating the CNF over the P variables
    // finds exactly the solutions the lazy solve reports.
    Rng rng(17);
    for (int i = 0; i < 3; ++i) {
        const LinearCode code = randomSecCode(8, rng);
        const std::size_t p = code.numParityBits();
        const auto profile = exhaustiveProfile(code, chargedPatterns(8, 1));

        IncrementalSolver lazy(8, p);
        lazy.addProfile(profile);
        lazy.encodeHeldConstraints();
        const sat::Cnf cnf = sat::extractCnf(lazy.satSolver());

        // P is the first block of variables after the encoder's
        // constant, row-major.
        sat::Solver layout;
        const sat::Encoder layout_encoder(layout);
        const std::size_t first = layout.numVars();

        sat::Solver external;
        test::ref::loadCnf(cnf, external);
        std::vector<LinearCode> found;
        while (external.solve() == sat::SolveResult::Sat) {
            gf2::Matrix model(p, 8);
            std::vector<sat::Lit> blocking;
            for (std::size_t v = 0; v < p * 8; ++v) {
                const sat::Var var = (sat::Var)(first + v);
                const bool bit = external.modelValue(var);
                model.set(v / 8, v % 8, bit);
                blocking.push_back(bit ? ~sat::mkLit(var)
                                       : sat::mkLit(var));
            }
            found.push_back(ecc::canonicalize(LinearCode(model)));
            if (!external.addClause(blocking))
                break;
        }
        const BeerSolveResult reported = solveForEccFunction(profile, p);
        ASSERT_TRUE(reported.complete);
        EXPECT_EQ(canonicalKeys(found), canonicalKeys(reported.solutions))
            << "code " << i;
    }
}
