/**
 * @file
 * Tests for the CDCL SAT solver: hand-written formulas, reference
 * comparison against a brute-force evaluator on random CNFs, UNSAT
 * families (pigeonhole), assumptions, incremental use, and model
 * enumeration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "beer/session.hh"
#include "beer/solver.hh"
#include "dram/chip.hh"
#include "ecc/hamming.hh"
#include "ref/dimacs_reader.hh"
#include "sat/dimacs.hh"
#include "sat/solver.hh"
#include "util/rng.hh"

using namespace beer::sat;
using beer::test::ref::loadCnf;
using beer::test::ref::parseDimacs;
using beer::util::Rng;

namespace
{

/** Brute-force satisfiability of a clause list over n variables. */
bool
bruteForceSat(std::size_t num_vars,
              const std::vector<std::vector<Lit>> &clauses)
{
    for (std::uint64_t assign = 0; assign < (1ULL << num_vars);
         ++assign) {
        bool all_satisfied = true;
        for (const auto &clause : clauses) {
            bool satisfied = false;
            for (Lit l : clause) {
                const bool value = (assign >> l.var()) & 1;
                if (value != l.sign()) {
                    satisfied = true;
                    break;
                }
            }
            if (!satisfied) {
                all_satisfied = false;
                break;
            }
        }
        if (all_satisfied)
            return true;
    }
    return false;
}

/** Count satisfying assignments by brute force. */
std::size_t
bruteForceCount(std::size_t num_vars,
                const std::vector<std::vector<Lit>> &clauses)
{
    std::size_t count = 0;
    for (std::uint64_t assign = 0; assign < (1ULL << num_vars);
         ++assign) {
        bool all_satisfied = true;
        for (const auto &clause : clauses) {
            bool satisfied = false;
            for (Lit l : clause) {
                const bool value = (assign >> l.var()) & 1;
                if (value != l.sign()) {
                    satisfied = true;
                    break;
                }
            }
            if (!satisfied) {
                all_satisfied = false;
                break;
            }
        }
        count += all_satisfied;
    }
    return count;
}

/** Check the solver's model against the clauses. */
void
expectModelSatisfies(const Solver &solver,
                     const std::vector<std::vector<Lit>> &clauses)
{
    for (const auto &clause : clauses) {
        bool satisfied = false;
        for (Lit l : clause)
            if (solver.modelValue(l.var()) != l.sign())
                satisfied = true;
        EXPECT_TRUE(satisfied);
    }
}

} // anonymous namespace

TEST(Sat, LitBasics)
{
    const Lit a = mkLit(3);
    EXPECT_EQ(a.var(), 3);
    EXPECT_FALSE(a.sign());
    EXPECT_TRUE((~a).sign());
    EXPECT_EQ((~~a), a);
    EXPECT_TRUE(Lit().isUndef());
}

TEST(Sat, TrivialSat)
{
    Solver s;
    const Var x = s.newVar();
    s.addClause(mkLit(x));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(Sat, TrivialUnsat)
{
    Solver s;
    const Var x = s.newVar();
    s.addClause(mkLit(x));
    EXPECT_FALSE(s.addClause(mkLit(x, true)));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_TRUE(s.isUnsat());
}

TEST(Sat, EmptyFormulaIsSat)
{
    Solver s;
    s.newVar();
    s.newVar();
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, UnitPropagationChain)
{
    // x0; x0 -> x1; x1 -> x2; ...; x8 -> x9.
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 10; ++i)
        vars.push_back(s.newVar());
    s.addClause(mkLit(vars[0]));
    for (int i = 0; i + 1 < 10; ++i)
        s.addClause(mkLit(vars[i], true), mkLit(vars[i + 1]));
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    for (Var v : vars)
        EXPECT_TRUE(s.modelValue(v));
}

TEST(Sat, XorChainSat)
{
    // x0 xor x1 = 1, x1 xor x2 = 1, x0 = 1 => x1 = 0, x2 = 1.
    Solver s;
    const Var x0 = s.newVar();
    const Var x1 = s.newVar();
    const Var x2 = s.newVar();
    auto add_xor_one = [&](Var a, Var b) {
        s.addClause(mkLit(a), mkLit(b));
        s.addClause(mkLit(a, true), mkLit(b, true));
    };
    add_xor_one(x0, x1);
    add_xor_one(x1, x2);
    s.addClause(mkLit(x0));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x0));
    EXPECT_FALSE(s.modelValue(x1));
    EXPECT_TRUE(s.modelValue(x2));
}

TEST(Sat, PigeonholeUnsat)
{
    // PHP(n+1, n): n+1 pigeons into n holes — classically UNSAT and
    // exponential for resolution at scale; use a small instance.
    const int holes = 4;
    const int pigeons = 5;
    Solver s;
    std::vector<std::vector<Var>> var(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p][h] = s.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(var[p][h]));
        s.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.addClause(mkLit(var[p1][h], true),
                            mkLit(var[p2][h], true));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, RandomCnfMatchesBruteForce)
{
    Rng rng(101);
    int sat_seen = 0;
    int unsat_seen = 0;
    for (int round = 0; round < 200; ++round) {
        const std::size_t num_vars = 4 + rng.below(9); // 4..12
        // ~4.3 clauses/var is near the 3-SAT phase transition.
        const std::size_t num_clauses = (std::size_t)(num_vars * 4.3);
        std::vector<std::vector<Lit>> clauses;
        for (std::size_t i = 0; i < num_clauses; ++i) {
            std::vector<Lit> clause;
            for (int j = 0; j < 3; ++j)
                clause.push_back(mkLit((Var)rng.below(num_vars),
                                       rng.bernoulli(0.5)));
            clauses.push_back(clause);
        }

        Solver s;
        for (std::size_t v = 0; v < num_vars; ++v)
            s.newVar();
        for (const auto &clause : clauses)
            s.addClause(clause);

        const bool expected = bruteForceSat(num_vars, clauses);
        const SolveResult got = s.solve();
        ASSERT_EQ(got, expected ? SolveResult::Sat : SolveResult::Unsat)
            << "round " << round;
        if (expected) {
            ++sat_seen;
            expectModelSatisfies(s, clauses);
        } else {
            ++unsat_seen;
        }
    }
    // The mix must exercise both branches.
    EXPECT_GT(sat_seen, 20);
    EXPECT_GT(unsat_seen, 20);
}

TEST(Sat, Assumptions)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause(mkLit(x), mkLit(y)); // x or y

    EXPECT_EQ(s.solve({mkLit(x, true)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(y));

    EXPECT_EQ(s.solve({mkLit(y, true)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));

    EXPECT_EQ(s.solve({mkLit(x, true), mkLit(y, true)}),
              SolveResult::Unsat);

    // The formula itself is still satisfiable afterwards.
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, IncrementalClauseAddition)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause(mkLit(x), mkLit(y));
    ASSERT_EQ(s.solve(), SolveResult::Sat);

    // Block the found model, resolve, repeat: enumerates all 3 models.
    int models = 0;
    while (s.solve() == SolveResult::Sat) {
        ++models;
        ASSERT_LE(models, 3);
        std::vector<Lit> blocking;
        blocking.push_back(mkLit(x, s.modelValue(x)));
        blocking.push_back(mkLit(y, s.modelValue(y)));
        s.addClause(blocking);
    }
    EXPECT_EQ(models, 3);
}

TEST(Sat, ModelEnumerationMatchesBruteForceCount)
{
    Rng rng(103);
    for (int round = 0; round < 50; ++round) {
        const std::size_t num_vars = 3 + rng.below(6); // 3..8
        const std::size_t num_clauses = num_vars * 2;
        std::vector<std::vector<Lit>> clauses;
        for (std::size_t i = 0; i < num_clauses; ++i) {
            std::vector<Lit> clause;
            for (int j = 0; j < 3; ++j)
                clause.push_back(mkLit((Var)rng.below(num_vars),
                                       rng.bernoulli(0.5)));
            clauses.push_back(clause);
        }

        Solver s;
        for (std::size_t v = 0; v < num_vars; ++v)
            s.newVar();
        for (const auto &clause : clauses)
            s.addClause(clause);

        std::size_t models = 0;
        while (s.solve() == SolveResult::Sat) {
            ++models;
            ASSERT_LE(models, (std::size_t)1 << num_vars);
            std::vector<Lit> blocking;
            for (std::size_t v = 0; v < num_vars; ++v)
                blocking.push_back(mkLit((Var)v, s.modelValue((Var)v)));
            s.addClause(blocking);
        }
        EXPECT_EQ(models, bruteForceCount(num_vars, clauses))
            << "round " << round;
    }
}

TEST(Sat, GroupClausesBindOnlyWhileLive)
{
    Solver s;
    const Var x = s.newVar();
    const GroupId g = s.newGroup();
    s.addClause({mkLit(x, true)}, g); // group forces !x

    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(x));

    // A permanent clause conflicting with the live group: UNSAT under
    // the group, but the formula itself is fine.
    s.addClause(mkLit(x));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_FALSE(s.isUnsat());

    s.retireGroup(g);
    EXPECT_FALSE(s.groupLive(g));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(x));
}

TEST(Sat, RetireGroupIsIdempotent)
{
    Solver s;
    const Var x = s.newVar();
    const GroupId g = s.newGroup();
    s.addClause({mkLit(x)}, g);
    s.retireGroup(g);
    s.retireGroup(g);
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, ReleaseAfterRetireWithModelOnTrail)
{
    // releaseGroup on an already-retired group, with a model still on
    // the trail from the preceding Sat call, must reclaim cleanly
    // (regression: the root-simplification sweep once assumed level 0).
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause(mkLit(x), mkLit(y));
    const GroupId g = s.newGroup();
    s.addClause({mkLit(x, true)}, g);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    s.retireGroup(g);
    ASSERT_EQ(s.solve(), SolveResult::Sat); // model left on the trail
    s.releaseGroup(g);
    s.releaseGroup(g); // and twice
    EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, ReleasedBlockingClausesUnblockModels)
{
    // Enumerate all models of a free 2-variable formula by blocking in
    // a group; releasing the group must make every model reachable
    // again, which is exactly the retraction the incremental BEER
    // enumeration performs between measurement rounds.
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    s.addClause(mkLit(x), mkLit(y), mkLit(x)); // keep both vars used

    auto enumerate = [&](GroupId g) {
        int models = 0;
        while (s.solve() == SolveResult::Sat) {
            ++models;
            EXPECT_LE(models, 3);
            if (models > 3)
                break;
            std::vector<Lit> blocking;
            blocking.push_back(mkLit(x, s.modelValue(x)));
            blocking.push_back(mkLit(y, s.modelValue(y)));
            s.addClause(blocking, g);
        }
        return models;
    };

    const GroupId g1 = s.newGroup();
    EXPECT_EQ(enumerate(g1), 3);
    EXPECT_FALSE(s.isUnsat()); // only blocked, not unsatisfiable

    s.releaseGroup(g1);
    EXPECT_GE(s.stats().releasedClauses, 3u);

    const GroupId g2 = s.newGroup();
    EXPECT_EQ(enumerate(g2), 3);
}

TEST(Sat, GroupsComposeWithAssumptions)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    const GroupId g = s.newGroup();
    s.addClause({mkLit(x, true), mkLit(y)}, g); // group: x -> y

    EXPECT_EQ(s.solve({mkLit(x)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(y));
    EXPECT_EQ(s.solve({mkLit(x), mkLit(y, true)}), SolveResult::Unsat);

    s.retireGroup(g);
    EXPECT_EQ(s.solve({mkLit(x), mkLit(y, true)}), SolveResult::Sat);
}

TEST(Sat, GarbageCollectionPreservesSemantics)
{
    // Churn many release cycles so the arena collector runs, and keep
    // checking satisfiability against an unchanging permanent core.
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 30; ++i)
        vars.push_back(s.newVar());
    Rng rng(211);
    for (int i = 0; i < 60; ++i) {
        std::vector<Lit> clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(
                mkLit(vars[rng.below(30)], rng.bernoulli(0.5)));
        s.addClause(clause);
    }
    ASSERT_EQ(s.solve(), SolveResult::Sat);

    for (int cycle = 0; cycle < 40; ++cycle) {
        const GroupId g = s.newGroup();
        for (int i = 0; i < 20; ++i) {
            std::vector<Lit> clause;
            for (int j = 0; j < 4; ++j)
                clause.push_back(
                    mkLit(vars[rng.below(30)], rng.bernoulli(0.5)));
            s.addClause(clause, g);
        }
        s.solve();
        s.releaseGroup(g);
        ASSERT_EQ(s.solve(), SolveResult::Sat) << "cycle " << cycle;
    }
    EXPECT_GT(s.stats().garbageCollections, 0u);
}

TEST(Sat, ProblemClausesExportRoundTrips)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    const Var z = s.newVar();
    s.addClause(mkLit(x));                       // root unit
    s.addClause(mkLit(y), mkLit(z));             // binary
    s.addClause(mkLit(x, true), mkLit(y, true), mkLit(z)); // ternary

    const auto clauses = s.problemClauses();
    // The unit appears via the root trail; the two stored clauses as-is
    // (the ternary may have been simplified by the root-true literal).
    Solver copy;
    copy.newVar();
    copy.newVar();
    copy.newVar();
    for (const auto &clause : clauses)
        copy.addClause(clause);
    ASSERT_EQ(copy.solve(), SolveResult::Sat);
    EXPECT_TRUE(copy.modelValue(x));
}

TEST(Sat, ConflictLimitReturnsUnknown)
{
    // A pigeonhole instance large enough to need > 1 conflict.
    const int holes = 6;
    const int pigeons = 7;
    Solver s;
    std::vector<std::vector<Var>> var(pigeons, std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            var[p][h] = s.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(var[p][h]));
        s.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.addClause(mkLit(var[p1][h], true),
                            mkLit(var[p2][h], true));
    s.setConflictLimit(3);
    EXPECT_EQ(s.solve(), SolveResult::Unknown);
}

TEST(Sat, TautologyAndDuplicatesIgnored)
{
    Solver s;
    const Var x = s.newVar();
    const Var y = s.newVar();
    EXPECT_TRUE(s.addClause(mkLit(x), mkLit(x, true))); // tautology
    EXPECT_TRUE(s.addClause(mkLit(y), mkLit(y), mkLit(y)));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(y));
}

TEST(Sat, StatsPopulated)
{
    Solver s;
    std::vector<Var> vars;
    for (int i = 0; i < 20; ++i)
        vars.push_back(s.newVar());
    Rng rng(107);
    for (int i = 0; i < 80; ++i) {
        std::vector<Lit> clause;
        for (int j = 0; j < 3; ++j)
            clause.push_back(mkLit(vars[rng.below(20)],
                                   rng.bernoulli(0.5)));
        s.addClause(clause);
    }
    s.solve();
    EXPECT_GT(s.stats().propagations, 0u);
    EXPECT_GT(s.stats().arenaBytes, 0u);
}

TEST(Dimacs, ParseAndPrintRoundTrip)
{
    const std::string text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n";
    std::istringstream in(text);
    const Cnf cnf = parseDimacs(in);
    EXPECT_EQ(cnf.numVars, 3u);
    ASSERT_EQ(cnf.clauses.size(), 2u);
    EXPECT_EQ(cnf.clauses[0][0], mkLit(0));
    EXPECT_EQ(cnf.clauses[0][1], mkLit(1, true));

    std::ostringstream out;
    printDimacs(cnf, out);
    std::istringstream in2(out.str());
    const Cnf cnf2 = parseDimacs(in2);
    EXPECT_EQ(cnf2.numVars, cnf.numVars);
    EXPECT_EQ(cnf2.clauses.size(), cnf.clauses.size());
}

TEST(Dimacs, LoadIntoSolver)
{
    std::istringstream in("p cnf 2 2\n1 0\n-1 2 0\n");
    const Cnf cnf = parseDimacs(in);
    Solver s;
    loadCnf(cnf, s);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(0));
    EXPECT_TRUE(s.modelValue(1));
}

namespace
{

/** The search counters a trajectory is pinned by. */
struct Trajectory
{
    std::uint64_t decisions;
    std::uint64_t propagations;
    std::uint64_t conflicts;
    std::uint64_t learnedClauses;
};

Trajectory
trajectoryOf(const SolverStats &s)
{
    return {s.decisions, s.propagations, s.conflicts, s.learnedClauses};
}

void
expectTrajectory(const Trajectory &got, const Trajectory &want,
                 const char *name)
{
    EXPECT_EQ(got.decisions, want.decisions) << name;
    EXPECT_EQ(got.propagations, want.propagations) << name;
    EXPECT_EQ(got.conflicts, want.conflicts) << name;
    EXPECT_EQ(got.learnedClauses, want.learnedClauses) << name;
}

/** SessionStats::sat of one perfbench `recover`-shape chip. */
SolverStats
recoverShapeSessionStats(std::size_t item)
{
    const char vendor = "ABC"[item % 3];
    beer::dram::ChipConfig config = beer::dram::makeVendorConfig(
        vendor, 32, 1001 * 1000003ULL + item);
    config.map.rows = 64;
    config.iidErrors = true;
    beer::dram::SimulatedChip chip(config);

    beer::SessionConfig session_config;
    for (double ber : {0.05, 0.15, 0.3})
        session_config.measure.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    session_config.measure.repeatsPerPause = 25;
    session_config.measure.thresholdProbability = 1e-4;
    session_config.wordsUnderTest = beer::dram::trueCellWords(chip);
    beer::Session session(chip, session_config);
    const beer::RecoveryReport report = session.run();
    EXPECT_TRUE(report.succeeded()) << "item " << item;
    return report.stats.sat;
}

} // anonymous namespace

/**
 * The solver's search is pinned: every decision, propagation and
 * learned clause on these instances is part of the contract, because
 * session schedules, experiment counts and recovered functions all
 * follow from it. A hot-path change to the solver must leave these
 * counters exactly as they are; a deliberate search change updates
 * them and says so.
 */
TEST(Sat, SearchTrajectoryIsPinned)
{
    {
        // Random 3-SAT near the phase transition.
        Rng rng(1234);
        Solver s;
        const std::size_t num_vars = 150;
        for (std::size_t v = 0; v < num_vars; ++v)
            s.newVar();
        for (std::size_t c = 0; c < 630; ++c) {
            std::vector<Lit> clause;
            for (int j = 0; j < 3; ++j)
                clause.push_back(mkLit((Var)rng.below(num_vars),
                                       rng.bernoulli(0.5)));
            s.addClause(clause);
        }
        s.solve();
        expectTrajectory(trajectoryOf(s.stats()), {1558, 41405, 1277, 1275},
                         "random 3-SAT");
    }
    {
        // PHP(7, 6).
        const int holes = 6;
        const int pigeons = 7;
        Solver s;
        std::vector<std::vector<Var>> var(pigeons,
                                          std::vector<Var>(holes));
        for (int p = 0; p < pigeons; ++p)
            for (int h = 0; h < holes; ++h)
                var[p][h] = s.newVar();
        for (int p = 0; p < pigeons; ++p) {
            std::vector<Lit> clause;
            for (int h = 0; h < holes; ++h)
                clause.push_back(mkLit(var[p][h]));
            s.addClause(clause);
        }
        for (int h = 0; h < holes; ++h)
            for (int p1 = 0; p1 < pigeons; ++p1)
                for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                    s.addClause(mkLit(var[p1][h], true),
                                mkLit(var[p2][h], true));
        ASSERT_EQ(s.solve(), SolveResult::Unsat);
        expectTrajectory(trajectoryOf(s.stats()), {735, 7140, 604, 601},
                         "pigeonhole");
    }
    for (std::size_t k : {16, 32}) {
        Rng rng(7);
        const beer::ecc::LinearCode code = beer::ecc::randomSecCode(k, rng);
        const auto profile = beer::exhaustiveProfile(
            code, beer::chargedPatterns(k, 1));
        const beer::BeerSolveResult result =
            beer::solveForEccFunction(profile, code.numParityBits());
        ASSERT_TRUE(result.unique());
        expectTrajectory(trajectoryOf(result.stats),
                         k == 16 ? Trajectory{242, 6042, 23, 21}
                                 : Trajectory{1121, 39242, 54, 47},
                         k == 16 ? "BEER k=16" : "BEER k=32");
    }
    {
        SolverStats sum;
        for (std::size_t item = 0; item < 6; ++item)
            sum.accumulate(recoverShapeSessionStats(item));
        expectTrajectory(trajectoryOf(sum), {31849, 774390, 1452, 1426},
                         "recover sessions");
    }
}

// ---- binary clauses: implied from their watchers ---------------------

namespace
{

/** Random clause of @p width literals over @p num_vars variables. */
std::vector<Lit>
randomClause(Rng &rng, std::size_t num_vars, std::size_t width)
{
    std::vector<Lit> clause;
    for (std::size_t j = 0; j < width; ++j)
        clause.push_back(
            mkLit((Var)rng.below(num_vars), rng.bernoulli(0.5)));
    return clause;
}

/** @p clauses, each sorted, as a sorted list (a multiset). */
std::vector<std::vector<Lit>>
canonical(std::vector<std::vector<Lit>> clauses)
{
    for (auto &clause : clauses)
        std::sort(clause.begin(), clause.end());
    std::sort(clauses.begin(), clauses.end(),
              [](const std::vector<Lit> &a, const std::vector<Lit> &b) {
                  return std::lexicographical_compare(a.begin(), a.end(),
                                                      b.begin(), b.end());
              });
    return clauses;
}

} // anonymous namespace

TEST(SatBinary, ConflictAboveRootLevel)
{
    // All-binary formula: assuming a implies b and c at level 1, and
    // (!b | !c) conflicts there. The learned unit !a then refutes the
    // assumption, and the formula stays satisfiable without it.
    Solver s;
    const Var a = s.newVar();
    const Var b = s.newVar();
    const Var c = s.newVar();
    s.addClause(mkLit(a, true), mkLit(b));
    s.addClause(mkLit(a, true), mkLit(c));
    s.addClause(mkLit(b, true), mkLit(c, true));
    EXPECT_EQ(s.solve({mkLit(a)}), SolveResult::Unsat);
    EXPECT_EQ(s.stats().conflicts, 1u);
    EXPECT_FALSE(s.isUnsat());
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(s.modelValue(a));
    EXPECT_FALSE(s.modelValue(b) && s.modelValue(c));

    // The same conflict two levels up: x is assumed first, so the
    // learned clause (!x | !a) is binary and a later call implies !a
    // from x without another conflict.
    Solver t;
    const Var x = t.newVar();
    const Var p = t.newVar();
    const Var q = t.newVar();
    const Var r = t.newVar();
    t.addClause(mkLit(x, true), mkLit(p, true), mkLit(q));
    t.addClause(mkLit(p, true), mkLit(r));
    t.addClause(mkLit(q, true), mkLit(r, true));
    EXPECT_EQ(t.solve({mkLit(x), mkLit(p)}), SolveResult::Unsat);
    EXPECT_EQ(t.stats().conflicts, 1u);
    EXPECT_EQ(t.stats().learnedClauses, 1u);
    EXPECT_EQ(t.solve({mkLit(x), mkLit(p)}), SolveResult::Unsat);
    EXPECT_EQ(t.stats().conflicts, 1u);
    ASSERT_EQ(t.solve({mkLit(x)}), SolveResult::Sat);
    EXPECT_FALSE(t.modelValue(p));
}

TEST(SatBinary, BinaryReasonIsMinimizedAway)
{
    // Assume x1 (level 1) then x2 (level 2). y is implied at level 1 by
    // the binary (!x1 | y); z at level 2 by (!x2 | z); then w by
    // (!z | !y | w), and (!z | !x1 | !w) conflicts. First-UIP learns
    // (!z | !x1 | !y); y's binary reason mentions only x1, already in
    // the clause, so recursive minimization drops !y and the learned
    // clause stored in the arena is binary.
    Solver s;
    const Var x1 = s.newVar();
    const Var x2 = s.newVar();
    const Var y = s.newVar();
    const Var z = s.newVar();
    const Var w = s.newVar();
    s.addClause(mkLit(x1, true), mkLit(y));
    s.addClause(mkLit(x2, true), mkLit(z));
    s.addClause(mkLit(z, true), mkLit(y, true), mkLit(w));
    s.addClause(mkLit(z, true), mkLit(x1, true), mkLit(w, true));
    const std::uint64_t before = s.stats().arenaBytes;
    EXPECT_EQ(s.solve({mkLit(x1), mkLit(x2)}), SolveResult::Unsat);
    EXPECT_EQ(s.stats().conflicts, 1u);
    EXPECT_EQ(s.stats().learnedClauses, 1u);
    // Header, size and activity words plus two literals.
    EXPECT_EQ(s.stats().arenaBytes - before, 5 * sizeof(std::uint32_t));

    // The learned binary (!z | !x1) now implies !z from x1 alone.
    EXPECT_EQ(s.solve({mkLit(x1), mkLit(z)}), SolveResult::Unsat);
    EXPECT_EQ(s.stats().conflicts, 1u);
    ASSERT_EQ(s.solve({mkLit(x1)}), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(y));
    EXPECT_FALSE(s.modelValue(z));
    EXPECT_FALSE(s.modelValue(x2));
}

TEST(SatBinary, LearnedClausesKeepAssumptionSolvesExact)
{
    // One long-lived solver over a mostly binary formula answers many
    // calls under random assumptions, so clauses learned in one call
    // (binary ones among them) propagate in the next. Every answer is
    // checked against brute force.
    Rng rng(41);
    const std::size_t num_vars = 12;
    Solver s;
    for (std::size_t v = 0; v < num_vars; ++v)
        s.newVar();
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < 18; ++i)
        clauses.push_back(randomClause(rng, num_vars, i % 2 ? 2 : 3));
    for (const auto &clause : clauses)
        s.addClause(clause);

    int sat_seen = 0;
    int unsat_seen = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<Lit> assumptions;
        std::vector<std::vector<Lit>> with_units = clauses;
        for (int j = 0; j < 3; ++j) {
            assumptions.push_back(
                mkLit((Var)rng.below(num_vars), rng.bernoulli(0.5)));
            with_units.push_back({assumptions.back()});
        }
        const bool expected = bruteForceSat(num_vars, with_units);
        ASSERT_EQ(s.solve(assumptions),
                  expected ? SolveResult::Sat : SolveResult::Unsat)
            << "round " << round;
        if (expected)
            expectModelSatisfies(s, with_units);
        (expected ? sat_seen : unsat_seen)++;
    }
    EXPECT_GT(sat_seen, 20);
    EXPECT_GT(unsat_seen, 20);
    EXPECT_GT(s.stats().learnedClauses, 0u);
}

TEST(SatBinary, SurviveReleaseCollectionAndRebuild)
{
    // A permanent implication chain x0 -> x1 -> ... -> x49 of binary
    // clauses and permanent ternaries (!a | !b | c), plus groups of
    // wide clauses released over and over: each release rebuilds the
    // watch lists, and enough garbage makes the arena collector move
    // every clause. The chain must still propagate afterwards, and a
    // ternary must not be taken for a binary.
    Solver s;
    std::vector<Var> chain;
    for (int i = 0; i < 50; ++i)
        chain.push_back(s.newVar());
    for (int i = 0; i + 1 < 50; ++i)
        s.addClause(mkLit(chain[i], true), mkLit(chain[i + 1]));
    const Var a = s.newVar();
    const Var b = s.newVar();
    const Var c = s.newVar();
    s.addClause(mkLit(a, true), mkLit(b, true), mkLit(c));
    std::vector<Var> free_vars;
    for (int i = 0; i < 20; ++i)
        free_vars.push_back(s.newVar());

    Rng rng(3);
    for (int cycle = 0; cycle < 30; ++cycle) {
        const GroupId g = s.newGroup();
        for (int i = 0; i < 30; ++i) {
            std::vector<Lit> clause;
            for (int j = 0; j < 6; ++j)
                clause.push_back(mkLit(free_vars[rng.below(20)],
                                       rng.bernoulli(0.5)));
            s.addClause(clause, g);
        }
        // A grouped binary clause that contradicts the chain's end.
        s.addClause({mkLit(chain[49], true)}, g);
        EXPECT_EQ(s.solve({mkLit(chain[0])}), SolveResult::Unsat)
            << "cycle " << cycle;
        s.releaseGroup(g);
        ASSERT_EQ(s.solve({mkLit(chain[0])}), SolveResult::Sat)
            << "cycle " << cycle;
        for (Var v : chain)
            EXPECT_TRUE(s.modelValue(v));
        EXPECT_EQ(s.solve({mkLit(chain[0]), mkLit(chain[49], true)}),
                  SolveResult::Unsat);
        ASSERT_EQ(s.solve({mkLit(a), mkLit(c, true)}), SolveResult::Sat);
        EXPECT_FALSE(s.modelValue(b));
        EXPECT_EQ(s.solve({mkLit(a), mkLit(b), mkLit(c, true)}),
                  SolveResult::Unsat);
        EXPECT_EQ(s.solve({mkLit(a), mkLit(b), mkLit(c)}),
                  SolveResult::Sat);
    }
    EXPECT_GT(s.stats().garbageCollections, 0u);
    EXPECT_GT(s.stats().releasedClauses, 0u);
}

TEST(SatBinary, ProblemClausesRoundTripThroughDimacs)
{
    // Solving with conflicts on binary clauses leaves their literals
    // in either order in the arena; the export must still be exactly
    // the clauses that were added.
    Rng rng(17);
    for (int round = 0; round < 20; ++round) {
        const std::size_t num_vars = 8;
        Solver s;
        for (std::size_t v = 0; v < num_vars; ++v)
            s.newVar();
        std::vector<std::vector<Lit>> added;
        for (int i = 0; i < 14; ++i) {
            std::vector<Lit> clause =
                randomClause(rng, num_vars, 2 + rng.below(2));
            std::sort(clause.begin(), clause.end());
            const bool tautology =
                std::adjacent_find(clause.begin(), clause.end(),
                                   [](Lit a, Lit b) {
                                       return a.var() == b.var();
                                   }) != clause.end();
            if (tautology)
                continue;
            added.push_back(clause);
            s.addClause(clause);
        }
        for (int j = 0; j < 6; ++j)
            s.solve({mkLit((Var)rng.below(num_vars), rng.bernoulli(0.5)),
                     mkLit((Var)rng.below(num_vars), rng.bernoulli(0.5))});
        // The export is the stored clauses plus the root units the
        // search learned, each of which the added clauses imply.
        const Cnf cnf = extractCnf(s);
        std::vector<std::vector<Lit>> stored;
        for (const auto &clause : cnf.clauses) {
            if (clause.size() > 1) {
                stored.push_back(clause);
                continue;
            }
            std::vector<std::vector<Lit>> refute = added;
            refute.push_back({~clause[0]});
            EXPECT_FALSE(bruteForceSat(num_vars, refute))
                << "round " << round;
        }
        EXPECT_EQ(canonical(stored), canonical(added))
            << "round " << round;

        std::ostringstream text;
        printDimacs(cnf, text);
        std::istringstream in(text.str());
        const Cnf parsed = parseDimacs(in);
        EXPECT_EQ(parsed.numVars, num_vars);
        EXPECT_EQ(canonical(parsed.clauses), canonical(cnf.clauses));
        Solver copy;
        loadCnf(parsed, copy);
        const bool expected = bruteForceSat(num_vars, added);
        ASSERT_EQ(copy.solve(),
                  expected ? SolveResult::Sat : SolveResult::Unsat);
        if (expected)
            expectModelSatisfies(copy, added);
    }
}

TEST(SatBinary, MixedCnfWithRetiredGroupMatchesBruteForce)
{
    // Random 2/3-CNF, half of it in a group: solve with the group
    // live, retire or release it partway through, then solve again
    // on the permanent half alone. Every answer is checked against
    // brute force on one long-lived solver per round.
    Rng rng(2024);
    int sat_seen = 0;
    int unsat_seen = 0;
    for (int round = 0; round < 150; ++round) {
        const std::size_t num_vars = 5 + rng.below(8); // 5..12
        Solver s;
        for (std::size_t v = 0; v < num_vars; ++v)
            s.newVar();
        const GroupId g = s.newGroup();
        std::vector<std::vector<Lit>> permanent;
        std::vector<std::vector<Lit>> grouped;
        const std::size_t num_clauses = num_vars * 3;
        for (std::size_t i = 0; i < num_clauses; ++i) {
            const std::vector<Lit> clause =
                randomClause(rng, num_vars, rng.bernoulli(0.5) ? 2 : 3);
            if (i % 2) {
                grouped.push_back(clause);
                s.addClause(clause, g);
            } else {
                permanent.push_back(clause);
                s.addClause(clause);
            }
        }
        std::vector<std::vector<Lit>> all = permanent;
        all.insert(all.end(), grouped.begin(), grouped.end());

        const bool live_sat = bruteForceSat(num_vars, all);
        ASSERT_EQ(s.solve(), live_sat ? SolveResult::Sat
                                      : SolveResult::Unsat)
            << "round " << round;
        if (live_sat)
            expectModelSatisfies(s, all);
        (live_sat ? sat_seen : unsat_seen)++;

        if (round % 2)
            s.releaseGroup(g);
        else
            s.retireGroup(g);
        const bool retired_sat = bruteForceSat(num_vars, permanent);
        ASSERT_EQ(s.solve(), retired_sat ? SolveResult::Sat
                                         : SolveResult::Unsat)
            << "round " << round << " after retiring";
        if (retired_sat)
            expectModelSatisfies(s, permanent);
    }
    EXPECT_GT(sat_seen, 20);
    EXPECT_GT(unsat_seen, 20);
}
