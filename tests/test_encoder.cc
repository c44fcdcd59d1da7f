/**
 * @file
 * Tests for the Tseitin encoder: each gate is validated against its
 * truth table by enumerating input assignments with assumptions, and
 * the top-level constraints are checked by model counting.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sat/encoder.hh"
#include "sat/solver.hh"

using namespace beer::sat;

namespace
{

/**
 * For every assignment of @p inputs, check that forcing the inputs via
 * assumptions makes the solver agree with @p expected on @p output.
 */
void
checkTruthTable(Solver &solver, const std::vector<Lit> &inputs,
                Lit output,
                const std::function<bool(std::uint32_t)> &expected)
{
    for (std::uint32_t assign = 0;
         assign < (1u << inputs.size()); ++assign) {
        std::vector<Lit> assumptions;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const bool value = (assign >> i) & 1;
            assumptions.push_back(value ? inputs[i] : ~inputs[i]);
        }
        // Forcing the expected output value must be satisfiable...
        auto with_output = assumptions;
        with_output.push_back(expected(assign) ? output : ~output);
        EXPECT_EQ(solver.solve(with_output), SolveResult::Sat)
            << "assign " << assign;
        // ...and the opposite must not be.
        auto with_wrong = assumptions;
        with_wrong.push_back(expected(assign) ? ~output : output);
        EXPECT_EQ(solver.solve(with_wrong), SolveResult::Unsat)
            << "assign " << assign;
    }
}

std::vector<Lit>
freshInputs(Encoder &enc, std::size_t count)
{
    std::vector<Lit> out;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(enc.fresh());
    return out;
}

} // anonymous namespace

TEST(Encoder, ConstantsHold)
{
    Solver solver;
    Encoder enc(solver);
    ASSERT_EQ(solver.solve(), SolveResult::Sat);
    EXPECT_TRUE(solver.modelValue(enc.constTrue().var()));
    EXPECT_EQ(solver.solve({enc.constFalse()}), SolveResult::Unsat);
}

TEST(Encoder, AndGate)
{
    Solver solver;
    Encoder enc(solver);
    const auto in = freshInputs(enc, 2);
    const Lit y = enc.mkAnd(in[0], in[1]);
    checkTruthTable(solver, in, y, [](std::uint32_t a) {
        return (a & 3) == 3;
    });
}

TEST(Encoder, AndGateNary)
{
    Solver solver;
    Encoder enc(solver);
    const auto in = freshInputs(enc, 4);
    const Lit y = enc.mkAnd(in);
    checkTruthTable(solver, in, y, [](std::uint32_t a) {
        return (a & 0xF) == 0xF;
    });
}

TEST(Encoder, OrGateNary)
{
    Solver solver;
    Encoder enc(solver);
    const auto in = freshInputs(enc, 3);
    const Lit y = enc.mkOr(in);
    checkTruthTable(solver, in, y, [](std::uint32_t a) {
        return (a & 7) != 0;
    });
}

TEST(Encoder, XorGate)
{
    Solver solver;
    Encoder enc(solver);
    const auto in = freshInputs(enc, 2);
    const Lit y = enc.mkXor(in[0], in[1]);
    checkTruthTable(solver, in, y, [](std::uint32_t a) {
        return ((a >> 0) & 1) != ((a >> 1) & 1);
    });
}

TEST(Encoder, XorGateNary)
{
    Solver solver;
    Encoder enc(solver);
    const auto in = freshInputs(enc, 5);
    const Lit y = enc.mkXor(in);
    checkTruthTable(solver, in, y, [](std::uint32_t a) {
        return __builtin_popcount(a & 0x1F) % 2 == 1;
    });
}

TEST(Encoder, ConstantFolding)
{
    Solver solver;
    Encoder enc(solver);
    const Lit a = enc.fresh();
    EXPECT_EQ(enc.mkAnd(a, enc.constTrue()), a);
    EXPECT_EQ(enc.mkAnd(a, enc.constFalse()), enc.constFalse());
    EXPECT_EQ(enc.mkAnd(a, a), a);
    EXPECT_EQ(enc.mkAnd(a, ~a), enc.constFalse());
    EXPECT_EQ(enc.mkXor(a, enc.constFalse()), a);
    EXPECT_EQ(enc.mkXor(a, enc.constTrue()), ~a);
    EXPECT_EQ(enc.mkXor(a, a), enc.constFalse());
    EXPECT_EQ(enc.mkOr(std::vector<Lit>{}), enc.constFalse());
    EXPECT_EQ(enc.mkAnd(std::vector<Lit>{}), enc.constTrue());
}

TEST(Encoder, StructuralHashingSharesXorGates)
{
    Solver solver;
    Encoder enc(solver);
    const Lit a = enc.fresh();
    const Lit b = enc.fresh();

    const Lit y = enc.mkXor(a, b);
    const std::size_t aux = enc.numAuxVars();

    // Same gate re-requested in every commutation/negation variant:
    // no new auxiliary variable, just the (possibly negated) output.
    EXPECT_EQ(enc.mkXor(a, b), y);
    EXPECT_EQ(enc.mkXor(b, a), y);
    EXPECT_EQ(enc.mkXor(~a, b), ~y);
    EXPECT_EQ(enc.mkXor(a, ~b), ~y);
    EXPECT_EQ(enc.mkXor(~a, ~b), y);
    EXPECT_EQ(enc.mkXor(~b, ~a), y);
    EXPECT_EQ(enc.numAuxVars(), aux);
    EXPECT_GE(enc.numGateCacheHits(), 6u);

    // The shared negated form still has XOR semantics.
    checkTruthTable(solver, {a, b}, enc.mkXor(~a, b),
                    [](std::uint32_t assign) {
                        return (((assign >> 0) & 1) ^ 1) !=
                               ((assign >> 1) & 1);
                    });
}

TEST(Encoder, StructuralHashingSharesAndGates)
{
    Solver solver;
    Encoder enc(solver);
    const Lit a = enc.fresh();
    const Lit b = enc.fresh();

    const Lit y = enc.mkAnd(a, b);
    const std::size_t aux = enc.numAuxVars();
    EXPECT_EQ(enc.mkAnd(a, b), y);
    EXPECT_EQ(enc.mkAnd(b, a), y);
    EXPECT_EQ(enc.numAuxVars(), aux);

    // AND is not symmetric under negation: distinct gates required.
    const Lit z = enc.mkAnd(~a, b);
    EXPECT_NE(z, y);
    EXPECT_NE(z, ~y);
    EXPECT_GT(enc.numAuxVars(), aux);

    // De Morgan routing through mkAnd means mkOr shares too.
    const Lit o = enc.mkOr(~a, ~b);
    EXPECT_EQ(o, ~y);
}

TEST(Encoder, NaryXorChainsShareAcrossCalls)
{
    // Re-encoding the same XOR column (as an incremental re-solve
    // would) must not duplicate any gate.
    Solver solver;
    Encoder enc(solver);
    const auto in = freshInputs(enc, 6);
    const Lit first = enc.mkXor(in);
    const std::size_t aux = enc.numAuxVars();
    const Lit second = enc.mkXor(in);
    EXPECT_EQ(first, second);
    EXPECT_EQ(enc.numAuxVars(), aux);
}

TEST(Encoder, LexLeqEnumeratesOrderedPairs)
{
    // Two 3-bit vectors a <=_lex b: count assignments.
    Solver solver;
    Encoder enc(solver);
    const auto a = freshInputs(enc, 3);
    const auto b = freshInputs(enc, 3);
    enc.requireLexLeq(a, b);

    std::size_t models = 0;
    while (solver.solve() == SolveResult::Sat) {
        std::uint32_t av = 0;
        std::uint32_t bv = 0;
        std::vector<Lit> blocking;
        for (std::size_t i = 0; i < 3; ++i) {
            // Element 0 is most significant.
            av = (av << 1) | (std::uint32_t)solver.modelValue(a[i].var());
            bv = (bv << 1) | (std::uint32_t)solver.modelValue(b[i].var());
        }
        for (Lit l : a)
            blocking.push_back(solver.modelValue(l.var()) ? ~l : l);
        for (Lit l : b)
            blocking.push_back(solver.modelValue(l.var()) ? ~l : l);
        EXPECT_LE(av, bv);
        ++models;
        ASSERT_LE(models, 64u);
        solver.addClause(blocking);
    }
    // Number of ordered pairs (a <= b) over 8 values: 8*9/2 = 36.
    EXPECT_EQ(models, 36u);
}

TEST(Encoder, ImpliesConstraint)
{
    Solver solver;
    Encoder enc(solver);
    const Lit a = enc.fresh();
    const Lit b = enc.fresh();
    enc.requireImplies(a, b);
    EXPECT_EQ(solver.solve({a, ~b}), SolveResult::Unsat);
    EXPECT_EQ(solver.solve({a, b}), SolveResult::Sat);
    EXPECT_EQ(solver.solve({~a, ~b}), SolveResult::Sat);
}
