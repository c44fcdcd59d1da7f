/**
 * @file
 * google-benchmark microbenchmarks for the SAT substrate and the BEER
 * encoding, including the DESIGN.md ablation comparing the structured
 * support-inclusion predicate against brute-force error enumeration.
 */

#include <benchmark/benchmark.h>

#include "beer/profile.hh"
#include "beer/solver.hh"
#include "ecc/hamming.hh"
#include "sat/encoder.hh"
#include "sat/solver.hh"
#include "util/rng.hh"

using namespace beer;
using beer::sat::Lit;
using beer::sat::Solver;
using beer::sat::mkLit;

namespace
{

/** Random 3-SAT below the phase transition (satisfiable regime). */
void
BM_SatRandom3Sat(benchmark::State &state)
{
    const auto num_vars = (std::size_t)state.range(0);
    const auto num_clauses = (std::size_t)(num_vars * 3.5);
    util::Rng rng(42);
    std::uint64_t propagations = 0;

    for (auto _ : state) {
        Solver solver;
        for (std::size_t v = 0; v < num_vars; ++v)
            solver.newVar();
        for (std::size_t c = 0; c < num_clauses; ++c) {
            std::vector<Lit> clause;
            for (int j = 0; j < 3; ++j)
                clause.push_back(mkLit(
                    (sat::Var)rng.below(num_vars), rng.bernoulli(0.5)));
            solver.addClause(clause);
        }
        benchmark::DoNotOptimize(solver.solve());
        propagations += solver.stats().propagations;
    }
    state.counters["propagations"] = benchmark::Counter(
        (double)propagations, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(200);

/** Unit propagation throughput on an implication chain. */
void
BM_SatPropagationChain(benchmark::State &state)
{
    const auto length = (std::size_t)state.range(0);
    for (auto _ : state) {
        Solver solver;
        std::vector<sat::Var> vars;
        for (std::size_t i = 0; i < length; ++i)
            vars.push_back(solver.newVar());
        for (std::size_t i = 0; i + 1 < length; ++i)
            solver.addClause(mkLit(vars[i], true), mkLit(vars[i + 1]));
        solver.addClause(mkLit(vars[0]));
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatPropagationChain)->Arg(1000)->Arg(10000);

/** Full BEER solve (enumeration to UNSAT) for one random code. */
void
BM_BeerSolve(benchmark::State &state)
{
    const auto k = (std::size_t)state.range(0);
    util::Rng rng(7);
    const ecc::LinearCode code = ecc::randomSecCode(k, rng);
    const auto patterns = chargedPatterns(k, 1);
    const auto profile = exhaustiveProfile(code, patterns);
    std::uint64_t propagations = 0;

    for (auto _ : state) {
        const BeerSolveResult result =
            solveForEccFunction(profile, code.numParityBits());
        benchmark::DoNotOptimize(result);
        propagations += result.stats.propagations;
    }
    // Per-call solver cost, comparable across k and commits.
    state.counters["propagations"] = benchmark::Counter(
        (double)propagations, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BeerSolve)->Arg(8)->Arg(16)->Arg(26)->Arg(32);

/** Ablation: structured predicate vs brute-force enumeration. */
void
BM_ProfilePredicateStructured(benchmark::State &state)
{
    const auto k = (std::size_t)state.range(0);
    util::Rng rng(11);
    const ecc::LinearCode code = ecc::randomSecCode(k, rng);
    const auto patterns = chargedPatterns(k, 1);

    for (auto _ : state) {
        std::size_t possible = 0;
        for (const auto &pattern : patterns)
            for (std::size_t bit = 0; bit < k; ++bit)
                if (!patternContains(pattern, bit))
                    possible += miscorrectionPossible(code, pattern, bit);
        benchmark::DoNotOptimize(possible);
    }
}
BENCHMARK(BM_ProfilePredicateStructured)->Arg(8)->Arg(16);

void
BM_ProfilePredicateBruteForce(benchmark::State &state)
{
    const auto k = (std::size_t)state.range(0);
    util::Rng rng(11);
    const ecc::LinearCode code = ecc::randomSecCode(k, rng);
    const auto patterns = chargedPatterns(k, 1);

    for (auto _ : state) {
        std::size_t possible = 0;
        for (const auto &pattern : patterns)
            for (std::size_t bit = 0; bit < k; ++bit)
                if (!patternContains(pattern, bit))
                    possible += miscorrectionPossibleBruteForce(
                        code, pattern, bit);
        benchmark::DoNotOptimize(possible);
    }
}
BENCHMARK(BM_ProfilePredicateBruteForce)->Arg(8)->Arg(16);

/** Symmetry-breaking ablation at the whole-solve level. */
void
BM_BeerSolveNoSymmetryBreaking(benchmark::State &state)
{
    const auto k = (std::size_t)state.range(0);
    util::Rng rng(7);
    const ecc::LinearCode code = ecc::randomSecCode(k, rng);
    const auto profile =
        exhaustiveProfile(code, chargedPatterns(k, 1));
    BeerSolverConfig config;
    config.symmetryBreaking = false;

    for (auto _ : state) {
        benchmark::DoNotOptimize(solveForEccFunction(
            profile, code.numParityBits(), config));
    }
}
BENCHMARK(BM_BeerSolveNoSymmetryBreaking)->Arg(8)->Arg(16);

} // anonymous namespace

BENCHMARK_MAIN();
