/**
 * @file
 * Reference model of the BEER solve (paper Section 5.3) with the whole
 * formula encoded up front: column weights, pairwise column
 * distinctness, row-order symmetry breaking and every bit of every
 * profile entry, then enumeration by blocking clauses until UNSAT. The
 * lazily refined beer::IncrementalSolver must return exactly this
 * canonical solution set.
 */

#ifndef BEER_TESTS_REF_EAGER_BEER_SOLVE_HH
#define BEER_TESTS_REF_EAGER_BEER_SOLVE_HH

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "beer/profile.hh"
#include "beer/solver.hh"
#include "ecc/code_equiv.hh"
#include "gf2/matrix.hh"
#include "sat/encoder.hh"

namespace beer::test::ref
{

/**
 * Every function with @p p parity bits consistent with @p profile, up
 * to @p max_solutions (0 = all; complete is false when the cap hits).
 */
inline BeerSolveResult
eagerBeerSolve(const MiscorrectionProfile &profile, std::size_t p,
               std::size_t max_solutions = 0,
               bool symmetry_breaking = true)
{
    using sat::Lit;
    const std::size_t k = profile.k;
    sat::Solver solver;
    sat::Encoder enc(solver);
    std::vector<Lit> vars(p * k);
    for (Lit &v : vars)
        v = enc.fresh();
    const auto at = [&](std::size_t r, std::size_t c) {
        return vars[r * k + c];
    };

    // Column weight >= 2: nonzero and not a parity column.
    for (std::size_t c = 0; c < k; ++c) {
        std::vector<Lit> col;
        for (std::size_t r = 0; r < p; ++r)
            col.push_back(at(r, c));
        enc.require(col);
        for (std::size_t r = 0; r < p; ++r) {
            std::vector<Lit> clause{~col[r]};
            for (std::size_t r2 = 0; r2 < p; ++r2)
                if (r2 != r)
                    clause.push_back(col[r2]);
            enc.require(clause);
        }
    }
    // Pairwise distinct columns.
    for (std::size_t a = 0; a < k; ++a)
        for (std::size_t b = a + 1; b < k; ++b) {
            std::vector<Lit> diffs;
            for (std::size_t r = 0; r < p; ++r)
                diffs.push_back(enc.mkXor(at(r, a), at(r, b)));
            enc.require(diffs);
        }
    // Rows in ascending lexicographic order.
    for (std::size_t r = 0; symmetry_breaking && r + 1 < p; ++r) {
        std::vector<Lit> lo, hi;
        for (std::size_t c = 0; c < k; ++c) {
            lo.push_back(at(r, c));
            hi.push_back(at(r + 1, c));
        }
        enc.requireLexLeq(lo, hi);
    }
    // Every profile bit: possible(S, j) iff observed, where possible
    // is OR over subsets T of S \ {S[0]} of AND over rows of
    // (v_r -> U_r), v = col_j xor cols(T), U = xor of cols(S).
    for (const PatternProfile &entry : profile.patterns) {
        const TestPattern &pattern = entry.pattern;
        std::vector<Lit> u(p);
        for (std::size_t r = 0; r < p; ++r) {
            std::vector<Lit> terms;
            for (std::size_t i : pattern)
                terms.push_back(at(r, i));
            u[r] = enc.mkXor(terms);
        }
        const std::size_t reduced = pattern.size() - 1;
        for (std::size_t j = 0; j < k; ++j) {
            if (patternContains(pattern, j))
                continue;
            std::vector<Lit> conditions;
            for (std::size_t subset = 0;
                 subset < ((std::size_t)1 << reduced); ++subset) {
                std::vector<Lit> implications;
                for (std::size_t r = 0; r < p; ++r) {
                    std::vector<Lit> terms{at(r, j)};
                    for (std::size_t i = 0; i < reduced; ++i)
                        if ((subset >> i) & 1)
                            terms.push_back(at(r, pattern[i + 1]));
                    implications.push_back(
                        enc.mkOr(~enc.mkXor(terms), u[r]));
                }
                conditions.push_back(enc.mkAnd(implications));
            }
            const Lit possible = enc.mkOr(conditions);
            enc.require(entry.miscorrectable.get(j) ? possible
                                                    : ~possible);
        }
    }

    BeerSolveResult result;
    std::set<std::string> seen;
    while (solver.solve() == sat::SolveResult::Sat) {
        gf2::Matrix model(p, k);
        std::vector<Lit> blocking;
        for (std::size_t r = 0; r < p; ++r)
            for (std::size_t c = 0; c < k; ++c) {
                const bool bit = solver.modelValue(at(r, c).var());
                model.set(r, c, bit);
                blocking.push_back(bit ? ~at(r, c) : at(r, c));
            }
        const ecc::LinearCode canonical =
            ecc::canonicalize(ecc::LinearCode(model));
        if (seen.insert(canonical.pMatrix().toString()).second)
            result.solutions.push_back(canonical);
        if (max_solutions && result.solutions.size() >= max_solutions) {
            result.complete = false;
            break;
        }
        if (!solver.addClause(blocking))
            break;
    }
    return result;
}

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_EAGER_BEER_SOLVE_HH
