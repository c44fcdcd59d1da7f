/**
 * @file
 * DIMACS CNF reader for the SAT tests: parse reference formulas and
 * load them into a solver. The library only writes DIMACS
 * (sat::printDimacs, for `beer_solve --dimacs-out`); reading it back
 * is a test concern, so a malformed formula throws instead of
 * reporting a typed error.
 */

#ifndef BEER_TESTS_REF_DIMACS_READER_HH
#define BEER_TESTS_REF_DIMACS_READER_HH

#include <cstdlib>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sat/dimacs.hh"
#include "sat/solver.hh"

namespace beer::test::ref
{

/** Parse DIMACS CNF from @p in; throws std::runtime_error if malformed. */
inline sat::Cnf
parseDimacs(std::istream &in)
{
    sat::Cnf cnf;
    std::string line;
    bool header_seen = false;
    std::vector<sat::Lit> current;

    while (std::getline(in, line)) {
        if (line.empty() || line[0] == 'c')
            continue;
        if (line[0] == 'p') {
            std::istringstream ss(line);
            std::string p, fmt;
            std::size_t clauses = 0;
            ss >> p >> fmt >> cnf.numVars >> clauses;
            if (fmt != "cnf")
                throw std::runtime_error("DIMACS: unsupported format '" +
                                         fmt + "'");
            header_seen = true;
            continue;
        }
        if (!header_seen)
            throw std::runtime_error(
                "DIMACS: clause before 'p cnf' header");
        std::istringstream ss(line);
        long v;
        while (ss >> v) {
            if (v == 0) {
                cnf.clauses.push_back(current);
                current.clear();
            } else {
                const auto var = (sat::Var)(std::labs(v) - 1);
                if ((std::size_t)var >= cnf.numVars)
                    throw std::runtime_error(
                        "DIMACS: variable " + std::to_string(v) +
                        " out of range");
                current.push_back(sat::mkLit(var, v < 0));
            }
        }
    }
    if (!current.empty())
        cnf.clauses.push_back(current);
    return cnf;
}

/** Load @p cnf into a fresh region of @p solver, creating variables. */
inline void
loadCnf(const sat::Cnf &cnf, sat::Solver &solver)
{
    const auto base = (sat::Var)solver.numVars();
    for (std::size_t i = 0; i < cnf.numVars; ++i)
        solver.newVar();
    for (const auto &clause : cnf.clauses) {
        std::vector<sat::Lit> shifted;
        shifted.reserve(clause.size());
        for (sat::Lit l : clause)
            shifted.push_back(sat::mkLit(l.var() + base, l.sign()));
        solver.addClause(std::move(shifted));
    }
}

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_DIMACS_READER_HH
