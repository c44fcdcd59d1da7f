/**
 * @file
 * DIMACS CNF export: dump a solver's problem clauses (BEER instances
 * included, via `beer_solve --dimacs-out`) for inspection by external
 * tools. The library writes DIMACS only; the SAT tests carry their own
 * reader (tests/ref/dimacs_reader.hh).
 */

#ifndef BEER_SAT_DIMACS_HH
#define BEER_SAT_DIMACS_HH

#include <ostream>
#include <vector>

#include "sat/types.hh"

namespace beer::sat
{

class Solver;

/** A CNF formula as a plain clause list. */
struct Cnf
{
    std::size_t numVars = 0;
    std::vector<std::vector<Lit>> clauses;
};

/** Print @p cnf in DIMACS format. */
void printDimacs(const Cnf &cnf, std::ostream &out);

/**
 * Snapshot @p solver's problem clauses (root units included, learned
 * clauses excluded) as a plain CNF, e.g. to cross-check a BEER
 * instance against an external solver.
 */
Cnf extractCnf(const Solver &solver);

} // namespace beer::sat

#endif // BEER_SAT_DIMACS_HH
