#include "sat/dimacs.hh"

#include "sat/solver.hh"

namespace beer::sat
{

void
printDimacs(const Cnf &cnf, std::ostream &out)
{
    out << "p cnf " << cnf.numVars << ' ' << cnf.clauses.size() << '\n';
    for (const auto &clause : cnf.clauses) {
        for (Lit l : clause)
            out << (l.sign() ? -(long)(l.var() + 1) : (long)(l.var() + 1))
                << ' ';
        out << "0\n";
    }
}

Cnf
extractCnf(const Solver &solver)
{
    Cnf cnf;
    cnf.numVars = solver.numVars();
    cnf.clauses = solver.problemClauses();
    return cnf;
}

} // namespace beer::sat
