/**
 * @file
 * Tseitin circuit-to-CNF encoder layered over the CDCL solver.
 *
 * The BEER constraint system (support-inclusion predicates, XOR columns,
 * lexicographic symmetry breaking) is naturally expressed as a Boolean
 * circuit; this class introduces auxiliary variables gate by gate and
 * emits the equisatisfiable clauses into a Solver.
 *
 * Binary AND/XOR gates are structurally hashed: re-encoding an
 * identical subterm (same inputs up to commutation, and for XOR up to
 * input/output negation) returns the existing output literal instead
 * of emitting a duplicate gate. A long-lived encoder shared across
 * incremental solve rounds (beer::IncrementalSolver) therefore pays
 * for each distinct subcircuit once.
 *
 * Clause-group routing: setGroup() redirects every emitted clause —
 * gate definitions and top-level constraints alike — into a solver
 * clause group, making whole encoded subformulas retractable. While a
 * group is active, freshly built gates are NOT inserted into the
 * structural-hash cache: their defining clauses are only enforced
 * while the group is live, so caching them would let a later round
 * reuse an output literal whose definition has been retracted. Cache
 * lookups remain safe in grouped mode because only permanently
 * defined (ungrouped) gates ever enter the cache.
 */

#ifndef BEER_SAT_ENCODER_HH
#define BEER_SAT_ENCODER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sat/solver.hh"
#include "sat/types.hh"

namespace beer::sat
{

/** Gate-level CNF builder; all gates return a literal for the output. */
class Encoder
{
  public:
    explicit Encoder(Solver &solver);

    Solver &solver() { return solver_; }

    /** Fresh free variable as a positive literal. */
    Lit fresh();

    /** Constant literals (backed by a single forced variable). */
    Lit constTrue() const { return trueLit_; }
    Lit constFalse() const { return ~trueLit_; }

    // ---- gates (return the output literal) -----------------------------
    /** y <-> (a AND b). */
    Lit mkAnd(Lit a, Lit b);
    /** y <-> AND(lits); returns constTrue() for an empty list. */
    Lit mkAnd(const std::vector<Lit> &lits);
    /** y <-> (a OR b). */
    Lit mkOr(Lit a, Lit b);
    /** y <-> OR(lits); returns constFalse() for an empty list. */
    Lit mkOr(const std::vector<Lit> &lits);
    /** y <-> (a XOR b). */
    Lit mkXor(Lit a, Lit b);
    /** y <-> XOR(lits); returns constFalse() for an empty list. */
    Lit mkXor(const std::vector<Lit> &lits);

    // ---- top-level constraints -----------------------------------------
    /** Assert a clause. */
    void require(const std::vector<Lit> &lits);
    void require(Lit a);
    /** Assert a -> b. */
    void requireImplies(Lit a, Lit b);
    /**
     * Assert vector a <=_lex b (element 0 most significant), used for
     * row-permutation symmetry breaking in the BEER formulation.
     */
    void requireLexLeq(const std::vector<Lit> &a,
                       const std::vector<Lit> &b);

    /**
     * Route subsequently emitted clauses into @p group
     * (kGroupNone restores permanent, ungrouped emission).
     */
    void setGroup(GroupId group) { group_ = group; }

    /** Group currently receiving emitted clauses (kGroupNone if none). */
    GroupId group() const { return group_; }

    /** Number of auxiliary variables introduced so far. */
    std::size_t numAuxVars() const { return auxVars_; }

    /** Gates answered from the structural-hash cache instead of built. */
    std::size_t numGateCacheHits() const { return cacheHits_; }

  private:
    static std::uint64_t pairKey(Lit a, Lit b);

    /** Emit a clause, honoring the active clause group. */
    void emit(const Lit *lits, std::size_t size);
    template <typename... Lits>
    void emit(Lit first, Lits... rest)
    {
        const Lit lits[] = {first, rest...};
        emit(lits, 1 + sizeof...(rest));
    }

    Solver &solver_;
    Lit trueLit_;
    GroupId group_ = kGroupNone;
    std::size_t auxVars_ = 0;
    /** Structural hash: canonical input pair -> gate output literal. */
    std::unordered_map<std::uint64_t, Lit> andCache_;
    std::unordered_map<std::uint64_t, Lit> xorCache_;
    std::size_t cacheHits_ = 0;
};

} // namespace beer::sat

#endif // BEER_SAT_ENCODER_HH
