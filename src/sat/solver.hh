/**
 * @file
 * A from-scratch CDCL SAT solver.
 *
 * The BEER paper formulates ECC-function recovery as a satisfiability
 * problem and solves it with Z3. This solver is our self-contained
 * equivalent: conflict-driven clause learning with two-literal watches,
 * EVSIDS branching, phase saving, Luby restarts, first-UIP learning with
 * recursive clause minimization, and activity-based learned-clause
 * deletion. It supports incremental use: clauses may be added between
 * solve() calls, solve() accepts assumptions, and learned clauses and
 * variable activity survive across calls, so a long-lived solver warm-
 * starts every re-solve (beer::IncrementalSolver relies on this).
 *
 * Retractable clause groups: a clause added under a GroupId is guarded
 * by that group's activation literal and is enforced only while the
 * group is live (solve() assumes the activation literal of every live
 * group). retireGroup() permanently deactivates a group — its clauses,
 * and any learned clauses derived from them, become inert;
 * releaseGroup() additionally drops the dead clauses from the watch
 * lists and reclaims arena memory once enough of it is garbage. The
 * model-enumeration loop in beer::IncrementalSolver keeps its per-round
 * blocking clauses in such a group so they can be retracted when new
 * measurement evidence arrives.
 *
 * Hot path: values live in one table indexed by literal, so reading a
 * literal's value is one load. A binary clause's watcher is tagged and
 * its blocker is the clause's other literal, so propagate() implies it
 * without reading the arena; the arena is written only on a binary
 * conflict and when conflict analysis reads a binary reason, to give
 * the two literals the order the general clause path would. addClause()
 * normalizes into one reused buffer and appends a group's guard there,
 * so adding a clause allocates nothing beyond arena and watch growth.
 *
 * Search identity: those are cost changes only. Decisions, propagation
 * order, learned clauses and models are exactly what the plain two-
 * watched-literal loop produces, and session schedules follow from
 * them; Sat.SearchTrajectoryIsPinned (tests/test_sat.cc) pins the
 * counters on four instances. A deliberate search change updates its
 * literals and says so.
 */

#ifndef BEER_SAT_SOLVER_HH
#define BEER_SAT_SOLVER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sat/types.hh"

namespace beer::sat
{

/** Counters exposed for the Figure-6 performance bench. */
struct SolverStats
{
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnedClauses = 0;
    std::uint64_t deletedClauses = 0;
    /** Problem clauses stored (units included; tautologies excluded). */
    std::uint64_t addedClauses = 0;
    /** Clauses dropped by releaseGroup() root simplification. */
    std::uint64_t releasedClauses = 0;
    /** Arena compactions triggered by accumulated garbage. */
    std::uint64_t garbageCollections = 0;
    /** Approximate heap footprint of the clause arena, in bytes. */
    std::uint64_t arenaBytes = 0;

    /** Add @p other's counters into this (arenaBytes takes the max). */
    void accumulate(const SolverStats &other);
    /** Counter deltas since @p before (arenaBytes stays absolute). */
    SolverStats deltaSince(const SolverStats &before) const;
};

/** Handle for a retractable clause group; see the file comment. */
using GroupId = std::uint32_t;
constexpr GroupId kGroupNone = UINT32_MAX;

/** CDCL SAT solver; see file comment. */
class Solver
{
  public:
    Solver();

    /** Create a fresh variable and return it. */
    Var newVar();

    std::size_t numVars() const { return (std::size_t)numVars_; }

    /**
     * Add the clause (disjunction) of @p size literals at @p lits,
     * enforced only while @p group is live when one is given.
     *
     * May be called before or between solve() calls. Returns false if
     * the formula is trivially unsatisfiable (e.g. the empty clause,
     * or a unit contradicting a prior unit).
     */
    bool addClause(const Lit *lits, std::size_t size,
                   GroupId group = kGroupNone);

    bool addClause(const std::vector<Lit> &lits, GroupId group = kGroupNone)
    {
        return addClause(lits.data(), lits.size(), group);
    }
    bool addClause(Lit a) { return addClause(&a, 1); }
    bool addClause(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return addClause(lits, 2);
    }
    bool addClause(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return addClause(lits, 3);
    }
    bool addClause(Lit a, Lit b, Lit c, Lit d)
    {
        const Lit lits[] = {a, b, c, d};
        return addClause(lits, 4);
    }

    // ---- retractable clause groups ------------------------------------
    /** Create a live group (allocates its activation variable). */
    GroupId newGroup();

    /**
     * Permanently deactivate @p group: its clauses (and learned
     * clauses derived from them) become inert. Idempotent.
     */
    void retireGroup(GroupId group);

    /**
     * retireGroup() plus reclamation: dead clauses leave the watch
     * lists immediately and the arena is compacted once enough of it
     * is garbage.
     */
    void releaseGroup(GroupId group);

    /** True iff @p group has not been retired. */
    bool groupLive(GroupId group) const;

    /**
     * Temporarily disable @p group: until resumeGroup(), solve()
     * assumes the activation literal *false*, so the group's clauses
     * are void for those calls. Unlike retireGroup() this is fully
     * reversible — no root unit is added. Used by the UNSAT-core
     * probe in beer::IncrementalSolver to test which measurement
     * rounds a contradiction depends on.
     */
    void suspendGroup(GroupId group);

    /** Re-enable a group disabled by suspendGroup(). Idempotent. */
    void resumeGroup(GroupId group);

    /**
     * Snapshot of the problem clauses (root-level units included,
     * learned clauses excluded). Group clauses appear with their guard
     * literal. Used for DIMACS export.
     */
    std::vector<std::vector<Lit>> problemClauses() const;

    /**
     * Solve under optional assumptions.
     *
     * @param assumptions literals forced true for this call only
     * @return Sat, Unsat, or Unknown if conflictLimit was hit
     */
    SolveResult solve(const std::vector<Lit> &assumptions = {});

    /** Model value of @p v after a Sat result. */
    bool modelValue(Var v) const;

    /** True iff the clause set is known unsatisfiable. */
    bool isUnsat() const { return unsat_; }

    const SolverStats &stats() const { return stats_; }

    /** 0 disables the limit (default). */
    void setConflictLimit(std::uint64_t limit) { conflictLimit_ = limit; }

    /** Random seed for branching tie-breaking / polarity noise. */
    void setRandomSeed(std::uint64_t seed) { rngState_ = seed | 1; }

  private:
    // ---- clause arena -------------------------------------------------
    // Clauses live in one flat uint32 arena:
    // [header | size | activity | lit0 .. litN-1], header bit0 = learned,
    // bit1 = deleted.
    std::uint32_t &clauseSize(CRef c) { return arena_[c + 1]; }
    std::uint32_t clauseSize(CRef c) const { return arena_[c + 1]; }
    Lit &clauseLit(CRef c, std::uint32_t i);
    Lit clauseLit(CRef c, std::uint32_t i) const;
    bool clauseLearned(CRef c) const { return arena_[c] & 1; }
    float &clauseActivity(CRef c);

    CRef allocClause(const std::vector<Lit> &lits, bool learned);

    // ---- assignment / trail -------------------------------------------
    LBool value(Lit l) const { return litVals_[l.index()]; }
    LBool value(Var v) const { return value(mkLit(v)); }
    int level(Var v) const { return levels_[(std::size_t)v]; }
    int decisionLevel() const { return (int)trailLims_.size(); }

    void enqueue(Lit l, CRef reason);
    void attachClause(CRef c);
    CRef propagate();
    void backtrack(int target_level);

    // ---- conflict analysis --------------------------------------------
    void analyze(CRef conflict, std::vector<Lit> &out_learned,
                 int &out_btlevel);
    bool litRedundant(Lit l, std::uint32_t abstract_levels);
    void putImpliedFirst(CRef reason, Lit implied);

    // ---- branching -----------------------------------------------------
    void bumpVar(Var v);
    void decayVarActivity();
    void bumpClause(CRef c);
    Var pickBranchVar();
    void insertVarOrder(Var v);

    // heap helpers (binary max-heap on activity)
    void heapUp(std::size_t i);
    void heapDown(std::size_t i);
    bool heapContains(Var v) const
    {
        return heapIndex_[(std::size_t)v] >= 0;
    }

    // ---- learned clause management --------------------------------------
    void reduceDb();
    void rebuildWatches();

    // ---- clause-arena garbage collection --------------------------------
    void markDeleted(CRef c);
    /** Drop clauses satisfied at the root level (level-0 trail). */
    void removeRootSatisfied();
    /** Compact the arena when a quarter of it is garbage. */
    bool maybeGarbageCollect();
    void garbageCollect();

    // ---- search ---------------------------------------------------------
    SolveResult search();
    static std::uint64_t luby(std::uint64_t i);
    std::uint32_t nextRandom();

    // ---- state ----------------------------------------------------------
    Var numVars_ = 0;
    bool unsat_ = false;

    std::vector<std::uint32_t> arena_;
    std::vector<CRef> clauses_;        // problem clauses
    std::vector<CRef> learned_;        // learned clauses

    /**
     * Watch-list entry. A binary clause's watcher is tagged and its
     * blocker is always the clause's other literal, so propagate()
     * implies it without reading the arena.
     */
    struct Watcher
    {
        std::uint32_t tagged; // clause ref << 1 | binary
        Lit blocker;

        CRef clause() const { return tagged >> 1; }
        bool binary() const { return tagged & 1; }
    };
    std::vector<std::vector<Watcher>> watches_; // indexed by Lit::index()

    std::vector<LBool> litVals_;         // indexed by Lit::index()
    std::vector<std::uint8_t> polarity_; // saved phases (1 = last false)
    std::vector<int> levels_;
    std::vector<CRef> reasons_;
    std::vector<Lit> trail_;
    std::vector<std::size_t> trailLims_;
    std::size_t propagateHead_ = 0;

    std::vector<double> activity_;
    double varInc_ = 1.0;
    std::vector<Var> heap_;
    std::vector<std::int32_t> heapIndex_;

    float claInc_ = 1.0f;

    struct Group
    {
        Lit activation;
        bool retired = false;
        bool suspended = false;
    };
    std::vector<Group> groups_;
    std::uint64_t wastedWords_ = 0;

    std::vector<Lit> assumptions_;
    /** addClause() normalizes here, so adding allocates nothing. */
    std::vector<Lit> addBuffer_;

    // temporaries for analyze()
    std::vector<std::uint8_t> seen_;
    std::vector<Lit> analyzeToClear_;
    std::vector<Lit> analyzeStack_;

    std::uint64_t conflictLimit_ = 0;
    std::uint64_t rngState_ = 0x123456789abcdefULL;
    std::size_t maxLearned_ = 4096;

    SolverStats stats_;
};

} // namespace beer::sat

#endif // BEER_SAT_SOLVER_HH
