/**
 * @file
 * BEER Step 3: solve for the ECC function (paper Section 5.3).
 *
 * Given a miscorrection profile, find every standard-form parity-check
 * matrix H = [P | I] consistent with it. The unknowns are the bits of
 * P; the constraints are:
 *
 *  1. basic SEC-code validity: H columns distinct and nonzero, which
 *     for data columns means weight >= 2 and pairwise-distinct;
 *  2. standard form (implicit in the representation);
 *  3. the profile: for each (pattern S, discharged bit j), a
 *     miscorrection at j is possible iff observed, where "possible" is
 *     the support-inclusion predicate of profile.hh encoded in CNF.
 *
 * Parity-row permutations of P are externally indistinguishable
 * (equivalent codes), so lexicographic row-ordering symmetry-breaking
 * constraints are added by default and solutions are counted up to
 * this equivalence, exactly as the paper counts "unique ECC functions"
 * (Figure 5). Enumeration follows the paper's procedure: solve, add a
 * blocking clause forbidding the found matrix, repeat until UNSAT.
 *
 * Two entry points share one engine:
 *
 *  - solveForEccFunction() is the one-shot API: encode, enumerate,
 *    discard. Internally it is a thin wrapper over a fresh
 *    IncrementalSolver.
 *  - IncrementalSolver is the persistent API for adaptive sessions
 *    (beer::Session): each addProfile() call encodes only patterns
 *    not seen before (profile constraints are monotone across
 *    measurement rounds), and each solve() call enumerates with warm
 *    learned clauses and variable activity carried over from every
 *    previous round. Per-round blocking clauses live in a retractable
 *    sat::Solver group, so a solution blocked while checking
 *    uniqueness in round r is re-reported in round r+1 if it is still
 *    consistent with the grown profile.
 *
 * The encoding is lazy (counterexample-guided abstraction
 * refinement). Only the cheap constraints are encoded up front:
 * column weights and row-order symmetry breaking at construction,
 * positive 1-CHARGED entries (pure 2-CNF) on addProfile(). Column
 * distinctness, negative 1-CHARGED entries and every multi-charged
 * entry are held back. After each model the held constraints are
 * evaluated on the candidate P directly (profile.hh's predicate over
 * p-bit column masks) and refined cheapest first: each violated
 * column pair gets its distinctness encoded and each 1-CHARGED entry
 * with a violated bit gets all of its held bits encoded; only when
 * none of those is violated does the first violated multi-charged
 * entry get its (much larger) encoding, with twice as many entries
 * on each further such pass of one solve() or probe(). The solver
 * then runs again. A model counts as a solution only once nothing is
 * violated. A search of the relaxed formula that runs past a fixed
 * conflict budget stops the laziness: every held constraint is
 * encoded and the search goes on, since a few held entries can leave
 * an UNSAT proof much harder than the complete formula's. The relaxed formula
 * implies nothing the full one does not, so its UNSAT is the full
 * formula's UNSAT and uniqueness proofs stay sound; solution sets
 * are exactly the eager encoding's.
 *
 * Threading: neither engine uses global or static mutable state, so
 * distinct solver instances are independent; the recovery service
 * runs several jobs' solvers on different pool workers at once. One
 * instance may also be handed between threads, as long as ownership
 * is exclusive at any moment and the handoff synchronizes (mutex,
 * task join, ...).
 */

#ifndef BEER_BEER_SOLVER_HH
#define BEER_BEER_SOLVER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "beer/profile.hh"
#include "ecc/linear_code.hh"
#include "sat/solver.hh"

namespace beer
{

/** Knobs for the BEER solve. */
struct BeerSolverConfig
{
    /** Row-permutation symmetry breaking (ablation: disable). */
    bool symmetryBreaking = true;
    /**
     * Stop enumerating after this many solutions (0 = find all). The
     * uniqueness check of the paper needs at most 2.
     */
    std::size_t maxSolutions = 0;
    /** SAT conflict budget per solve() call; 0 = unlimited. */
    std::uint64_t conflictLimit = 0;
    /**
     * Encode each addProfile() batch into its own retractable clause
     * group (a "round") instead of asserting it permanently; held
     * bits refinement later encodes for the batch's patterns join the
     * same group. Rounds can then be suspended, probed, and dropped —
     * the machinery the session's UNSAT-core repair uses to localize
     * and retract measurement rounds poisoned by read noise. Off by
     * default: the grouped encoding disables cross-round
     * structural-hash gate sharing and adds one guard literal per
     * profile clause, so clean pipelines keep the permanent encoding.
     */
    bool retractableProfile = false;
};

/** Outcome of a BEER solve. */
struct BeerSolveResult
{
    /**
     * Canonical (sorted-row) solutions. With symmetry breaking these
     * are exactly the solver's models; without, models are
     * canonicalized and deduplicated.
     */
    std::vector<ecc::LinearCode> solutions;
    /** True iff enumeration ran to UNSAT (the solution list is total). */
    bool complete = true;
    /** True iff exactly one equivalence class satisfies the profile. */
    bool unique() const { return complete && solutions.size() == 1; }
    /** Aggregate SAT statistics for the performance evaluation. */
    sat::SolverStats stats;
    /** Peak arena + watch memory estimate in bytes. */
    std::uint64_t memoryBytes = 0;
};

/**
 * Persistent incremental solve context; see the file comment for the
 * lifecycle. Construction encodes the eager structural constraints;
 * addProfile() registers newly measured patterns; solve() enumerates
 * all consistent ECC functions, refining held constraints as models
 * violate them and retracting the previous round's blocking clauses
 * first.
 */
class IncrementalSolver
{
  public:
    IncrementalSolver(std::size_t k, std::size_t num_parity_bits,
                      BeerSolverConfig config = {});
    ~IncrementalSolver();
    IncrementalSolver(IncrementalSolver &&) noexcept;
    IncrementalSolver &operator=(IncrementalSolver &&) noexcept;

    std::size_t k() const;
    std::size_t parityBits() const;

    /**
     * Register every entry of @p profile not already registered and
     * encode its eager bits; previously seen patterns are skipped (their constraints
     * are already in force). If a previously seen pattern re-arrives
     * with a *different* miscorrection bitmap (non-monotone evidence,
     * e.g. a threshold flip), the whole context is rebuilt from
     * scratch — correctness never depends on monotonicity.
     *
     * @return number of newly encoded patterns
     */
    std::size_t addProfile(const MiscorrectionProfile &profile);

    /**
     * Enumerate every ECC function consistent with all profile entries
     * registered so far. Blocking clauses from the previous solve() are
     * retracted first, so solutions suppressed by an earlier
     * enumeration reappear while they remain consistent. Returned
     * SolverStats are the delta for this call.
     */
    BeerSolveResult solve();

    /**
     * solve() with a one-call enumeration cap (0 = find all). The
     * configured cap is restored afterwards.
     */
    BeerSolveResult solve(std::size_t max_solutions);

    /**
     * Encode every held constraint now — distinctness of every column
     * pair and the held bits of every live, unsuspended entry — with
     * the encoder refinement uses, so satSolver() holds the complete instance
     * (e.g. for DIMACS export to an external solver). Solutions are
     * unchanged; only the laziness is given up.
     */
    void encodeHeldConstraints();

    // ---- retractable profile rounds (config.retractableProfile) --------
    //
    // Each addProfile() call that encodes at least one new pattern
    // opens a new *round*; round indices are stable for the lifetime
    // of the context (rebuilds preserve them, dropped rounds keep
    // their slot). The UNSAT-core repair loop in beer::Session uses
    // probe() + suspendRound() to find which rounds a contradiction
    // depends on, then dropRound() to retract them for good.

    /** Rounds opened so far (including dropped ones). 0 unless
     *  config.retractableProfile. */
    std::size_t roundCount() const;

    /** Patterns of round @p round still encoded (empty if dropped). */
    std::vector<TestPattern> roundPatterns(std::size_t round) const;

    /** True iff dropRound(@p round) has been called. */
    bool roundDropped(std::size_t round) const;

    /**
     * Temporarily disable the round's constraints for subsequent
     * probe()/solve() calls. Reversible via resumeRound().
     */
    void suspendRound(std::size_t round);
    void resumeRound(std::size_t round);

    /**
     * Permanently retract the round: its clauses are released and its
     * patterns forgotten, so a later addProfile() carrying re-measured
     * evidence for those patterns encodes them afresh (into a new
     * round) instead of being skipped as duplicates.
     */
    void dropRound(std::size_t round);

    /**
     * Plain satisfiability check of the currently enforced constraint
     * set (suspended rounds excluded), refined like solve() so Sat
     * means a genuine model — no enumeration, no blocking clauses. Any blocking clauses left by a previous solve() are
     * retracted first so they cannot mask satisfiability.
     *
     * @param conflict_budget per-call conflict cap (0 = unlimited);
     *        Unknown is returned when it is exhausted.
     */
    sat::SolveResult probe(std::uint64_t conflict_budget = 0);

    /** Patterns currently registered (dropped rounds excluded). */
    std::size_t encodedPatterns() const;
    /** Times a non-monotone entry forced a from-scratch rebuild. */
    std::size_t rebuilds() const;
    /** Underlying SAT context (cumulative stats, DIMACS export). */
    const sat::Solver &satSolver() const;

  private:
    struct Impl;
    void rebuild();

    std::unique_ptr<Impl> impl_;
};

/**
 * Enumerate every ECC function with @p num_parity_bits parity bits
 * whose miscorrection profile matches @p profile.
 */
BeerSolveResult solveForEccFunction(const MiscorrectionProfile &profile,
                                    std::size_t num_parity_bits,
                                    const BeerSolverConfig &config = {});

/**
 * Convenience wrapper using the minimum SEC parity-bit count for the
 * profile's dataword length (the configuration on-die ECC uses).
 */
BeerSolveResult solveForEccFunction(const MiscorrectionProfile &profile,
                                    const BeerSolverConfig &config = {});

/** Result of a parity-count inference run. */
struct ParityInference
{
    /**
     * Smallest parity-bit count admitting a consistent function; 0 if
     * none up to the search bound does (result is then empty).
     */
    std::size_t parityBits = 0;
    /** The solve at that count. */
    BeerSolveResult result;
};

/**
 * Fully prerequisite-free recovery: BEER does not even need to know
 * the parity-bit count. Any profile consistent with a p-bit code is
 * also consistent with codes of more parity bits (append all-zero
 * rows to P), so the *smallest* consistent count is the canonical
 * answer — and real on-die ECC uses the minimum count for its
 * dataword length. Tries p from the SEC minimum for k upward.
 *
 * @param max_parity inclusive upper bound on the search; a profile
 *                   no count up to it fits (e.g. a noisy one) yields
 *                   parityBits == 0
 */
ParityInference inferEccFunction(const MiscorrectionProfile &profile,
                                 std::size_t max_parity = 12,
                                 const BeerSolverConfig &config = {});

} // namespace beer

#endif // BEER_BEER_SOLVER_HH
