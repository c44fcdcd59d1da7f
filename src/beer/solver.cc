#include "beer/solver.hh"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "gf2/matrix.hh"
#include "sat/encoder.hh"
#include "util/logging.hh"

namespace beer
{

using ecc::LinearCode;
using gf2::BitVec;
using gf2::Matrix;
using sat::Encoder;
using sat::Lit;
using sat::Solver;

namespace
{

/** SAT variables for the unknown P matrix, row-major. */
struct PVars
{
    std::size_t p; // parity bits (rows)
    std::size_t k; // data bits (columns)
    std::vector<Lit> lits;

    Lit at(std::size_t r, std::size_t c) const { return lits[r * k + c]; }

    std::vector<Lit>
    column(std::size_t c) const
    {
        std::vector<Lit> out(p);
        for (std::size_t r = 0; r < p; ++r)
            out[r] = at(r, c);
        return out;
    }

    std::vector<Lit>
    rowLits(std::size_t r) const
    {
        std::vector<Lit> out(k);
        for (std::size_t c = 0; c < k; ++c)
            out[c] = at(r, c);
        return out;
    }
};

PVars
makePVars(Encoder &enc, std::size_t p, std::size_t k)
{
    PVars vars;
    vars.p = p;
    vars.k = k;
    vars.lits.reserve(p * k);
    for (std::size_t i = 0; i < p * k; ++i)
        vars.lits.push_back(enc.fresh());
    return vars;
}

/** Constraint 1: every data column has weight >= 2 (nonzero and not a
 *  unit vector, i.e. distinct from all parity columns). */
void
encodeColumnWeights(Encoder &enc, const PVars &vars)
{
    for (std::size_t c = 0; c < vars.k; ++c) {
        const std::vector<Lit> col = vars.column(c);
        enc.require(col); // at least one bit set
        for (std::size_t r = 0; r < vars.p; ++r) {
            // If bit r is set, some other bit must be set too.
            std::vector<Lit> clause;
            clause.reserve(vars.p);
            clause.push_back(~col[r]);
            for (std::size_t r2 = 0; r2 < vars.p; ++r2)
                if (r2 != r)
                    clause.push_back(col[r2]);
            enc.require(clause);
        }
    }
}

/** Constraint 1 (continued): data columns @p a and @p b differ. */
void
encodeDistinctPair(Encoder &enc, const PVars &vars, std::size_t a,
                   std::size_t b)
{
    std::vector<Lit> diffs;
    diffs.reserve(vars.p);
    for (std::size_t r = 0; r < vars.p; ++r)
        diffs.push_back(enc.mkXor(vars.at(r, a), vars.at(r, b)));
    enc.require(diffs); // some row differs
}

/**
 * XOR of pattern columns per row: U_r = xor_{i in S} P[r][i].
 * For |S| == 1 these are the column literals themselves.
 */
std::vector<Lit>
encodeChargedParity(Encoder &enc, const PVars &vars,
                    const TestPattern &pattern)
{
    std::vector<Lit> u(vars.p);
    for (std::size_t r = 0; r < vars.p; ++r) {
        std::vector<Lit> terms;
        terms.reserve(pattern.size());
        for (std::size_t i : pattern)
            terms.push_back(vars.at(r, i));
        u[r] = enc.mkXor(terms);
    }
    return u;
}

/**
 * Literal equivalent to "a miscorrection at bit j is possible under
 * this pattern": OR over the reduced subsets T of AND over rows of
 * (v_r -> U_r), with v = column j xor the columns in T.
 */
Lit
encodeMiscorrectionPossible(Encoder &enc, const PVars &vars,
                            const TestPattern &pattern, std::size_t j,
                            const std::vector<Lit> &u)
{
    const std::size_t reduced = pattern.size() - 1;
    std::vector<Lit> conditions;
    conditions.reserve((std::size_t)1 << reduced);
    for (std::size_t subset = 0; subset < ((std::size_t)1 << reduced);
         ++subset) {
        std::vector<Lit> implications;
        implications.reserve(vars.p);
        for (std::size_t r = 0; r < vars.p; ++r) {
            std::vector<Lit> terms;
            terms.push_back(vars.at(r, j));
            for (std::size_t i = 0; i < reduced; ++i)
                if ((subset >> i) & 1)
                    terms.push_back(vars.at(r, pattern[i + 1]));
            const Lit v = enc.mkXor(terms);
            implications.push_back(enc.mkOr(~v, u[r]));
        }
        conditions.push_back(enc.mkAnd(implications));
    }
    return enc.mkOr(conditions);
}

/** True iff bit @p j of @p entry is encoded eagerly: a positive
 *  1-CHARGED bit, supp(col_j) subset-of supp(col_c), is pure 2-CNF. */
bool
eagerBit(const PatternProfile &entry, std::size_t j)
{
    return entry.pattern.size() == 1 && entry.miscorrectable.get(j);
}

/**
 * Constraint 3: one observed profile entry's eager bits, or with
 * @p held its held bits — a negative 1-CHARGED bit costs one small
 * Tseitin OR, a multi-charged bit the full possible() circuit.
 */
void
encodeEntryBits(Encoder &enc, const PVars &vars,
                const PatternProfile &entry, bool held)
{
    const TestPattern &pattern = entry.pattern;
    BEER_ASSERT(!pattern.empty());

    if (pattern.size() == 1) {
        const std::size_t c = pattern[0];
        for (std::size_t j = 0; j < vars.k; ++j) {
            if (j == c || eagerBit(entry, j) == held)
                continue;
            if (!held) {
                for (std::size_t r = 0; r < vars.p; ++r)
                    enc.require({~vars.at(r, j), vars.at(r, c)});
                continue;
            }
            std::vector<Lit> violations;
            violations.reserve(vars.p);
            for (std::size_t r = 0; r < vars.p; ++r)
                violations.push_back(
                    enc.mkAnd(vars.at(r, j), ~vars.at(r, c)));
            enc.require(violations);
        }
        return;
    }
    if (!held)
        return;

    const std::vector<Lit> u = encodeChargedParity(enc, vars, pattern);
    for (std::size_t j = 0; j < vars.k; ++j) {
        if (patternContains(pattern, j))
            continue;
        const Lit possible =
            encodeMiscorrectionPossible(enc, vars, pattern, j, u);
        enc.require(entry.miscorrectable.get(j) ? possible : ~possible);
    }
}

/** Symmetry breaking: rows of P in ascending lexicographic order. */
void
encodeRowOrder(Encoder &enc, const PVars &vars)
{
    for (std::size_t r = 0; r + 1 < vars.p; ++r)
        enc.requireLexLeq(vars.rowLits(r), vars.rowLits(r + 1));
}

Matrix
extractModel(const Solver &solver, const PVars &vars)
{
    Matrix out(vars.p, vars.k);
    for (std::size_t r = 0; r < vars.p; ++r)
        for (std::size_t c = 0; c < vars.k; ++c)
            out.set(r, c, solver.modelValue(vars.at(r, c).var()));
    return out;
}

/** Forbid the exact assignment of the P variables just found. */
void
addBlockingClause(Solver &solver, const PVars &vars, const Matrix &model,
                  sat::GroupId group)
{
    std::vector<Lit> clause;
    clause.reserve(vars.p * vars.k);
    for (std::size_t r = 0; r < vars.p; ++r)
        for (std::size_t c = 0; c < vars.k; ++c) {
            const Lit l = vars.at(r, c);
            clause.push_back(model.get(r, c) ? ~l : l);
        }
    solver.addClause(std::move(clause), group);
}

} // anonymous namespace

struct IncrementalSolver::Impl
{
    static constexpr std::size_t kNoRound = SIZE_MAX;
    /** Conflicts one search of a relaxed formula may spend; see
     *  solveRefined(). */
    static constexpr std::uint64_t kRelaxedConflicts = 1000;

    std::size_t k;
    std::size_t p;
    BeerSolverConfig config;
    Solver solver;
    Encoder enc;
    PVars vars;

    /** One profile entry as the context holds it. */
    struct Slot
    {
        PatternProfile entry;
        /** Owning retractable round (kNoRound outside that mode). */
        std::size_t round = kNoRound;
        /** dropRound() tombstone; the slot index stays valid. */
        bool dropped = false;
        /** The entry's held bits have been encoded by refinement. */
        bool held = false;
    };
    /** Entries in arrival order (rebuild replays these). */
    std::vector<Slot> slots;
    std::map<TestPattern, std::size_t> entryIndex;

    /** One retractable clause group per addProfile() batch. */
    struct Round
    {
        sat::GroupId group = sat::kGroupNone;
        std::vector<std::size_t> slots;
        bool suspended = false;
        bool dropped = false;
    };
    /** Populated only when config.retractableProfile. */
    std::vector<Round> rounds;

    /** distinct[a * k + b] (a < b): the pair's distinctness is
     *  encoded. */
    std::vector<bool> distinct;

    /** Group holding the current round's blocking clauses. */
    sat::GroupId blockGroup = sat::kGroupNone;
    std::size_t rebuilds = 0;
    /** Absolute conflict count solveRefined() stops at (0 = none). */
    std::uint64_t conflictCap = 0;
    /** Multi-charged entries the next multi-only refinement encodes;
     *  doubles per such pass, back to 1 at each solve() and probe(). */
    std::size_t multiBatch = 1;

    Impl(std::size_t k_, std::size_t p_, const BeerSolverConfig &config_)
        : k(k_), p(p_), config(config_), enc(solver),
          vars(makePVars(enc, p_, k_)), distinct(k_ * k_, false)
    {
        encodeColumnWeights(enc, vars);
        if (config.symmetryBreaking)
            encodeRowOrder(enc, vars);
    }

    /** Encode the slot's eager or held bits into its round's group;
     *  registering (eager) also indexes the pattern. */
    void
    encodeBits(std::size_t slot, bool held)
    {
        Slot &s = slots[slot];
        if (!held)
            entryIndex.emplace(s.entry.pattern, slot);
        enc.setGroup(s.round == kNoRound ? sat::kGroupNone
                                         : rounds[s.round].group);
        encodeEntryBits(enc, vars, s.entry, held);
        enc.setGroup(sat::kGroupNone);
        if (held)
            s.held = true;
    }

    /**
     * Refinement, cheapest first: encode the distinctness of each
     * equal column pair (permanent: it is evidence-free) and all held
     * bits of each live, unsuspended 1-CHARGED entry with a violated
     * bit. Only when none of those is violated, encode the first
     * multiBatch violated multi-charged entries in slot order: their
     * possible() circuits are large, and the 1-CHARGED evidence
     * usually settles the function alone. With @p all, every held
     * constraint.
     *
     * @return true iff anything was encoded (the model was spurious)
     */
    bool
    refine(bool all = false)
    {
        std::vector<std::uint64_t> columns(k, 0);
        if (!all)
            for (std::size_t r = 0; r < p; ++r)
                for (std::size_t c = 0; c < k; ++c)
                    if (solver.modelValue(vars.at(r, c).var()))
                        columns[c] |= std::uint64_t{1} << r;

        bool refined = false;
        for (std::size_t a = 0; a < k; ++a)
            for (std::size_t b = a + 1; b < k; ++b)
                if ((all || columns[a] == columns[b]) &&
                    !distinct[a * k + b]) {
                    encodeDistinctPair(enc, vars, a, b);
                    distinct[a * k + b] = refined = true;
                }
        std::vector<std::size_t> multi; // violated multi-charged slots
        for (std::size_t slot = 0; slot < slots.size(); ++slot) {
            const Slot &s = slots[slot];
            const bool single = s.entry.pattern.size() == 1;
            if (s.held || s.dropped ||
                (s.round != kNoRound && rounds[s.round].suspended) ||
                (!all && !single &&
                 (refined || multi.size() == multiBatch)))
                continue;
            bool violated = all;
            for (std::size_t j = 0; j < k && !violated; ++j)
                if (!patternContains(s.entry.pattern, j) &&
                    !eagerBit(s.entry, j))
                    violated = miscorrectionPossible(
                                   columns, s.entry.pattern, j) !=
                               s.entry.miscorrectable.get(j);
            if (!violated)
                continue;
            if (all || single) {
                encodeBits(slot, true);
                refined = true;
            } else {
                multi.push_back(slot);
            }
        }
        if (refined || multi.empty())
            return refined;
        for (std::size_t slot : multi)
            encodeBits(slot, true);
        multiBatch *= 2;
        return true;
    }

    /** True iff some live, unsuspended multi-charged entry is not
     *  yet encoded. */
    bool
    multiHeldBack() const
    {
        for (const Slot &s : slots)
            if (!s.held && !s.dropped && s.entry.pattern.size() > 1 &&
                (s.round == kNoRound || !rounds[s.round].suspended))
                return true;
        return false;
    }

    /**
     * Solve, refining until the model (if any) is genuine. While
     * multi-charged entries are held back, a search that runs past
     * kRelaxedConflicts gives up on laziness: a few of them can leave
     * an UNSAT proof far harder than the complete formula's, so every
     * held constraint is encoded and the search resumes. conflictCap,
     * when set, bounds the whole loop.
     */
    sat::SolveResult
    solveRefined()
    {
        bool lazy = multiHeldBack();
        while (true) {
            const std::uint64_t budget =
                solver.stats().conflicts + kRelaxedConflicts;
            const bool budgeted =
                lazy && (conflictCap == 0 || budget < conflictCap);
            solver.setConflictLimit(budgeted ? budget : conflictCap);
            const sat::SolveResult result = solver.solve();
            if (result == sat::SolveResult::Unknown && budgeted) {
                refine(/*all=*/true);
                lazy = false;
                continue;
            }
            if (result == sat::SolveResult::Sat && refine())
                continue;
            solver.setConflictLimit(0);
            return result;
        }
    }

    /** Retract the previous enumeration's blocking clauses. */
    void
    releaseBlocking()
    {
        if (blockGroup != sat::kGroupNone)
            solver.releaseGroup(blockGroup);
        blockGroup = sat::kGroupNone;
    }
};

IncrementalSolver::IncrementalSolver(std::size_t k,
                                     std::size_t num_parity_bits,
                                     BeerSolverConfig config)
{
    BEER_ASSERT(k >= 1);
    BEER_ASSERT(num_parity_bits >= 1 && num_parity_bits <= 64);
    impl_ = std::make_unique<Impl>(k, num_parity_bits, config);
}

IncrementalSolver::~IncrementalSolver() = default;
IncrementalSolver::IncrementalSolver(IncrementalSolver &&) noexcept =
    default;
IncrementalSolver &
IncrementalSolver::operator=(IncrementalSolver &&) noexcept = default;

std::size_t
IncrementalSolver::k() const
{
    return impl_->k;
}

std::size_t
IncrementalSolver::parityBits() const
{
    return impl_->p;
}

std::size_t
IncrementalSolver::encodedPatterns() const
{
    return impl_->entryIndex.size();
}

std::size_t
IncrementalSolver::rebuilds() const
{
    return impl_->rebuilds;
}

const sat::Solver &
IncrementalSolver::satSolver() const
{
    return impl_->solver;
}

BeerSolveResult
IncrementalSolver::solve(std::size_t max_solutions)
{
    const std::size_t previous = impl_->config.maxSolutions;
    impl_->config.maxSolutions = max_solutions;
    BeerSolveResult result = solve();
    impl_->config.maxSolutions = previous;
    return result;
}

void
IncrementalSolver::rebuild()
{
    Impl &old = *impl_;
    auto fresh = std::make_unique<Impl>(old.k, old.p, old.config);
    fresh->rebuilds = old.rebuilds + 1;
    // Round indices, entry slots, suspension and drop state all
    // survive; held bits are re-encoded only as refinement finds
    // them violated again.
    fresh->slots = std::move(old.slots);
    fresh->rounds = std::move(old.rounds);
    for (Impl::Slot &slot : fresh->slots)
        slot.held = false;
    if (fresh->rounds.empty()) {
        for (std::size_t slot = 0; slot < fresh->slots.size(); ++slot)
            fresh->encodeBits(slot, false);
    } else {
        for (Impl::Round &round : fresh->rounds) {
            if (round.dropped)
                continue;
            round.group = fresh->solver.newGroup();
            for (std::size_t slot : round.slots)
                if (!fresh->slots[slot].dropped)
                    fresh->encodeBits(slot, false);
            if (round.suspended)
                fresh->solver.suspendGroup(round.group);
        }
    }
    impl_ = std::move(fresh);
}

std::size_t
IncrementalSolver::addProfile(const MiscorrectionProfile &profile)
{
    Impl &im = *impl_;
    BEER_ASSERT(profile.k == im.k);

    // Non-monotone evidence (an already-encoded pattern whose bitmap
    // changed, e.g. after a threshold flip) invalidates permanently
    // asserted constraints: overwrite the stored entries and rebuild.
    bool changed = false;
    for (const PatternProfile &entry : profile.patterns) {
        const auto it = im.entryIndex.find(entry.pattern);
        if (it != im.entryIndex.end() &&
            !(im.slots[it->second].entry == entry)) {
            im.slots[it->second].entry = entry;
            changed = true;
        }
    }
    if (changed)
        rebuild();

    Impl &cur = *impl_;
    std::size_t added = 0;
    bool opened = false;
    for (const PatternProfile &entry : profile.patterns) {
        if (cur.entryIndex.count(entry.pattern))
            continue;
        if (cur.config.retractableProfile && !opened) {
            // First new pattern of this batch opens the round lazily,
            // so duplicate-only calls do not burn round slots.
            Impl::Round round;
            round.group = cur.solver.newGroup();
            cur.rounds.push_back(round);
            opened = true;
        }
        Impl::Slot slot;
        slot.entry = entry;
        if (opened) {
            slot.round = cur.rounds.size() - 1;
            cur.rounds.back().slots.push_back(cur.slots.size());
        }
        cur.slots.push_back(std::move(slot));
        cur.encodeBits(cur.slots.size() - 1, false);
        ++added;
    }
    return added;
}

void
IncrementalSolver::encodeHeldConstraints()
{
    impl_->refine(/*all=*/true);
}

std::size_t
IncrementalSolver::roundCount() const
{
    return impl_->rounds.size();
}

std::vector<TestPattern>
IncrementalSolver::roundPatterns(std::size_t round) const
{
    BEER_ASSERT(round < impl_->rounds.size());
    std::vector<TestPattern> out;
    const Impl::Round &r = impl_->rounds[round];
    if (r.dropped)
        return out;
    out.reserve(r.slots.size());
    for (std::size_t slot : r.slots)
        if (!impl_->slots[slot].dropped)
            out.push_back(impl_->slots[slot].entry.pattern);
    return out;
}

bool
IncrementalSolver::roundDropped(std::size_t round) const
{
    BEER_ASSERT(round < impl_->rounds.size());
    return impl_->rounds[round].dropped;
}

void
IncrementalSolver::suspendRound(std::size_t round)
{
    BEER_ASSERT(round < impl_->rounds.size());
    Impl::Round &r = impl_->rounds[round];
    BEER_ASSERT(!r.dropped);
    if (r.suspended)
        return;
    impl_->solver.suspendGroup(r.group);
    r.suspended = true;
}

void
IncrementalSolver::resumeRound(std::size_t round)
{
    BEER_ASSERT(round < impl_->rounds.size());
    Impl::Round &r = impl_->rounds[round];
    BEER_ASSERT(!r.dropped);
    if (!r.suspended)
        return;
    impl_->solver.resumeGroup(r.group);
    r.suspended = false;
}

void
IncrementalSolver::dropRound(std::size_t round)
{
    BEER_ASSERT(round < impl_->rounds.size());
    Impl::Round &r = impl_->rounds[round];
    if (r.dropped)
        return;
    r.dropped = true;
    impl_->solver.releaseGroup(r.group);
    r.group = sat::kGroupNone;
    for (std::size_t slot : r.slots) {
        Impl::Slot &s = impl_->slots[slot];
        if (s.dropped)
            continue;
        s.dropped = true;
        impl_->entryIndex.erase(s.entry.pattern);
    }
}

sat::SolveResult
IncrementalSolver::probe(std::uint64_t conflict_budget)
{
    Impl &im = *impl_;
    // Blocking clauses reflect a previous enumeration, not the
    // constraint set under test: retract them or a suspended-round
    // probe could report Unsat for a satisfiable set.
    im.releaseBlocking();
    im.multiBatch = 1;
    im.conflictCap = conflict_budget
                         ? im.solver.stats().conflicts + conflict_budget
                         : 0;
    return im.solveRefined();
}

BeerSolveResult
IncrementalSolver::solve()
{
    Impl &im = *impl_;
    Solver &solver = im.solver;

    // Blocking clauses only reflect the evidence they were derived
    // under: retract the previous round's group so solutions blocked
    // while checking uniqueness reappear if still consistent.
    im.releaseBlocking();
    im.blockGroup = solver.newGroup();
    im.multiBatch = 1;

    // One limit for the whole enumeration, refinement re-solves
    // included.
    const sat::SolverStats before = solver.stats();
    im.conflictCap = im.config.conflictLimit
                         ? before.conflicts + im.config.conflictLimit
                         : 0;

    BeerSolveResult result;
    std::set<std::string> seen; // canonical P serializations

    while (true) {
        const sat::SolveResult sat_result = im.solveRefined();
        if (sat_result == sat::SolveResult::Unknown) {
            result.complete = false;
            break;
        }
        if (sat_result == sat::SolveResult::Unsat)
            break;

        const Matrix model = extractModel(solver, im.vars);
        const LinearCode canonical =
            ecc::canonicalize(LinearCode(model));
        if (seen.insert(canonical.pMatrix().toString()).second)
            result.solutions.push_back(canonical);

        if (im.config.maxSolutions &&
            result.solutions.size() >= im.config.maxSolutions) {
            result.complete = false;
            break;
        }
        addBlockingClause(solver, im.vars, model, im.blockGroup);
        if (solver.isUnsat())
            break;
    }

    result.stats = solver.stats().deltaSince(before);
    result.memoryBytes = solver.stats().arenaBytes;
    return result;
}

BeerSolveResult
solveForEccFunction(const MiscorrectionProfile &profile,
                    std::size_t num_parity_bits,
                    const BeerSolverConfig &config)
{
    IncrementalSolver incremental(profile.k, num_parity_bits, config);
    incremental.addProfile(profile);
    return incremental.solve();
}

BeerSolveResult
solveForEccFunction(const MiscorrectionProfile &profile,
                    const BeerSolverConfig &config)
{
    return solveForEccFunction(
        profile, ecc::parityBitsForDataBits(profile.k), config);
}

ParityInference
inferEccFunction(const MiscorrectionProfile &profile,
                 std::size_t max_parity, const BeerSolverConfig &config)
{
    for (std::size_t p = ecc::parityBitsForDataBits(profile.k);
         p <= max_parity; ++p) {
        BeerSolveResult result = solveForEccFunction(profile, p, config);
        if (!result.solutions.empty())
            return {p, std::move(result)};
    }
    return {};
}

} // namespace beer
