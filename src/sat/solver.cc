#include "sat/solver.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace beer::sat
{

namespace
{

// Arena layout per clause: [header][size][activity][lit0..litN-1].
constexpr std::uint32_t kHeaderWords = 3;
constexpr std::uint32_t kLearnedBit = 1;
constexpr std::uint32_t kDeletedBit = 2;

} // anonymous namespace

void
SolverStats::accumulate(const SolverStats &other)
{
    decisions += other.decisions;
    propagations += other.propagations;
    conflicts += other.conflicts;
    restarts += other.restarts;
    learnedClauses += other.learnedClauses;
    deletedClauses += other.deletedClauses;
    addedClauses += other.addedClauses;
    releasedClauses += other.releasedClauses;
    garbageCollections += other.garbageCollections;
    arenaBytes = std::max(arenaBytes, other.arenaBytes);
}

SolverStats
SolverStats::deltaSince(const SolverStats &before) const
{
    SolverStats out;
    out.decisions = decisions - before.decisions;
    out.propagations = propagations - before.propagations;
    out.conflicts = conflicts - before.conflicts;
    out.restarts = restarts - before.restarts;
    out.learnedClauses = learnedClauses - before.learnedClauses;
    out.deletedClauses = deletedClauses - before.deletedClauses;
    out.addedClauses = addedClauses - before.addedClauses;
    out.releasedClauses = releasedClauses - before.releasedClauses;
    out.garbageCollections =
        garbageCollections - before.garbageCollections;
    out.arenaBytes = arenaBytes;
    return out;
}

Solver::Solver() = default;

Var
Solver::newVar()
{
    const Var v = numVars_++;
    watches_.emplace_back();
    watches_.emplace_back();
    litVals_.push_back(LBool::Undef);
    litVals_.push_back(LBool::Undef);
    polarity_.push_back(1);
    levels_.push_back(0);
    reasons_.push_back(kCRefUndef);
    activity_.push_back(0.0);
    heapIndex_.push_back(-1);
    seen_.push_back(0);
    insertVarOrder(v);
    return v;
}

Lit &
Solver::clauseLit(CRef c, std::uint32_t i)
{
    return *reinterpret_cast<Lit *>(&arena_[c + kHeaderWords + i]);
}

Lit
Solver::clauseLit(CRef c, std::uint32_t i) const
{
    Lit l;
    l.x = (std::int32_t)arena_[c + kHeaderWords + i];
    return l;
}

float &
Solver::clauseActivity(CRef c)
{
    return *reinterpret_cast<float *>(&arena_[c + 2]);
}

CRef
Solver::allocClause(const std::vector<Lit> &lits, bool learned)
{
    const CRef ref = (CRef)arena_.size();
    BEER_ASSERT(ref < (1u << 31)); // a watcher keeps the ref in 31 bits
    arena_.push_back(learned ? kLearnedBit : 0);
    arena_.push_back((std::uint32_t)lits.size());
    arena_.push_back(0); // activity
    for (Lit l : lits)
        arena_.push_back((std::uint32_t)l.x);
    stats_.arenaBytes = arena_.size() * sizeof(std::uint32_t);
    return ref;
}

bool
Solver::addClause(const Lit *lits, std::size_t size, GroupId group)
{
    BEER_ASSERT(decisionLevel() == 0 || propagateHead_ == trail_.size());
    backtrack(0);

    if (unsat_)
        return false;

    // Normalize in place: sort, drop duplicates, detect tautologies, and
    // strip literals already false at the root level. A group's clause
    // is guarded by the negated activation literal, so it binds only
    // while solve() assumes the activation literal true.
    addBuffer_.assign(lits, lits + size);
    if (group != kGroupNone) {
        BEER_ASSERT(group < groups_.size());
        BEER_ASSERT(!groups_[group].retired);
        addBuffer_.push_back(~groups_[group].activation);
    }
    std::sort(addBuffer_.begin(), addBuffer_.end());
    std::size_t kept = 0;
    Lit prev = Lit::undef();
    for (const Lit l : addBuffer_) {
        BEER_ASSERT(l.var() >= 0 && l.var() < numVars_);
        if (value(l) == LBool::True || l == ~prev)
            return true; // satisfied at root / tautology
        if (value(l) == LBool::False || l == prev)
            continue;
        addBuffer_[kept++] = prev = l;
    }
    addBuffer_.resize(kept);

    if (kept == 0) {
        unsat_ = true;
        return false;
    }
    ++stats_.addedClauses;
    if (kept == 1) {
        enqueue(addBuffer_[0], kCRefUndef);
        if (propagate() != kCRefUndef) {
            unsat_ = true;
            return false;
        }
        return true;
    }

    const CRef c = allocClause(addBuffer_, false);
    clauses_.push_back(c);
    attachClause(c);
    return true;
}

GroupId
Solver::newGroup()
{
    const GroupId id = (GroupId)groups_.size();
    groups_.push_back({mkLit(newVar()), false});
    return id;
}

bool
Solver::groupLive(GroupId group) const
{
    BEER_ASSERT(group < groups_.size());
    return !groups_[group].retired;
}

void
Solver::retireGroup(GroupId group)
{
    BEER_ASSERT(group < groups_.size());
    if (groups_[group].retired)
        return;
    groups_[group].retired = true;
    // Forcing the activation literal false at the root permanently
    // satisfies every clause guarded by it, including learned clauses
    // that were derived under the group's assumption.
    addClause(~groups_[group].activation);
}

void
Solver::suspendGroup(GroupId group)
{
    BEER_ASSERT(group < groups_.size());
    BEER_ASSERT(!groups_[group].retired);
    groups_[group].suspended = true;
}

void
Solver::resumeGroup(GroupId group)
{
    BEER_ASSERT(group < groups_.size());
    BEER_ASSERT(!groups_[group].retired);
    groups_[group].suspended = false;
}

void
Solver::releaseGroup(GroupId group)
{
    retireGroup(group);
    if (unsat_)
        return;
    removeRootSatisfied();
}

void
Solver::markDeleted(CRef c)
{
    arena_[c] |= kDeletedBit;
    wastedWords_ += kHeaderWords + clauseSize(c);
}

void
Solver::removeRootSatisfied()
{
    // retireGroup() usually lands here at level 0 via its root unit,
    // but an already-retired group skips that path (e.g. releaseGroup
    // after retireGroup, or called twice) with a model still on the
    // trail.
    backtrack(0);
    auto root_satisfied = [this](CRef c) {
        const std::uint32_t size = clauseSize(c);
        for (std::uint32_t i = 0; i < size; ++i)
            if (value(clauseLit(c, i)) == LBool::True)
                return true;
        return false;
    };

    auto sweep = [&](std::vector<CRef> &list, std::uint64_t &counter) {
        std::size_t keep = 0;
        for (CRef c : list) {
            if (root_satisfied(c)) {
                markDeleted(c);
                ++counter;
            } else {
                list[keep++] = c;
            }
        }
        list.resize(keep);
    };
    sweep(clauses_, stats_.releasedClauses);
    sweep(learned_, stats_.deletedClauses);

    // A dropped clause may still be the recorded reason of a root
    // literal; root reasons are never dereferenced, but keep the
    // invariant that reasons point at live clauses.
    for (Lit l : trail_) {
        CRef &r = reasons_[(std::size_t)l.var()];
        if (r != kCRefUndef && (arena_[r] & kDeletedBit))
            r = kCRefUndef;
    }

    if (!maybeGarbageCollect())
        rebuildWatches();
}

bool
Solver::maybeGarbageCollect()
{
    if (arena_.size() < 1024 || wastedWords_ * 4 < arena_.size())
        return false;
    garbageCollect();
    return true;
}

void
Solver::garbageCollect()
{
    std::vector<std::uint32_t> fresh;
    fresh.reserve(arena_.size() - (std::size_t)wastedWords_);

    // Relocate live clauses in ascending arena order so the old->new
    // mapping stays sorted for the reason remap below.
    std::vector<CRef *> slots;
    slots.reserve(clauses_.size() + learned_.size());
    for (CRef &c : clauses_)
        slots.push_back(&c);
    for (CRef &c : learned_)
        slots.push_back(&c);
    std::sort(slots.begin(), slots.end(),
              [](const CRef *a, const CRef *b) { return *a < *b; });

    std::vector<std::pair<CRef, CRef>> remap;
    remap.reserve(slots.size());
    for (CRef *slot : slots) {
        const CRef old = *slot;
        const CRef moved = (CRef)fresh.size();
        const std::uint32_t words = kHeaderWords + clauseSize(old);
        fresh.insert(fresh.end(), arena_.begin() + old,
                     arena_.begin() + old + words);
        remap.emplace_back(old, moved);
        *slot = moved;
    }

    for (Lit l : trail_) {
        CRef &r = reasons_[(std::size_t)l.var()];
        if (r == kCRefUndef)
            continue;
        const auto it = std::lower_bound(
            remap.begin(), remap.end(), std::make_pair(r, (CRef)0));
        BEER_ASSERT(it != remap.end() && it->first == r);
        r = it->second;
    }

    arena_.swap(fresh);
    wastedWords_ = 0;
    ++stats_.garbageCollections;
    stats_.arenaBytes = arena_.size() * sizeof(std::uint32_t);
    rebuildWatches();
}

std::vector<std::vector<Lit>>
Solver::problemClauses() const
{
    std::vector<std::vector<Lit>> out;
    const std::size_t root_end =
        trailLims_.empty() ? trail_.size() : trailLims_[0];
    for (std::size_t i = 0; i < root_end; ++i)
        out.push_back({trail_[i]});
    for (CRef c : clauses_) {
        std::vector<Lit> clause(clauseSize(c));
        for (std::uint32_t i = 0; i < clauseSize(c); ++i)
            clause[i] = clauseLit(c, i);
        out.push_back(std::move(clause));
    }
    return out;
}

inline void
Solver::enqueue(Lit l, CRef reason)
{
    BEER_ASSERT(value(l) == LBool::Undef);
    const auto v = (std::size_t)l.var();
    litVals_[l.index()] = LBool::True;
    litVals_[(~l).index()] = LBool::False;
    levels_[v] = decisionLevel();
    reasons_[v] = reason;
    trail_.push_back(l);
}

void
Solver::attachClause(CRef c)
{
    const Lit l0 = clauseLit(c, 0);
    const Lit l1 = clauseLit(c, 1);
    const std::uint32_t tagged = c << 1 | (clauseSize(c) == 2);
    watches_[(~l0).index()].push_back({tagged, l1});
    watches_[(~l1).index()].push_back({tagged, l0});
}

CRef
Solver::propagate()
{
    CRef conflict = kCRefUndef;
    while (conflict == kCRefUndef && propagateHead_ < trail_.size()) {
        const Lit p = trail_[propagateHead_++];
        const Lit false_lit = ~p;
        ++stats_.propagations;
        auto &ws = watches_[p.index()];
        // Read pointer i, write pointer j over the watch list.
        Watcher *i = ws.data();
        Watcher *j = i;
        Watcher *const end = i + ws.size();
        while (i != end) {
            const Watcher w = *i++;
            const LBool blocker = value(w.blocker);
            if (blocker == LBool::True) {
                *j++ = w;
                continue;
            }

            const CRef c = w.clause();
            if (w.binary()) {
                *j++ = w;
                if (blocker == LBool::Undef) {
                    enqueue(w.blocker, c);
                    continue;
                }
                // Conflict: order the clause [blocker, false_lit], as the
                // long-clause path below leaves it, since analyze()
                // reads the conflict clause in arena order.
                clauseLit(c, 0) = w.blocker;
                clauseLit(c, 1) = false_lit;
                conflict = c;
                break;
            }

            if (clauseLit(c, 0) == false_lit) {
                clauseLit(c, 0) = clauseLit(c, 1);
                clauseLit(c, 1) = false_lit;
            }
            const Lit first = clauseLit(c, 0);
            const Watcher kept{w.tagged, first};
            if (first != w.blocker && value(first) == LBool::True) {
                *j++ = kept;
                continue;
            }

            // Search for a non-false literal to watch instead.
            const std::uint32_t size = clauseSize(c);
            std::uint32_t k = 2;
            while (k < size && value(clauseLit(c, k)) == LBool::False)
                ++k;
            if (k < size) {
                const Lit cand = clauseLit(c, k);
                clauseLit(c, 1) = cand;
                clauseLit(c, k) = false_lit;
                watches_[(~cand).index()].push_back(kept);
                continue;
            }

            // Clause is unit or conflicting under the current trail.
            *j++ = kept;
            if (value(first) == LBool::False) {
                conflict = c;
                break;
            }
            enqueue(first, c);
        }
        // A conflict leaves the unvisited watchers in place.
        while (i != end)
            *j++ = *i++;
        ws.resize((std::size_t)(j - ws.data()));
    }
    if (conflict != kCRefUndef)
        propagateHead_ = trail_.size();
    return conflict;
}

void
Solver::backtrack(int target_level)
{
    if (decisionLevel() <= target_level)
        return;
    const std::size_t lim = trailLims_[(std::size_t)target_level];
    for (std::size_t i = trail_.size(); i-- > lim;) {
        const Lit l = trail_[i];
        const auto v = (std::size_t)l.var();
        polarity_[v] = l.sign();
        litVals_[l.index()] = LBool::Undef;
        litVals_[(~l).index()] = LBool::Undef;
        reasons_[v] = kCRefUndef;
        if (!heapContains((Var)v))
            insertVarOrder((Var)v);
    }
    trail_.resize(lim);
    trailLims_.resize((std::size_t)target_level);
    propagateHead_ = trail_.size();
}

void
Solver::analyze(CRef conflict, std::vector<Lit> &out_learned,
                int &out_btlevel)
{
    out_learned.clear();
    out_learned.push_back(Lit::undef()); // slot for the asserting literal

    int path_count = 0;
    Lit p = Lit::undef();
    std::size_t index = trail_.size();

    CRef c = conflict;
    do {
        BEER_ASSERT(c != kCRefUndef);
        if (clauseLearned(c))
            bumpClause(c);
        if (!p.isUndef())
            putImpliedFirst(c, p);
        const std::uint32_t size = clauseSize(c);
        for (std::uint32_t k = p.isUndef() ? 0 : 1; k < size; ++k) {
            const Lit q = clauseLit(c, k);
            const auto v = (std::size_t)q.var();
            if (seen_[v] || level(q.var()) == 0)
                continue;
            seen_[v] = 1;
            bumpVar(q.var());
            if (level(q.var()) >= decisionLevel())
                ++path_count;
            else
                out_learned.push_back(q);
        }

        // Walk the trail back to the next marked literal.
        while (!seen_[(std::size_t)trail_[index - 1].var()])
            --index;
        --index;
        p = trail_[index];
        c = reasons_[(std::size_t)p.var()];
        seen_[(std::size_t)p.var()] = 0;
        --path_count;
    } while (path_count > 0);
    out_learned[0] = ~p;

    // Recursive clause minimization (MiniSat's "deep" mode).
    analyzeToClear_.assign(out_learned.begin(), out_learned.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < out_learned.size(); ++i)
        abstract_levels |=
            1u << (level(out_learned[i].var()) & 31);

    std::size_t keep = 1;
    for (std::size_t i = 1; i < out_learned.size(); ++i) {
        const Lit l = out_learned[i];
        if (reasons_[(std::size_t)l.var()] == kCRefUndef ||
            !litRedundant(l, abstract_levels)) {
            out_learned[keep++] = l;
        }
    }
    out_learned.resize(keep);

    for (Lit l : analyzeToClear_)
        seen_[(std::size_t)l.var()] = 0;
    analyzeToClear_.clear();

    // Compute the backtrack level: highest level below the current one.
    out_btlevel = 0;
    if (out_learned.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learned.size(); ++i)
            if (level(out_learned[i].var()) >
                level(out_learned[max_i].var()))
                max_i = i;
        std::swap(out_learned[1], out_learned[max_i]);
        out_btlevel = level(out_learned[1].var());
    }
}

bool
Solver::litRedundant(Lit l, std::uint32_t abstract_levels)
{
    analyzeStack_.clear();
    analyzeStack_.push_back(l);
    const std::size_t top = analyzeToClear_.size();

    while (!analyzeStack_.empty()) {
        const Lit cur = analyzeStack_.back();
        analyzeStack_.pop_back();
        const CRef c = reasons_[(std::size_t)cur.var()];
        BEER_ASSERT(c != kCRefUndef);
        putImpliedFirst(c, ~cur);

        const std::uint32_t size = clauseSize(c);
        for (std::uint32_t k = 1; k < size; ++k) {
            const Lit q = clauseLit(c, k);
            const auto v = (std::size_t)q.var();
            if (seen_[v] || level(q.var()) == 0)
                continue;
            if (reasons_[v] == kCRefUndef ||
                !((1u << (level(q.var()) & 31)) & abstract_levels)) {
                // Not removable: undo marks made during this check.
                for (std::size_t i = top; i < analyzeToClear_.size(); ++i)
                    seen_[(std::size_t)analyzeToClear_[i].var()] = 0;
                analyzeToClear_.resize(top);
                return false;
            }
            seen_[v] = 1;
            analyzeStack_.push_back(q);
            analyzeToClear_.push_back(q);
        }
    }
    return true;
}

void
Solver::putImpliedFirst(CRef reason, Lit implied)
{
    // A binary clause implies without touching the arena, so its
    // literals may still be in either order.
    if (clauseSize(reason) == 2 && clauseLit(reason, 0) != implied)
        std::swap(clauseLit(reason, 0), clauseLit(reason, 1));
}

void
Solver::bumpVar(Var v)
{
    activity_[(std::size_t)v] += varInc_;
    if (activity_[(std::size_t)v] > 1e100) {
        for (auto &a : activity_)
            a *= 1e-100;
        varInc_ *= 1e-100;
    }
    const auto idx = heapIndex_[(std::size_t)v];
    if (idx >= 0)
        heapUp((std::size_t)idx);
}

void
Solver::decayVarActivity()
{
    varInc_ /= 0.95;
}

void
Solver::bumpClause(CRef c)
{
    float &act = clauseActivity(c);
    act += claInc_;
    if (act > 1e20f) {
        for (CRef lc : learned_)
            clauseActivity(lc) *= 1e-20f;
        claInc_ *= 1e-20f;
    }
}

void
Solver::insertVarOrder(Var v)
{
    if (heapContains(v))
        return;
    heapIndex_[(std::size_t)v] = (std::int32_t)heap_.size();
    heap_.push_back(v);
    heapUp(heap_.size() - 1);
}

void
Solver::heapUp(std::size_t i)
{
    const Var v = heap_[i];
    const double act = activity_[(std::size_t)v];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (activity_[(std::size_t)heap_[parent]] >= act)
            break;
        heap_[i] = heap_[parent];
        heapIndex_[(std::size_t)heap_[i]] = (std::int32_t)i;
        i = parent;
    }
    heap_[i] = v;
    heapIndex_[(std::size_t)v] = (std::int32_t)i;
}

void
Solver::heapDown(std::size_t i)
{
    const Var v = heap_[i];
    const double act = activity_[(std::size_t)v];
    while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= heap_.size())
            break;
        std::size_t best = left;
        const std::size_t right = left + 1;
        if (right < heap_.size() &&
            activity_[(std::size_t)heap_[right]] >
                activity_[(std::size_t)heap_[left]])
            best = right;
        if (activity_[(std::size_t)heap_[best]] <= act)
            break;
        heap_[i] = heap_[best];
        heapIndex_[(std::size_t)heap_[i]] = (std::int32_t)i;
        i = best;
    }
    heap_[i] = v;
    heapIndex_[(std::size_t)v] = (std::int32_t)i;
}

std::uint32_t
Solver::nextRandom()
{
    rngState_ ^= rngState_ << 13;
    rngState_ ^= rngState_ >> 7;
    rngState_ ^= rngState_ << 17;
    return (std::uint32_t)(rngState_ >> 32);
}

Var
Solver::pickBranchVar()
{
    // Occasional random decisions diversify restarts.
    if (nextRandom() % 64 == 0 && !heap_.empty()) {
        const Var v = heap_[nextRandom() % heap_.size()];
        if (value(v) == LBool::Undef)
            return v;
    }
    while (!heap_.empty()) {
        const Var v = heap_[0];
        // Pop the root.
        heap_[0] = heap_.back();
        heapIndex_[(std::size_t)heap_[0]] = 0;
        heap_.pop_back();
        heapIndex_[(std::size_t)v] = -1;
        if (!heap_.empty() && heap_[0] != v)
            heapDown(0);
        if (value(v) == LBool::Undef)
            return v;
    }
    return -1;
}

void
Solver::reduceDb()
{
    // Drop the less active half of the learned clauses, keeping clauses
    // that are currently reasons for trail literals.
    std::sort(learned_.begin(), learned_.end(), [this](CRef a, CRef b) {
        return clauseActivity(a) < clauseActivity(b);
    });

    auto locked = [this](CRef c) {
        const Lit first = clauseLit(c, 0);
        return value(first) == LBool::True &&
               reasons_[(std::size_t)first.var()] == c;
    };

    std::vector<CRef> kept;
    kept.reserve(learned_.size());
    const std::size_t drop_target = learned_.size() / 2;
    std::size_t dropped = 0;
    for (std::size_t i = 0; i < learned_.size(); ++i) {
        const CRef c = learned_[i];
        if (dropped < drop_target && !locked(c) && clauseSize(c) > 2) {
            markDeleted(c);
            ++dropped;
            ++stats_.deletedClauses;
        } else {
            kept.push_back(c);
        }
    }
    learned_.swap(kept);
    if (!maybeGarbageCollect())
        rebuildWatches();
}

void
Solver::rebuildWatches()
{
    for (auto &ws : watches_)
        ws.clear();
    for (CRef c : clauses_)
        attachClause(c);
    for (CRef c : learned_)
        attachClause(c);
}

std::uint64_t
Solver::luby(std::uint64_t i)
{
    // Sequence 1 1 2 1 1 2 4 ... ; i is 1-based.
    std::uint64_t k = 1;
    while ((1ULL << (k + 1)) - 1 <= i)
        ++k;
    while (i != (1ULL << k) - 1) {
        i -= (1ULL << k) - 1;
        k = 1;
        while ((1ULL << (k + 1)) - 1 <= i)
            ++k;
    }
    return 1ULL << (k - 1);
}

SolveResult
Solver::solve(const std::vector<Lit> &assumptions)
{
    if (unsat_)
        return SolveResult::Unsat;
    // Live groups are enforced by assuming their activation literals;
    // they come first so group-conditional learned clauses assert at
    // the lowest decision levels.
    // Suspended groups get the *negated* activation assumed so their
    // clauses are definitively void for this call (rather than leaving
    // the guard free for the search to set either way).
    assumptions_.clear();
    for (const Group &g : groups_)
        if (!g.retired)
            assumptions_.push_back(g.suspended ? ~g.activation
                                               : g.activation);
    assumptions_.insert(assumptions_.end(), assumptions.begin(),
                        assumptions.end());
    backtrack(0);
    if (propagate() != kCRefUndef) {
        unsat_ = true;
        return SolveResult::Unsat;
    }
    const SolveResult out = search();
    // Keep the model readable after returning; callers must not add
    // clauses before reading it (addClause backtracks to level 0).
    return out;
}

SolveResult
Solver::search()
{
    std::uint64_t restart_count = 0;
    std::uint64_t conflicts_until_restart = 100 * luby(++restart_count);
    std::uint64_t conflicts_since_restart = 0;
    std::vector<Lit> learned_clause;

    while (true) {
        const CRef conflict = propagate();
        if (conflict != kCRefUndef) {
            ++stats_.conflicts;
            ++conflicts_since_restart;
            if (conflictLimit_ && stats_.conflicts >= conflictLimit_)
                return SolveResult::Unknown;
            if (decisionLevel() == 0) {
                unsat_ = true;
                return SolveResult::Unsat;
            }

            int btlevel = 0;
            analyze(conflict, learned_clause, btlevel);
            backtrack(btlevel);

            if (learned_clause.size() == 1) {
                enqueue(learned_clause[0], kCRefUndef);
            } else {
                const CRef c = allocClause(learned_clause, true);
                learned_.push_back(c);
                ++stats_.learnedClauses;
                attachClause(c);
                bumpClause(c);
                enqueue(learned_clause[0], c);
            }
            decayVarActivity();
            claInc_ *= 1.0f / 0.999f;
            continue;
        }

        if (conflicts_since_restart >= conflicts_until_restart) {
            ++stats_.restarts;
            conflicts_since_restart = 0;
            conflicts_until_restart = 100 * luby(++restart_count);
            backtrack(0);
            continue;
        }

        if (learned_.size() >= maxLearned_) {
            reduceDb();
            maxLearned_ = maxLearned_ + maxLearned_ / 2;
        }

        // Re-apply assumptions, then branch.
        Lit next = Lit::undef();
        while ((std::size_t)decisionLevel() < assumptions_.size()) {
            const Lit a = assumptions_[(std::size_t)decisionLevel()];
            if (value(a) == LBool::True) {
                trailLims_.push_back(trail_.size()); // dummy level
            } else if (value(a) == LBool::False) {
                return SolveResult::Unsat;
            } else {
                next = a;
                break;
            }
        }

        if (next.isUndef()) {
            const Var v = pickBranchVar();
            if (v < 0)
                return SolveResult::Sat; // all variables assigned
            next = mkLit(v, polarity_[(std::size_t)v]);
            ++stats_.decisions;
        }

        trailLims_.push_back(trail_.size());
        enqueue(next, kCRefUndef);
    }
}

bool
Solver::modelValue(Var v) const
{
    BEER_ASSERT(v >= 0 && v < numVars_);
    const LBool val = value(v);
    BEER_ASSERT(val != LBool::Undef);
    return val == LBool::True;
}

} // namespace beer::sat
