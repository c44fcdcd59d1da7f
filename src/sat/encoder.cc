#include "sat/encoder.hh"

#include "util/logging.hh"

namespace beer::sat
{

Encoder::Encoder(Solver &solver)
    : solver_(solver)
{
    trueLit_ = mkLit(solver_.newVar());
    emit(trueLit_);  // permanent by construction
}

Lit
Encoder::fresh()
{
    ++auxVars_;
    return mkLit(solver_.newVar());
}

void
Encoder::emit(const Lit *lits, std::size_t size)
{
    solver_.addClause(lits, size, group_);
}

std::uint64_t
Encoder::pairKey(Lit a, Lit b)
{
    return ((std::uint64_t)(std::uint32_t)a.x << 32) |
           (std::uint32_t)b.x;
}

Lit
Encoder::mkAnd(Lit a, Lit b)
{
    if (a == constTrue())
        return b;
    if (b == constTrue())
        return a;
    if (a == constFalse() || b == constFalse())
        return constFalse();
    if (a == b)
        return a;
    if (a == ~b)
        return constFalse();
    // Structural hashing: AND is commutative, so order the inputs.
    if (b < a)
        std::swap(a, b);
    const std::uint64_t key = pairKey(a, b);
    const auto cached = andCache_.find(key);
    if (cached != andCache_.end()) {
        ++cacheHits_;
        return cached->second;
    }
    const Lit y = fresh();
    emit(~y, a);
    emit(~y, b);
    emit(~a, ~b, y);
    // Gates defined inside a retractable group must not be cached: the
    // defining clauses vanish with the group, and a later reuse of the
    // output literal would reference an unconstrained variable.
    if (group_ == kGroupNone)
        andCache_.emplace(key, y);
    return y;
}

Lit
Encoder::mkAnd(const std::vector<Lit> &lits)
{
    if (lits.empty())
        return constTrue();
    if (lits.size() == 1)
        return lits[0];
    // One n-ary gate: y -> each lit; (all lits) -> y.
    const Lit y = fresh();
    std::vector<Lit> big;
    big.reserve(lits.size() + 1);
    for (Lit l : lits) {
        if (l == constFalse()) {
            emit(~y);
            return y;
        }
        emit(~y, l);
        big.push_back(~l);
    }
    big.push_back(y);
    emit(big.data(), big.size());
    return y;
}

Lit
Encoder::mkOr(Lit a, Lit b)
{
    return ~mkAnd(~a, ~b);
}

Lit
Encoder::mkOr(const std::vector<Lit> &lits)
{
    if (lits.empty())
        return constFalse();
    std::vector<Lit> inverted;
    inverted.reserve(lits.size());
    for (Lit l : lits)
        inverted.push_back(~l);
    return ~mkAnd(inverted);
}

Lit
Encoder::mkXor(Lit a, Lit b)
{
    if (a == constFalse())
        return b;
    if (b == constFalse())
        return a;
    if (a == constTrue())
        return ~b;
    if (b == constTrue())
        return ~a;
    if (a == b)
        return constFalse();
    if (a == ~b)
        return constTrue();
    // Structural hashing: XOR is commutative and odd in each input
    // (x ^ ~y == ~(x ^ y)), so canonicalize to positive ordered inputs
    // and flip the cached output by the stripped sign parity.
    const bool flip = a.sign() ^ b.sign();
    if (a.sign())
        a = ~a;
    if (b.sign())
        b = ~b;
    if (b < a)
        std::swap(a, b);
    const std::uint64_t key = pairKey(a, b);
    const auto cached = xorCache_.find(key);
    if (cached != xorCache_.end()) {
        ++cacheHits_;
        return flip ? ~cached->second : cached->second;
    }
    const Lit y = fresh();
    emit(~y, a, b);
    emit(~y, ~a, ~b);
    emit(y, ~a, b);
    emit(y, a, ~b);
    if (group_ == kGroupNone)
        xorCache_.emplace(key, y);
    return flip ? ~y : y;
}

Lit
Encoder::mkXor(const std::vector<Lit> &lits)
{
    Lit acc = constFalse();
    for (Lit l : lits)
        acc = mkXor(acc, l);
    return acc;
}

void
Encoder::require(const std::vector<Lit> &lits)
{
    emit(lits.data(), lits.size());
}

void
Encoder::require(Lit a)
{
    emit(a);
}

void
Encoder::requireImplies(Lit a, Lit b)
{
    emit(~a, b);
}

void
Encoder::requireLexLeq(const std::vector<Lit> &a,
                       const std::vector<Lit> &b)
{
    BEER_ASSERT(a.size() == b.size());
    // e_i: prefix a[0..i] equals b[0..i]. Enforce for every i:
    //   e_{i-1} -> !(a_i & !b_i)
    // with one-directional definitions sufficient to keep e true while
    // the prefixes are in fact equal.
    Lit prefix_eq = constTrue();
    for (std::size_t i = 0; i < a.size(); ++i) {
        // prefix_eq -> (a_i -> b_i)
        emit(~prefix_eq, ~a[i], b[i]);
        if (i + 1 == a.size())
            break;
        const Lit next = fresh();
        // (prefix_eq & a_i & b_i) -> next ; (prefix_eq & !a_i & !b_i) -> next
        emit(~prefix_eq, ~a[i], ~b[i], next);
        emit(~prefix_eq, a[i], b[i], next);
        prefix_eq = next;
    }
}

} // namespace beer::sat
