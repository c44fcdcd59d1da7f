/**
 * @file
 * Core SAT types: variables, literals, and clause references.
 *
 * A variable is a non-negative integer. A literal packs a variable and
 * its sign into one int: lit = 2*var + (negated ? 1 : 0), the MiniSat
 * convention.
 */

#ifndef BEER_SAT_TYPES_HH
#define BEER_SAT_TYPES_HH

#include <cstdint>
#include <vector>

namespace beer::sat
{

using Var = std::int32_t;

/** Packed literal; see file comment for the encoding. */
struct Lit
{
    std::int32_t x = -2; // undefined by default

    Lit() = default;
    constexpr Lit(Var var, bool negated)
        : x(2 * var + (negated ? 1 : 0))
    {
    }

    constexpr Var var() const { return x >> 1; }
    constexpr bool sign() const { return x & 1; }
    constexpr Lit operator~() const
    {
        Lit out;
        out.x = x ^ 1;
        return out;
    }

    constexpr bool operator==(const Lit &other) const = default;
    constexpr bool operator<(const Lit &other) const
    {
        return x < other.x;
    }

    /** Index usable for watch lists and lookup tables. */
    constexpr std::size_t index() const { return (std::size_t)x; }

    static constexpr Lit undef() { return Lit(); }
    constexpr bool isUndef() const { return x < 0; }
};

/** Positive literal of @p v. */
constexpr Lit
mkLit(Var v, bool negated = false)
{
    return Lit(v, negated);
}

/** Ternary logic value used for assignments. */
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

/** Reference to a clause in the solver's arena. */
using CRef = std::uint32_t;
constexpr CRef kCRefUndef = UINT32_MAX;

/** Result of a solve() call. */
enum class SolveResult { Sat, Unsat, Unknown };

} // namespace beer::sat

#endif // BEER_SAT_TYPES_HH
