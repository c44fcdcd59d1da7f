/**
 * @file
 * Deterministic, fast pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic component of the library takes an explicit Rng so that
 * experiments are reproducible from a single seed. The generator passes
 * BigCrush and is much faster than std::mt19937_64.
 */

#ifndef BEER_UTIL_RNG_HH
#define BEER_UTIL_RNG_HH

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace beer::util
{

/**
 * xoshiro256** PRNG with convenience distributions used across the
 * library (uniform ints/reals, Bernoulli, binomial, normal, geometric).
 */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Next raw 64-bit output. Inline: one draw per sampled error
     * cell makes this the single most-called function in the
     * simulation engine's hot loop.
     */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) via Lemire's method; bound > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p);

    /**
     * Binomial(n, p) sample.
     *
     * Uses inversion for small n*p and a normal approximation with
     * correction for large n*p; exact enough for Monte-Carlo error
     * injection.
     */
    std::uint64_t binomial(std::uint64_t n, double p);

    /** Standard normal sample (Box-Muller, cached pair). */
    double normal();

    /**
     * Geometric sample: number of failures before the first success with
     * success probability @p p (support {0, 1, ...}).
     */
    std::uint64_t geometric(double p);

    /** Fork a statistically independent child stream. */
    Rng fork();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

/**
 * rng.bernoulli(p) with the threshold precomputed, for callers that
 * draw many trials at one rate. For 0 < p < 1 bernoulli() succeeds
 * when (next() >> 11) * 2^-53 < p; scaling by 2^53 is exact, so that
 * is the integer compare (next() >> 11) < ceil(p * 2^53) on the same
 * draw. Rates p <= 0 and p >= 1 consume no draw, as in bernoulli().
 * @p p must not be NaN.
 */
class BernoulliThreshold
{
  public:
    explicit BernoulliThreshold(double p)
        : bound_(p >= 1.0  ? kAlways
                 : p > 0.0 ? (std::uint64_t)std::ceil(p * 0x1.0p53)
                           : 0)
    {
    }

    /** One trial; bit-identical to rng.bernoulli(p). */
    bool operator()(Rng &rng) const
    {
        if (bound_ == 0 || bound_ == kAlways)
            return bound_ != 0;
        return accepts(rng.next());
    }

    /** Outcome of a trial whose raw draw is @p draw (0 < p < 1). */
    bool accepts(std::uint64_t draw) const
    {
        return (draw >> 11) < bound_;
    }

  private:
    /** Marks p >= 1; real bounds never exceed 2^53. */
    static constexpr std::uint64_t kAlways = ~std::uint64_t{0};
    std::uint64_t bound_;
};

/**
 * Invoke fn(i) for every success index i in [0, total), ascending,
 * with gaps drawn from @p gaps (any Geometric(p) sampler callable as
 * gaps(rng)): the skip-sampling equivalent of `for i < total: if
 * rng.bernoulli(p) fn(i)`, at O(successes) cost. Shared by the gap
 * samplers' forEach methods so the termination/overflow logic exists
 * once.
 */
template <typename GapSampler, typename Fn>
void
forEachSuccess(const GapSampler &gaps, Rng &rng, std::uint64_t total,
               Fn &&fn)
{
    std::uint64_t i = gaps(rng);
    while (i < total) {
        fn(i);
        const std::uint64_t jump = gaps(rng) + 1;
        if (total - i <= jump)
            break;
        i += jump;
    }
}

/**
 * Geometric(p) sampler with the log(1-p) denominator hoisted, for
 * skip-sampling loops that draw many gaps at the same rate: each call
 * returns the number of failures before the next success. Gaps are
 * clamped to 2^62 so callers can add 1 to form a jump without
 * overflow (and because casting a huge double is undefined).
 */
class GeometricSkip
{
  public:
    /** @param p success probability in (0, 1]; p == 1 yields all-0 gaps. */
    explicit GeometricSkip(double p);

    std::uint64_t operator()(Rng &rng) const;

    /** forEachSuccess with this sampler's gaps. */
    template <typename Fn>
    void forEach(Rng &rng, std::uint64_t total, Fn &&fn) const
    {
        forEachSuccess(*this, rng, total, std::forward<Fn>(fn));
    }

  private:
    double invLogQ_;
};

/**
 * Geometric(p) sampler optimized for dense skip-sampling loops.
 *
 * GeometricSkip pays a libm log() per gap (~18 cycles); at the
 * simulation engine's default workloads that one call is the largest
 * scalar cost left per simulated word, and it throttles the SIMD
 * backends (Amdahl). This sampler instead draws from an alias table
 * (Vose's method) over the outcomes {0 .. kTail-1} plus a tail
 * sentinel: one raw 64-bit draw picks a table slot from the low bits
 * and a 56-bit threshold uniform from the high bits, so a gap costs a
 * lookup and an integer compare. Hitting the sentinel adds kTail and redraws —
 * geometric distributions are memoryless — which stays cheap as long
 * as the mean gap is well below kTail; below the density cutoff the
 * sampler simply delegates to GeometricSkip, whose cost is then
 * amortized over the huge gaps anyway.
 *
 * The table is built once per construction (~kTail flops), so build
 * one per shard, not per draw. The sampled distribution is
 * Geometric(p) exactly (up to double rounding of the table), and the
 * draw sequence is a pure function of (p, Rng stream) — identical for
 * every SIMD backend, which the engine's cross-backend bit-identity
 * contract relies on.
 */
class GeometricSampler
{
  public:
    /** Outcomes resolved per table draw; tail adds this and redraws. */
    static constexpr std::size_t kTail = 255;

    /** @param p success probability in (0, 1]. */
    explicit GeometricSampler(double p);

    /** Inline: one draw sits on the engine's per-error-cell path. */
    std::uint64_t operator()(Rng &rng) const
    {
        if (!useAlias_)
            return skip_(rng);
        std::uint64_t result = 0;
        while (true) {
            const std::uint64_t r = rng.next();
            // Low 8 bits pick the slot; bits 8..63 form an
            // independent 56-bit threshold uniform.
            const std::size_t slot = (std::size_t)(r & (kSlots - 1));
            const std::size_t g =
                (r >> 8) < threshold_[slot] ? slot : alias_[slot];
            if (g != kTail)
                return result + g;
            result += kTail;
        }
    }

    /** forEachSuccess with this sampler's gaps. */
    template <typename Fn>
    void forEach(Rng &rng, std::uint64_t total, Fn &&fn) const
    {
        forEachSuccess(*this, rng, total, std::forward<Fn>(fn));
    }

    /** True when draws use the alias table (exposed for tests). */
    bool usesAliasTable() const { return useAlias_; }

  private:
    static constexpr std::size_t kSlots = 256;

    bool useAlias_;
    /** log-method fallback for sparse rates (mean gap >> kTail). */
    GeometricSkip skip_;
    /**
     * Keep-slot threshold against a 56-bit uniform, in 8.56
     * fixed-point so a draw is one integer compare (quantizing the
     * table to 2^-56 is far below the double rounding already in it).
     */
    std::uint64_t threshold_[kSlots];
    /** Outcome when the threshold rejects the slot. */
    std::uint16_t alias_[kSlots];
};

/**
 * 64 iid Bernoulli(p) trials per draw, one bit per lane.
 *
 * The batched fill path of the transposed chip needs whole lane
 * masks, not per-cell trials: at high error rates, drawing each cell
 * with the geometric skip sampler costs one Rng draw *per error*,
 * while this sampler resolves 64 cells in an expected ~log2(64) + 2
 * draws regardless of the rate — dram::kInjectionCrossoverBer is
 * where the two samplers cross.
 *
 * Algorithm: compare an infinite random binary fraction u against p
 * digit by digit, all 64 lanes in parallel — one next() supplies
 * digit i of every lane's u. A lane resolves at the first digit where
 * u and p differ (u's digit 0, p's 1: success u < p; the reverse:
 * failure), so each draw resolves half the unresolved lanes and the
 * loop ends when none remain (or p's digits run out — doubles have
 * finite expansions — after which u > p for every survivor). The
 * sampled distribution is Bernoulli(p) exactly, the same exactness
 * class as `rng.uniform() < p`.
 */
class BernoulliMask
{
  public:
    /** @param p success probability; clamped to [0, 1]. */
    explicit BernoulliMask(double p);

    /** Lane mask with each bit set independently with probability p. */
    std::uint64_t draw(Rng &rng) const
    {
        if (digits_.empty())
            return constant_;
        std::uint64_t unresolved = ~(std::uint64_t)0;
        std::uint64_t result = 0;
        for (const std::uint8_t digit : digits_) {
            const std::uint64_t r = rng.next();
            if (digit) {
                result |= unresolved & ~r;
                unresolved &= r;
            } else {
                unresolved &= ~r;
            }
            if (!unresolved)
                break;
        }
        return result;
    }

  private:
    /** Binary digits of p's fraction, most significant first; empty
     * for the degenerate rates p <= 0 and p >= 1. */
    std::vector<std::uint8_t> digits_;
    /** Mask returned for the degenerate rates. */
    std::uint64_t constant_ = 0;
};

} // namespace beer::util

#endif // BEER_UTIL_RNG_HH
