#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace beer::util
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // All-zero state is invalid for xoshiro; splitmix64 cannot produce
    // four zero outputs in a row, but keep the guard for clarity.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    BEER_ASSERT(bound > 0);
    // Lemire's nearly-divisionless bounded sampling.
    __uint128_t m = (__uint128_t)next() * bound;
    auto lo = (std::uint64_t)m;
    if (lo < bound) {
        std::uint64_t threshold = -bound % bound;
        while (lo < threshold) {
            m = (__uint128_t)next() * bound;
            lo = (std::uint64_t)m;
        }
    }
    return (std::uint64_t)(m >> 64);
}

double
Rng::uniform()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::binomial(std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    if (p > 0.5)
        return n - binomial(n, 1.0 - p);

    const double mean = n * p;
    if (mean < 32.0) {
        // Inversion by sequential search over the CDF.
        const double q = 1.0 - p;
        const double ratio = p / q;
        double pmf = std::pow(q, (double)n);
        double cdf = pmf;
        const double u = uniform();
        std::uint64_t k = 0;
        while (u > cdf && k < n) {
            ++k;
            pmf *= ratio * (double)(n - k + 1) / (double)k;
            cdf += pmf;
        }
        return k;
    }

    // Normal approximation with continuity correction; clamp to [0, n].
    const double sd = std::sqrt(mean * (1.0 - p));
    double sample = std::round(mean + sd * normal());
    if (sample < 0.0)
        sample = 0.0;
    if (sample > (double)n)
        sample = (double)n;
    return (std::uint64_t)sample;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = uniform();
    // Avoid log(0).
    while (u1 <= 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

std::uint64_t
Rng::geometric(double p)
{
    return GeometricSkip(p)(*this);
}

GeometricSkip::GeometricSkip(double p)
    : invLogQ_(1.0 / std::log1p(-p))
{
    BEER_ASSERT(p > 0.0 && p <= 1.0);
}

std::uint64_t
GeometricSkip::operator()(Rng &rng) const
{
    double u = rng.uniform();
    while (u <= 0.0)
        u = rng.uniform();
    // p == 1 makes invLogQ_ == -0.0 and the product +0.0: every trial
    // succeeds, as it should.
    const double g = std::log(u) * invLogQ_;
    return g >= 0x1p62 ? (std::uint64_t)1 << 62 : (std::uint64_t)g;
}

GeometricSampler::GeometricSampler(double p) : skip_(p)
{
    // Mean gap 1/p - 1 must sit well below kTail or nearly every draw
    // lands in the tail and loops; past the cutoff the log method is
    // already cheap per simulated cell because draws are rare.
    useAlias_ = p >= 0.02;
    if (!useAlias_)
        return;

    // pmf over {0 .. kTail-1} plus the tail sentinel at index kTail.
    const double q = 1.0 - p;
    double pmf[kSlots];
    double mass = 0.0;
    double term = p;
    for (std::size_t g = 0; g < kTail; ++g) {
        pmf[g] = term;
        mass += term;
        term *= q;
    }
    pmf[kTail] = mass < 1.0 ? 1.0 - mass : 0.0; // P(gap >= kTail) = q^kTail

    // Vose's alias method: every slot keeps itself with probability
    // scaled[i] (against a uniform) or defers to one alias outcome.
    double scaled[kSlots];
    std::uint16_t small[kSlots];
    std::uint16_t large[kSlots];
    std::size_t num_small = 0;
    std::size_t num_large = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
        scaled[i] = pmf[i] * (double)kSlots;
        if (scaled[i] < 1.0)
            small[num_small++] = (std::uint16_t)i;
        else
            large[num_large++] = (std::uint16_t)i;
    }
    // Keep-probability 1.0 maps to 2^56 exactly (representable: the
    // threshold compare is against a 56-bit value, always below it).
    const double fixed_one = 0x1.0p56;
    while (num_small > 0 && num_large > 0) {
        const std::uint16_t s = small[--num_small];
        const std::uint16_t l = large[--num_large];
        threshold_[s] = (std::uint64_t)(scaled[s] * fixed_one);
        alias_[s] = l;
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0)
            small[num_small++] = l;
        else
            large[num_large++] = l;
    }
    // Leftovers hold (numerically) exactly probability 1.
    while (num_large > 0) {
        const std::uint16_t l = large[--num_large];
        threshold_[l] = (std::uint64_t)fixed_one;
        alias_[l] = l;
    }
    while (num_small > 0) {
        const std::uint16_t s = small[--num_small];
        threshold_[s] = (std::uint64_t)fixed_one;
        alias_[s] = s;
    }
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xa3c59ac2ed9b81d5ULL);
}

BernoulliMask::BernoulliMask(double p)
{
    if (p <= 0.0) {
        constant_ = 0;
        return;
    }
    if (p >= 1.0) {
        constant_ = ~(std::uint64_t)0;
        return;
    }
    // Peel p's binary fraction by doubling; terminates because a
    // double's fraction is finite (at most ~1075 digits for the
    // smallest denormals).
    double rest = p;
    while (rest > 0.0) {
        rest *= 2.0;
        if (rest >= 1.0) {
            digits_.push_back(1);
            rest -= 1.0;
        } else {
            digits_.push_back(0);
        }
    }
}

} // namespace beer::util
