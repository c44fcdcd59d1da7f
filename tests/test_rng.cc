/**
 * @file
 * Statistical sanity tests for util::Rng. Tolerances are loose enough
 * to be deterministic for the fixed seeds used.
 */

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hh"

using beer::util::Rng;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    // All residues reachable.
    std::vector<int> seen(17, 0);
    for (int i = 0; i < 10000; ++i)
        ++seen[rng.below(17)];
    for (int count : seen)
        EXPECT_GT(count, 0);
}

TEST(Rng, UniformInRange)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR((double)hits / trials, 0.3, 0.01);

    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BinomialMoments)
{
    Rng rng(17);
    // Small-mean regime (inversion path).
    {
        double sum = 0.0;
        const int trials = 20000;
        for (int i = 0; i < trials; ++i)
            sum += (double)rng.binomial(40, 0.1);
        EXPECT_NEAR(sum / trials, 4.0, 0.15);
    }
    // Large-mean regime (normal approximation path).
    {
        double sum = 0.0;
        const int trials = 20000;
        for (int i = 0; i < trials; ++i) {
            const auto sample = rng.binomial(10000, 0.25);
            EXPECT_LE(sample, 10000u);
            sum += (double)sample;
        }
        EXPECT_NEAR(sum / trials, 2500.0, 5.0);
    }
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
    EXPECT_EQ(rng.binomial(10, 0.0), 0u);
    EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    double sum = 0.0;
    double sq = 0.0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.02);
    EXPECT_NEAR(sq / trials, 1.0, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(23);
    const double p = 0.2;
    double sum = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        sum += (double)rng.geometric(p);
    // Mean of failures-before-success geometric is (1-p)/p = 4.
    EXPECT_NEAR(sum / trials, 4.0, 0.15);
    EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(29);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

TEST(BernoulliMask, DegenerateRatesDrawNothing)
{
    beer::util::Rng rng(1);
    beer::util::Rng untouched(1);
    const beer::util::BernoulliMask never(0.0);
    const beer::util::BernoulliMask always(1.0);
    EXPECT_EQ(never.draw(rng), 0u);
    EXPECT_EQ(always.draw(rng), ~(std::uint64_t)0);
    // Neither consumed the Rng stream.
    EXPECT_EQ(rng.next(), untouched.next());
}

TEST(BernoulliMask, ExactPowerOfTwoRates)
{
    // p = 0.5 has a one-digit expansion: the mask is exactly one raw
    // next() draw's complement-resolved bits; the mean must sit at 32
    // of 64 lanes over many draws.
    beer::util::Rng rng(17);
    const beer::util::BernoulliMask half(0.5);
    std::uint64_t ones = 0;
    const std::size_t draws = 20000;
    for (std::size_t i = 0; i < draws; ++i)
        ones += (std::uint64_t)__builtin_popcountll(half.draw(rng));
    const double total = 64.0 * draws;
    const double sigma = std::sqrt(total * 0.25);
    EXPECT_NEAR((double)ones, total * 0.5, 5.0 * sigma);
}

TEST(BernoulliMask, LaneBitsMatchTheRate)
{
    // Every lane is an independent Bernoulli(p) trial: the aggregate
    // count and each individual lane's count must track p.
    const double p = 0.3;
    beer::util::Rng rng(23);
    const beer::util::BernoulliMask mask(p);
    const std::size_t draws = 30000;
    std::array<std::uint64_t, 64> lane_ones{};
    std::uint64_t ones = 0;
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t m = mask.draw(rng);
        ones += (std::uint64_t)__builtin_popcountll(m);
        for (std::size_t lane = 0; lane < 64; ++lane)
            lane_ones[lane] += (m >> lane) & 1;
    }
    const double total = 64.0 * draws;
    EXPECT_NEAR((double)ones, total * p,
                5.0 * std::sqrt(total * p * (1.0 - p)));
    const double lane_sigma = std::sqrt(draws * p * (1.0 - p));
    for (std::size_t lane = 0; lane < 64; ++lane)
        EXPECT_NEAR((double)lane_ones[lane], draws * p,
                    6.0 * lane_sigma)
            << "lane " << lane;
}

TEST(BernoulliThreshold, MatchesBernoulliDrawForDraw)
{
    const double rates[] = {1e-4,
                            5e-4,
                            0x1.0p-53,
                            std::numeric_limits<double>::denorm_min(),
                            std::nextafter(1.0, 0.0),
                            0.0,
                            1.0,
                            0.3};
    for (const double p : rates) {
        const beer::util::BernoulliThreshold threshold(p);
        Rng a(97);
        Rng b(97);
        std::uint64_t successes = 0;
        for (int i = 0; i < 200000; ++i) {
            const bool got = threshold(a);
            ASSERT_EQ(got, b.bernoulli(p)) << "p " << p << " trial " << i;
            successes += got;
        }
        if (p > 0.0 && p < 0.01) {
            EXPECT_LT(successes, 200u) << p;
        }
        // Same draws consumed, including none at p = 0 and p = 1.
        EXPECT_EQ(a.next(), b.next()) << p;
    }
}

TEST(BernoulliThreshold, AcceptsExactlyTheDrawsBernoulliAccepts)
{
    // bernoulli(p) succeeds on a draw d iff (d >> 11) * 2^-53 < p.
    // Check both outcomes on the 53-bit values around each threshold,
    // where random trials at tiny or near-one rates never land.
    const double rates[] = {1e-4, 5e-4, 0x1.0p-53,
                            std::numeric_limits<double>::denorm_min(),
                            std::nextafter(1.0, 0.0)};
    const std::uint64_t top = (std::uint64_t{1} << 53) - 1;
    for (const double p : rates) {
        const beer::util::BernoulliThreshold threshold(p);
        const std::uint64_t edge =
            (std::uint64_t)std::floor(p * 0x1.0p53);
        bool seen[2] = {false, false};
        for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1},
                                edge - std::min<std::uint64_t>(edge, 1),
                                edge, edge + 1, edge + 2, top - 1,
                                top}) {
            x = std::min(x, top);
            const bool expected = (double)x * 0x1.0p-53 < p;
            // The low 11 bits of the draw never matter.
            EXPECT_EQ(threshold.accepts(x << 11), expected)
                << "p " << p << " x " << x;
            EXPECT_EQ(threshold.accepts((x << 11) | 0x7ff), expected)
                << "p " << p << " x " << x;
            seen[expected] = true;
        }
        EXPECT_TRUE(seen[0] && seen[1]) << p;
    }
}
