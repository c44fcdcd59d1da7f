/**
 * @file
 * Tests for the fingerprint cache: exact hits return the stored
 * function without any solver involvement, a truncated sibling
 * profile is a plain miss that solves cold to the same function, the
 * LRU bound evicts in recency order, and the disk round trip
 * preserves both content and recency.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "beer/patterns.hh"
#include "beer/profile.hh"
#include "beer/solver.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "svc/fingerprint_cache.hh"
#include "util/rng.hh"

#include "temp_path.hh"

using namespace beer;
using beer::ecc::LinearCode;
using beer::ecc::equivalent;
using beer::ecc::randomSecCode;
using beer::svc::FingerprintCache;
using beer::svc::FingerprintCacheConfig;
using beer::util::Rng;

namespace
{

MiscorrectionProfile
plantedProfile(const LinearCode &code,
               const std::vector<std::size_t> &charged)
{
    return exhaustiveProfile(code,
                             chargedPatternUnion(code.k(), charged));
}

} // anonymous namespace

TEST(SvcFingerprintCache, ExactHitReturnsStoredFunction)
{
    Rng rng(3);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1});

    FingerprintCache cache;
    EXPECT_EQ(cache.lookup(profile, code.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Miss);

    cache.insert(profile, code.numParityBits(), code);
    const auto hit = cache.lookup(profile, code.numParityBits());
    ASSERT_EQ(hit.kind, FingerprintCache::Hit::Kind::Exact);
    ASSERT_TRUE(hit.code.has_value());
    EXPECT_TRUE(*hit.code == code);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.exactHits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(SvcFingerprintCache, FingerprintIsPatternOrderIndependent)
{
    Rng rng(4);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1});

    MiscorrectionProfile shuffled = profile;
    std::mt19937 gen(99);
    std::shuffle(shuffled.patterns.begin(), shuffled.patterns.end(),
                 gen);

    EXPECT_EQ(FingerprintCache::fingerprint(profile,
                                            code.numParityBits()),
              FingerprintCache::fingerprint(shuffled,
                                            code.numParityBits()));

    FingerprintCache cache;
    cache.insert(profile, code.numParityBits(), code);
    EXPECT_EQ(cache.lookup(shuffled, code.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Exact);
}

TEST(SvcFingerprintCache, DimensionsKeyTheFingerprint)
{
    Rng rng(5);
    const LinearCode code = randomSecCode(8, rng);
    const MiscorrectionProfile profile = plantedProfile(code, {1});

    FingerprintCache cache;
    cache.insert(profile, code.numParityBits(), code);
    // Same patterns under a different parity-bit count is a different
    // recovery problem — must not hit.
    EXPECT_EQ(cache.lookup(profile, code.numParityBits() + 1).kind,
              FingerprintCache::Hit::Kind::Miss);
}

TEST(SvcFingerprintCache, TruncatedSiblingMissesAndSolvesCold)
{
    // A sibling chip measured with two patterns fewer shares all but
    // two lines with the cached entry, yet it is a different profile:
    // a plain miss, answered by a cold solve to the same function.
    Rng rng(7);
    const LinearCode code = randomSecCode(16, rng);
    const std::size_t parity = code.numParityBits();
    const MiscorrectionProfile full = plantedProfile(code, {1, 2});
    MiscorrectionProfile truncated = full;
    truncated.patterns.resize(truncated.patterns.size() - 2);

    FingerprintCache cache;
    cache.insert(full, parity, code);
    const auto hit = cache.lookup(truncated, parity);
    EXPECT_EQ(hit.kind, FingerprintCache::Hit::Kind::Miss);
    EXPECT_FALSE(hit.code.has_value());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.nearHits, 0u);

    BeerSolverConfig config;
    config.maxSolutions = 16;
    const BeerSolveResult cold =
        solveForEccFunction(truncated, parity, config);
    ASSERT_TRUE(cold.unique());
    EXPECT_TRUE(equivalent(cold.solutions.front(), code));
}

TEST(SvcFingerprintCache, LruEvictsLeastRecentlyUsed)
{
    Rng rng(11);
    const LinearCode a = randomSecCode(6, rng);
    const LinearCode b = randomSecCode(6, rng);
    const LinearCode c = randomSecCode(6, rng);
    const MiscorrectionProfile pa = plantedProfile(a, {1});
    const MiscorrectionProfile pb = plantedProfile(b, {1});
    const MiscorrectionProfile pc = plantedProfile(c, {1});
    ASSERT_NE(FingerprintCache::fingerprint(pa, a.numParityBits()),
              FingerprintCache::fingerprint(pb, b.numParityBits()));

    FingerprintCacheConfig config;
    config.capacity = 2;
    FingerprintCache cache(config);

    cache.insert(pa, a.numParityBits(), a);
    cache.insert(pb, b.numParityBits(), b);
    // Touch A so B becomes the eviction candidate.
    EXPECT_EQ(cache.lookup(pa, a.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Exact);
    cache.insert(pc, c.numParityBits(), c);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup(pa, a.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Exact);
    EXPECT_EQ(cache.lookup(pb, b.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Miss);
    EXPECT_EQ(cache.lookup(pc, c.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Exact);
}

TEST(SvcFingerprintCache, PersistenceRoundTripPreservesRecency)
{
    Rng rng(13);
    const LinearCode a = randomSecCode(6, rng);
    const LinearCode b = randomSecCode(6, rng);
    const LinearCode c = randomSecCode(6, rng);
    const MiscorrectionProfile pa = plantedProfile(a, {1});
    const MiscorrectionProfile pb = plantedProfile(b, {1});
    const MiscorrectionProfile pc = plantedProfile(c, {1});

    FingerprintCacheConfig config;
    config.capacity = 2;
    config.path = test::tempPath("fpcache.txt");

    {
        FingerprintCache cache(config);
        cache.insert(pa, a.numParityBits(), a);
        cache.insert(pb, b.numParityBits(), b);
        ASSERT_TRUE(cache.flushToDisk());
    }

    FingerprintCache reloaded(config);
    ASSERT_TRUE(reloaded.loadFromDisk());
    EXPECT_EQ(reloaded.stats().loadedEntries, 2u);

    // A was inserted first (LRU after reload, with no touches since):
    // inserting C must evict A, not B — the reload preserved recency.
    reloaded.insert(pc, c.numParityBits(), c);
    EXPECT_EQ(reloaded.lookup(pa, a.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Miss);
    const auto hit = reloaded.lookup(pb, b.numParityBits());
    ASSERT_EQ(hit.kind, FingerprintCache::Hit::Kind::Exact);
    EXPECT_TRUE(*hit.code == b);
    EXPECT_EQ(reloaded.lookup(pc, c.numParityBits()).kind,
              FingerprintCache::Hit::Kind::Exact);

    std::remove(config.path.c_str());
}

TEST(SvcFingerprintCache, CorruptPersistenceFileIsIgnored)
{
    FingerprintCacheConfig config;
    config.path = test::tempPath("fpcache.txt");
    {
        std::FILE *f = std::fopen(config.path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("not a cache file\n", f);
        std::fclose(f);
    }
    FingerprintCache cache(config);
    EXPECT_FALSE(cache.loadFromDisk());
    EXPECT_EQ(cache.size(), 0u);
    std::remove(config.path.c_str());
}
