#include "sim/word_sim.hh"

#include <algorithm>

#include "ecc/bitsliced.hh"
#include "sim/engine.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace beer::sim
{

using gf2::BitVec;

void
WordSimStats::merge(const WordSimStats &other)
{
    auto merge_vec = [](std::vector<std::uint64_t> &dst,
                        const std::vector<std::uint64_t> &src) {
        if (dst.size() < src.size())
            dst.resize(src.size(), 0);
        for (std::size_t i = 0; i < src.size(); ++i)
            dst[i] += src[i];
    };
    merge_vec(preCorrectionErrors, other.preCorrectionErrors);
    merge_vec(postCorrectionErrors, other.postCorrectionErrors);
    merge_vec(outcomes, other.outcomes);
    wordsSimulated += other.wordsSimulated;
    wordsWithRawErrors += other.wordsWithRawErrors;
}

namespace
{

constexpr std::size_t kNumOutcomes = 6;

WordSimStats
emptyStats(std::size_t n, std::size_t k, std::uint64_t num_words)
{
    WordSimStats stats;
    stats.preCorrectionErrors.assign(n, 0);
    stats.postCorrectionErrors.assign(k, 0);
    stats.outcomes.assign(kNumOutcomes, 0);
    stats.wordsSimulated = num_words;
    return stats;
}

/**
 * Deterministic sharded driver: fork one Rng stream per fixed-size
 * shard (in shard order), run shards on the pool, and merge stats in
 * shard order. The thread count affects scheduling only, and the
 * SIMD backend (which sizes the in-shard lane groups) only changes
 * how erroneous words are grouped for decoding — never what any word
 * decodes to — so stats are bit-identical across thread counts AND
 * backends. The kernels decode error patterns, not codewords: for a
 * linear code the outcome depends on the error alone.
 */
WordSimStats
simulateSharded(const ecc::LinearCode &code,
                const std::vector<std::size_t> &vulnerable,
                double per_bit_p, std::uint64_t num_words,
                util::Rng &rng, const SimConfig &config)
{
    if (vulnerable.empty() || per_bit_p <= 0.0 || num_words == 0) {
        WordSimStats stats =
            emptyStats(code.n(), code.k(), num_words);
        stats.outcomes[(std::size_t)ecc::DecodeOutcome::NoError] =
            num_words;
        return stats;
    }
    const double p = std::min(per_bit_p, 1.0);

    const std::uint64_t shard_words =
        std::max<std::uint64_t>(1, config.wordsPerShard);
    const std::size_t num_shards =
        (std::size_t)((num_words + shard_words - 1) / shard_words);

    std::vector<util::Rng> shard_rngs;
    shard_rngs.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s)
        shard_rngs.push_back(rng.fork());

    // Built once and shared read-only by every worker; the kernel
    // table is resolved once per call (config, then BEER_SIMD, then
    // CPUID), never per shard.
    const ecc::BitslicedDecoder decoder(code);
    const EngineKernel &kernel = engineKernel(config.simdBackend);

    std::vector<WordSimStats> shard_stats(num_shards);
    auto run_shard = [&](std::size_t s) {
        const std::uint64_t begin = (std::uint64_t)s * shard_words;
        const std::uint64_t count =
            std::min<std::uint64_t>(shard_words, num_words - begin);
        shard_stats[s] = kernel.simulateShard(decoder, vulnerable, p,
                                              count, shard_rngs[s]);
    };

    if (config.pool && num_shards > 1) {
        config.pool->parallelFor(num_shards, run_shard);
    } else if (config.threads == 1 || num_shards == 1) {
        for (std::size_t s = 0; s < num_shards; ++s)
            run_shard(s);
    } else {
        util::ThreadPool pool(config.threads);
        pool.parallelFor(num_shards, run_shard);
    }

    WordSimStats total = std::move(shard_stats[0]);
    for (std::size_t s = 1; s < num_shards; ++s)
        total.merge(shard_stats[s]);
    return total;
}

} // anonymous namespace

WordSimStats
simulateUniformErrors(const ecc::LinearCode &code, const BitVec &dataword,
                      double rber, std::uint64_t num_words,
                      util::Rng &rng, const SimConfig &config)
{
    BEER_ASSERT(dataword.size() == code.k());
    std::vector<std::size_t> all_positions(code.n());
    for (std::size_t i = 0; i < code.n(); ++i)
        all_positions[i] = i;
    return simulateSharded(code, all_positions, rber, num_words, rng,
                           config);
}

WordSimStats
simulateRetentionErrors(const ecc::LinearCode &code, const BitVec &codeword,
                        const BitVec &charged_mask, double ber,
                        std::uint64_t num_words, util::Rng &rng,
                        const SimConfig &config)
{
    BEER_ASSERT(codeword.size() == code.n());
    BEER_ASSERT(charged_mask.size() == code.n());
    return simulateSharded(code, charged_mask.support(), ber, num_words,
                           rng, config);
}

gf2::BitVec
chargedMask(const BitVec &codeword, dram::CellType cell_type)
{
    BitVec mask(codeword.size());
    for (std::size_t i = 0; i < codeword.size(); ++i) {
        if (dram::chargeOf(codeword.get(i), cell_type) ==
            dram::ChargeState::Charged) {
            mask.set(i, true);
        }
    }
    return mask;
}

} // namespace beer::sim
