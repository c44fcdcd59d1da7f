/**
 * @file
 * Differential suite for the transposed (bit-plane) chip storage.
 *
 * ChipStorage::Scalar — the legacy one-BitVec-per-word layout — is
 * the behavioral reference: with the same configuration and seed (and
 * skip-sampled injection, the mode whose Rng stream is layout-
 * independent), a transposed chip must be externally indistinguishable
 * from a scalar one. The suite pins
 *
 *  - pauseRefresh error patterns (iid, repeatable per-cell, and VRT
 *    modes) cell for cell via storedCodeword;
 *  - reads — sequential readDataword, batched readDatawords, the
 *    planar frame readDatawordsPlanar serves, and the transient-noise
 *    Rng stream shared by all three;
 *  - the byte read-modify-write path (which must not scrub errors);
 *  - measureProfile counts, including SIMD-backend and thread-count
 *    invariance and trace record/replay round-trips;
 *  - the beep::MemoryWordUnderTest adapter;
 *
 * against the scalar chip for every byte-aligned word size, and the
 * TransposedCellStore itself against a scalar BitVec model for the
 * non-byte-aligned codes (k = 4, 57) a chip's address map cannot
 * host. Bernoulli-mask injection draws a different (plane-major) Rng
 * stream by design, so its tests assert backend/thread invariance and
 * distribution, not pattern equality with skip-sampling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "beep/beep.hh"
#include "beep/word_under_test.hh"
#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "dram/cell_store.hh"
#include "dram/chip.hh"
#include "dram/trace.hh"
#include "ecc/hamming.hh"
#include "util/rng.hh"
#include "util/simd.hh"

#include "scalar_only.hh"

using namespace beer;
using dram::CellType;
using dram::ChipConfig;
using dram::ChipStorage;
using dram::InjectionMode;
using dram::makeVendorConfig;
using dram::SimulatedChip;
using dram::TransposedCellStore;
using gf2::BitVec;
using util::Rng;
using util::simd::Backend;

namespace
{

/** Chip-hostable word sizes (the address map is byte-granular). */
constexpr std::size_t kChipWordSizes[] = {8, 16, 32};

/** Store-level word sizes, including the non-byte-aligned ones. */
constexpr std::size_t kStoreWordSizes[] = {4, 8, 16, 32, 57};

/**
 * Vendor-@p vendor chip crossing lane-word boundaries: 101 rows x 2
 * words = 202 words (three full uint64 lanes plus a 10-word tail).
 */
ChipConfig
diffConfig(char vendor, std::size_t k, std::uint64_t seed)
{
    ChipConfig config = makeVendorConfig(vendor, k, seed);
    config.map.rows = 101;
    return config;
}

BitVec
randomData(std::size_t k, Rng &rng)
{
    BitVec data(k);
    for (std::size_t i = 0; i < k; ++i)
        data.set(i, rng.bernoulli(0.5));
    return data;
}

/** Program every word with a (deterministic) per-word random value. */
void
scatterWrite(SimulatedChip &chip, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t w = 0; w < chip.numWords(); ++w)
        chip.writeDataword(w, randomData(chip.datawordBits(), rng));
}

/** All storedCodeword views of two chips agree. */
void
expectSameCells(SimulatedChip &a, SimulatedChip &b)
{
    ASSERT_EQ(a.numWords(), b.numWords());
    for (std::size_t w = 0; w < a.numWords(); ++w)
        ASSERT_EQ(a.storedCodeword(w), b.storedCodeword(w))
            << "word " << w;
}

bool
countsEqual(const ProfileCounts &a, const ProfileCounts &b)
{
    return a.k == b.k && a.patterns == b.patterns &&
           a.errorCounts == b.errorCounts &&
           a.wordsTested == b.wordsTested;
}

} // anonymous namespace

// ---- store-level differential (covers k the chip cannot host) ------

TEST(TransposedStore, GatherScatterRoundTripsEveryWordSize)
{
    for (const std::size_t k : kStoreWordSizes) {
        Rng rng(0x5709 + k);
        const ecc::LinearCode code = ecc::randomSecCode(k, rng);
        const std::size_t n = code.n();
        const std::size_t num_words = 203;
        // Anti cells in every fourth word to exercise the anti mask.
        TransposedCellStore store(num_words, n, [](std::size_t w) {
            return w % 4 == 3 ? CellType::Anti : CellType::True;
        });

        std::vector<BitVec> model(num_words);
        for (std::size_t w = 0; w < num_words; ++w) {
            model[w] = code.encode(randomData(k, rng));
            store.writeWord(w, model[w]);
        }
        for (std::size_t w = 0; w < num_words; ++w) {
            ASSERT_EQ(store.storedWord(w), model[w]) << "word " << w;
            const bool anti = w % 4 == 3;
            for (std::size_t pos = 0; pos < n; ++pos)
                ASSERT_EQ(store.chargedBit(w, pos),
                          model[w].get(pos) != anti)
                    << "word " << w << " pos " << pos;
        }

        // decayBit flips exactly the addressed cell.
        store.decayBit(7, n / 2);
        BitVec flipped = model[7];
        flipped.flip(n / 2);
        EXPECT_EQ(store.storedWord(7), flipped);
        EXPECT_EQ(store.storedWord(8), model[8]);
    }
}

TEST(TransposedStore, DeterministicDecayMatchesScalarModel)
{
    for (const std::size_t k : kStoreWordSizes) {
        Rng rng(0xdead + k);
        const ecc::LinearCode code = ecc::randomSecCode(k, rng);
        const std::size_t n = code.n();
        const std::size_t num_words = 130;
        auto type_of = [](std::size_t w) {
            return w % 3 == 1 ? CellType::Anti : CellType::True;
        };
        TransposedCellStore store(num_words, n, type_of);
        std::vector<BitVec> model(num_words);
        for (std::size_t w = 0; w < num_words; ++w) {
            model[w] = code.encode(randomData(k, rng));
            store.writeWord(w, model[w]);
        }

        // A pure predicate of the cell id, like retention + VRT.
        auto fails = [](std::uint64_t cell_id) {
            std::uint64_t x = cell_id * 0x9e3779b97f4a7c15ULL;
            x ^= x >> 33;
            return (x & 7) == 0;
        };

        // Scalar reference: word-major loop over CHARGED cells.
        std::uint64_t expected_errors = 0;
        for (std::size_t w = 0; w < num_words; ++w) {
            const bool anti = type_of(w) == CellType::Anti;
            for (std::size_t pos = 0; pos < n; ++pos) {
                if (model[w].get(pos) == anti)
                    continue; // DISCHARGED
                if (fails((std::uint64_t)w * n + pos)) {
                    model[w].flip(pos);
                    ++expected_errors;
                }
            }
        }

        const std::uint64_t errors =
            store.decayDeterministic(0, num_words, fails);
        EXPECT_EQ(errors, expected_errors);
        for (std::size_t w = 0; w < num_words; ++w)
            ASSERT_EQ(store.storedWord(w), model[w])
                << "k " << k << " word " << w;
    }
}

TEST(TransposedStore, SkipSampledDecayMatchesScalarModel)
{
    for (const std::size_t k : kStoreWordSizes) {
        Rng rng(0xface + k);
        const ecc::LinearCode code = ecc::randomSecCode(k, rng);
        const std::size_t n = code.n();
        const std::size_t num_words = 130;
        TransposedCellStore store(num_words, n, [](std::size_t) {
            return CellType::True;
        });
        std::vector<BitVec> model(num_words);
        for (std::size_t w = 0; w < num_words; ++w) {
            model[w] = code.encode(randomData(k, rng));
            store.writeWord(w, model[w]);
        }

        // Scalar reference: same sampler over the same word-major
        // grid, consuming an identically seeded Rng.
        const double ber = 0.07;
        Rng store_rng(99);
        Rng model_rng(99);
        std::uint64_t expected_errors = 0;
        const util::GeometricSampler candidates(ber);
        candidates.forEach(
            model_rng, (std::uint64_t)num_words * n,
            [&](std::uint64_t cell) {
                const std::size_t w = (std::size_t)(cell / n);
                const std::size_t pos = (std::size_t)(cell % n);
                if (model[w].get(pos)) { // CHARGED (all true cells)
                    model[w].flip(pos);
                    ++expected_errors;
                }
            });

        const std::uint64_t errors =
            store.decaySkipSampled(0, num_words, ber, store_rng);
        EXPECT_EQ(errors, expected_errors);
        EXPECT_GT(errors, 0u);
        for (std::size_t w = 0; w < num_words; ++w)
            ASSERT_EQ(store.storedWord(w), model[w])
                << "k " << k << " word " << w;
    }
}

TEST(TransposedStore, BernoulliDecayOnlyFlipsChargedCells)
{
    Rng rng(0xb00);
    const ecc::LinearCode code = ecc::randomSecCode(16, rng);
    const std::size_t n = code.n();
    const std::size_t num_words = 203;
    TransposedCellStore store(num_words, n, [](std::size_t w) {
        return w % 2 ? CellType::Anti : CellType::True;
    });
    std::vector<BitVec> before(num_words);
    for (std::size_t w = 0; w < num_words; ++w) {
        before[w] = code.encode(randomData(16, rng));
        store.writeWord(w, before[w]);
    }

    Rng decay_rng(4242);
    const std::uint64_t errors =
        store.decayBernoulli(0, num_words, 0.2, decay_rng);
    EXPECT_GT(errors, 0u);

    std::uint64_t flipped = 0;
    for (std::size_t w = 0; w < num_words; ++w) {
        const bool anti = w % 2;
        const BitVec after = store.storedWord(w);
        for (std::size_t pos = 0; pos < n; ++pos) {
            if (after.get(pos) == before[w].get(pos))
                continue;
            ++flipped;
            // Only CHARGED cells may decay, and decay discharges.
            EXPECT_EQ(before[w].get(pos), !anti)
                << "word " << w << " pos " << pos;
        }
    }
    EXPECT_EQ(flipped, errors);
}

TEST(TransposedStore, BernoulliDecayMatchesItsRate)
{
    Rng rng(0xbe5);
    const std::size_t n = 39;
    const std::size_t num_words = 640;
    TransposedCellStore store(num_words, n, [](std::size_t) {
        return CellType::True;
    });
    // Every cell CHARGED: each of the num_words * n cells is an
    // independent Bernoulli(p) trial.
    store.broadcastWriteAll(BitVec::ones(n));

    const double p = 0.1;
    const double total = (double)num_words * n;
    const std::uint64_t errors =
        store.decayBernoulli(0, num_words, p, rng);
    // 5 sigma around the binomial mean.
    const double sigma = std::sqrt(total * p * (1.0 - p));
    EXPECT_NEAR((double)errors, total * p, 5.0 * sigma);

    // Degenerate rates draw nothing from the Rng stream.
    TransposedCellStore empty(128, 8, [](std::size_t) {
        return CellType::True;
    });
    empty.broadcastWriteAll(BitVec::ones(8));
    Rng no_draws(1);
    EXPECT_EQ(empty.decayBernoulli(0, 128, 0.0, no_draws), 0u);
    EXPECT_EQ(empty.decayBernoulli(0, 128, 1.0, no_draws),
              (std::uint64_t)128 * 8);
    Rng untouched(1);
    EXPECT_EQ(no_draws.next(), untouched.next());
}

// ---- chip-level differential (transposed vs scalar storage) --------

TEST(TransposedChip, IidPauseRefreshMatchesScalarStorage)
{
    for (const std::size_t k : kChipWordSizes) {
        for (const char vendor : {'A', 'C'}) {
            ChipConfig config = diffConfig(vendor, k, 0x11 + k);
            config.iidErrors = true;
            config.injection = InjectionMode::SkipSample;

            ChipConfig scalar = config;
            scalar.storage = ChipStorage::Scalar;
            SimulatedChip ref(scalar);
            SimulatedChip transposed(config);

            scatterWrite(ref, 7);
            scatterWrite(transposed, 7);
            const double pause =
                ref.retentionModel().pauseForBitErrorRate(0.05, 80.0);
            for (int round = 0; round < 3; ++round) {
                ref.pauseRefresh(pause, 80.0);
                transposed.pauseRefresh(pause, 80.0);
            }
            EXPECT_GT(ref.rawErrorCount(), 0u);
            EXPECT_EQ(ref.rawErrorCount(), transposed.rawErrorCount());
            expectSameCells(ref, transposed);
        }
    }
}

TEST(TransposedChip, RepeatableAndVrtPauseRefreshMatchesScalarStorage)
{
    for (const std::size_t k : kChipWordSizes) {
        for (const char vendor : {'A', 'C'}) {
            ChipConfig config = diffConfig(vendor, k, 0x22 + k);
            config.iidErrors = false;
            config.vrtRate = 0.01;
            config.threads = 4;

            ChipConfig scalar = config;
            scalar.storage = ChipStorage::Scalar;
            SimulatedChip ref(scalar);
            SimulatedChip transposed(config);

            scatterWrite(ref, 13);
            scatterWrite(transposed, 13);
            const double pause =
                ref.retentionModel().pauseForBitErrorRate(0.1, 80.0);
            // Distinct pause epochs select distinct VRT subsets; both
            // layouts must track them.
            for (int round = 0; round < 3; ++round) {
                ref.pauseRefresh(pause, 80.0);
                transposed.pauseRefresh(pause, 80.0);
            }
            EXPECT_GT(ref.rawErrorCount(), 0u);
            EXPECT_EQ(ref.rawErrorCount(), transposed.rawErrorCount());
            expectSameCells(ref, transposed);
        }
    }
}

TEST(TransposedChip, ReadsMatchScalarStorageIncludingNoiseStream)
{
    for (const std::size_t k : kChipWordSizes) {
        ChipConfig config = diffConfig('A', k, 0x33 + k);
        config.iidErrors = true;
        config.injection = InjectionMode::SkipSample;
        config.transientErrorRate = 0.01;

        ChipConfig scalar = config;
        scalar.storage = ChipStorage::Scalar;
        SimulatedChip ref(scalar);
        SimulatedChip batched(config);
        SimulatedChip sequential(config);

        const double pause =
            ref.retentionModel().pauseForBitErrorRate(0.05, 80.0);
        for (SimulatedChip *chip : {&ref, &batched, &sequential}) {
            scatterWrite(*chip, 29);
            chip->pauseRefresh(pause, 80.0);
        }

        std::vector<std::size_t> words(ref.numWords());
        for (std::size_t w = 0; w < words.size(); ++w)
            words[w] = w;
        std::vector<BitVec> batch;
        batched.readDatawords(words.data(), words.size(), batch);
        ASSERT_EQ(batch.size(), words.size());
        for (std::size_t w = 0; w < words.size(); ++w) {
            // One noise stream, three consumers: the scalar chip, the
            // transposed batched read, and the transposed sequential
            // read must all produce the same noisy results.
            const BitVec expected = ref.readDataword(w);
            ASSERT_EQ(batch[w], expected) << "k " << k << " word " << w;
            ASSERT_EQ(sequential.readDataword(w), expected)
                << "k " << k << " word " << w;
        }
    }
}

TEST(TransposedChip, ShardedNoiseFreeReadsMatchSequential)
{
    ChipConfig config = diffConfig('A', 16, 0x44);
    config.iidErrors = true;
    config.injection = InjectionMode::SkipSample;
    config.threads = 4;
    SimulatedChip chip(config);
    scatterWrite(chip, 31);
    chip.pauseRefresh(
        chip.retentionModel().pauseForBitErrorRate(0.1, 80.0), 80.0);

    // Unsorted word list: batching must preserve input order.
    std::vector<std::size_t> words;
    for (std::size_t w = chip.numWords(); w-- > 0;)
        words.push_back(w);
    std::vector<BitVec> batch;
    chip.readDatawords(words.data(), words.size(), batch);
    ASSERT_EQ(batch.size(), words.size());
    for (std::size_t i = 0; i < words.size(); ++i)
        ASSERT_EQ(batch[i], chip.readDataword(words[i]))
            << "word " << words[i];
}

TEST(TransposedChip, ByteInterfaceMatchesScalarStorage)
{
    ChipConfig config = diffConfig('C', 16, 0x55);
    config.iidErrors = true;
    config.injection = InjectionMode::SkipSample;

    ChipConfig scalar = config;
    scalar.storage = ChipStorage::Scalar;
    SimulatedChip ref(scalar);
    SimulatedChip transposed(config);

    // Inject errors first: the byte read-modify-write path must merge
    // raw data without scrubbing them, identically in both layouts.
    for (SimulatedChip *chip : {&ref, &transposed}) {
        chip->fill(0xFF);
        chip->pauseRefresh(
            chip->retentionModel().pauseForBitErrorRate(0.1, 80.0),
            80.0);
    }
    Rng rng(71);
    for (int i = 0; i < 200; ++i) {
        const std::size_t addr = rng.below(ref.numBytes());
        const auto value = (std::uint8_t)rng.below(256);
        ref.writeByte(addr, value);
        transposed.writeByte(addr, value);
    }
    for (std::size_t addr = 0; addr < ref.numBytes(); ++addr)
        ASSERT_EQ(ref.readByte(addr), transposed.readByte(addr))
            << "byte " << addr;
    expectSameCells(ref, transposed);
}

TEST(TransposedChip, BroadcastWriteMatchesPerWordWrites)
{
    ChipConfig config = diffConfig('A', 8, 0x66);
    SimulatedChip broadcast(config);
    SimulatedChip loop(config);

    // Error state on both chips; the broadcast must clear it only on
    // the written words.
    for (SimulatedChip *chip : {&broadcast, &loop}) {
        chip->fill(0xFF);
        chip->pauseRefresh(
            chip->retentionModel().pauseForBitErrorRate(0.2, 80.0),
            80.0);
    }
    expectSameCells(broadcast, loop);

    std::vector<std::size_t> words;
    for (std::size_t w = 0; w < broadcast.numWords(); w += 3)
        words.push_back(w);
    Rng data_rng(5);
    const BitVec data = randomData(8, data_rng);
    broadcast.writeDatawordsBroadcast(words.data(), words.size(), data);
    for (const std::size_t w : words)
        loop.writeDataword(w, data);
    expectSameCells(broadcast, loop);
}

TEST(TransposedChip, MeasureProfileMatchesScalarStorage)
{
    for (const std::size_t k : kChipWordSizes) {
        ChipConfig config = diffConfig('A', k, 0x77 + k);
        config.iidErrors = true;
        config.injection = InjectionMode::SkipSample;

        MeasureConfig measure;
        measure.pausesSeconds.clear();
        measure.repeatsPerPause = 3;
        const auto patterns = chargedPatternUnion(k, {1, 2});

        ChipConfig scalar = config;
        scalar.storage = ChipStorage::Scalar;
        SimulatedChip ref_chip(scalar);
        for (double ber : {0.05, 0.15})
            measure.pausesSeconds.push_back(
                ref_chip.retentionModel().pauseForBitErrorRate(ber,
                                                               80.0));
        const ProfileCounts ref =
            measureProfile(ref_chip, patterns, measure);
        EXPECT_GT(ref.totalObservations(), 0u);

        // The transposed chip must reproduce the counts for every
        // SIMD width and thread count (portable fallbacks make the
        // sweep meaningful on any host).
        for (const Backend backend :
             {Backend::U64x1, Backend::U64x2, Backend::U64x4,
              Backend::U64x8}) {
            for (const std::size_t threads : {1u, 4u}) {
                ChipConfig wide = config;
                wide.simdBackend = backend;
                wide.threads = threads;
                SimulatedChip chip(wide);
                const ProfileCounts counts =
                    measureProfile(chip, patterns, measure);
                EXPECT_TRUE(countsEqual(ref, counts))
                    << "k " << k << " backend " << (int)backend
                    << " threads " << threads;
            }
        }
    }
}

TEST(TransposedChip, BernoulliInjectionIsBackendAndThreadInvariant)
{
    const std::size_t k = 16;
    ChipConfig config = diffConfig('A', k, 0x88);
    config.iidErrors = true;
    config.injection = InjectionMode::BernoulliMask;

    MeasureConfig measure;
    measure.pausesSeconds.assign(
        1, config.retention.pauseForBitErrorRate(0.1, 80.0));
    const auto patterns = chargedPatterns(k, 1);

    std::optional<ProfileCounts> ref;
    for (const Backend backend :
         {Backend::U64x1, Backend::U64x2, Backend::U64x4,
          Backend::U64x8}) {
        for (const std::size_t threads : {1u, 4u}) {
            ChipConfig run = config;
            run.simdBackend = backend;
            run.threads = threads;
            SimulatedChip chip(run);
            const ProfileCounts counts =
                measureProfile(chip, patterns, measure);
            if (!ref) {
                EXPECT_GT(counts.totalObservations(), 0u);
                ref = counts;
                continue;
            }
            EXPECT_TRUE(countsEqual(*ref, counts))
                << "backend " << (int)backend << " threads "
                << threads;
        }
    }
}

TEST(TransposedChip, TraceRecordReplayRoundTripsAcrossStorage)
{
    const std::size_t k = 16;
    ChipConfig config = diffConfig('A', k, 0x99);
    config.iidErrors = true;
    config.injection = InjectionMode::SkipSample;

    const auto patterns = chargedPatterns(k, 1);
    MeasureConfig measure;
    measure.repeatsPerPause = 2;

    // Record the same measurement against both layouts: because the
    // batched seams are observationally identical to per-word loops,
    // the recorded traces must match byte for byte.
    auto record = [&](ChipStorage storage, std::ostream &out) {
        ChipConfig run = config;
        run.storage = storage;
        SimulatedChip chip(run);
        measure.pausesSeconds.assign(
            1,
            chip.retentionModel().pauseForBitErrorRate(0.08, 80.0));
        return recordProfileTrace(chip, patterns, measure, {}, out);
    };
    std::ostringstream scalar_trace;
    const ProfileCounts scalar_counts =
        record(ChipStorage::Scalar, scalar_trace);
    std::ostringstream transposed_trace;
    const ProfileCounts transposed_counts =
        record(ChipStorage::Transposed, transposed_trace);
    EXPECT_TRUE(countsEqual(scalar_counts, transposed_counts));
    EXPECT_EQ(scalar_trace.str(), transposed_trace.str());

    // And the recorded trace replays to the recorded counts.
    std::istringstream in(transposed_trace.str());
    dram::TraceReplayBackend replay(in);
    const ProfileCounts replayed = replayProfileTrace(replay);
    EXPECT_TRUE(countsEqual(transposed_counts, replayed));
}

TEST(TransposedChip, BeepAdapterMatchesScalarStorage)
{
    // BEEP drives one chip word through write/pause/read cycles; over
    // a transposed chip the profiler must identify the exact same
    // error cells as over the scalar reference.
    ChipConfig config = diffConfig('A', 16, 0xAA);
    config.iidErrors = false;
    config.seed = 17;

    beep::BeepConfig beep_config;
    beep_config.passes = 2;
    beep_config.readsPerPattern = 4;
    beep_config.seed = 11;

    auto profile = [&](ChipStorage storage) {
        ChipConfig run = config;
        run.storage = storage;
        SimulatedChip chip(run);
        const double pause =
            chip.retentionModel().pauseForBitErrorRate(0.15, 80.0);
        beep::MemoryWordUnderTest word(chip, /*word_index=*/3, pause,
                                       80.0);
        beep::Profiler profiler(chip.groundTruthCode(), beep_config);
        return profiler.profile(word);
    };
    const auto ref = profile(ChipStorage::Scalar);
    const auto transposed = profile(ChipStorage::Transposed);
    EXPECT_EQ(ref.errorCells, transposed.errorCells);
    EXPECT_EQ(ref.reads, transposed.reads);
    EXPECT_EQ(ref.informativeReads, transposed.informativeReads);
}

TEST(TransposedChip, AutoInjectionTracksTheCrossoverConstant)
{
    // Auto must resolve to skip-sampling below the measured crossover
    // and Bernoulli masks above it; pinning the mode reproduces each.
    const std::size_t k = 8;
    ChipConfig config = diffConfig('A', k, 0xBB);
    config.iidErrors = true;

    auto errorsAt = [&](InjectionMode mode, double ber) {
        ChipConfig run = config;
        run.injection = mode;
        SimulatedChip chip(run);
        chip.fill(0xFF);
        chip.pauseRefresh(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0),
            80.0);
        return chip.rawErrorCount();
    };
    const double low = dram::kInjectionCrossoverBer / 2.0;
    const double high = dram::kInjectionCrossoverBer * 2.0;
    EXPECT_EQ(errorsAt(InjectionMode::Auto, low),
              errorsAt(InjectionMode::SkipSample, low));
    EXPECT_EQ(errorsAt(InjectionMode::Auto, high),
              errorsAt(InjectionMode::BernoulliMask, high));
}

TEST(TransposedChip, DuplicateWordsInNoisyBatchMatchSequentialReads)
{
    // A batched read list may name the same word twice; with
    // transient noise each occurrence must draw its own flips and
    // decode independently, exactly like sequential readDataword
    // calls (regression: duplicates once shared one perturbed window
    // copy, accumulating both words' flips before a single decode).
    ChipConfig config = diffConfig('A', 16, 0xCC);
    config.iidErrors = true;
    config.injection = InjectionMode::SkipSample;
    config.transientErrorRate = 0.05;

    SimulatedChip batched(config);
    SimulatedChip sequential(config);
    const double pause =
        batched.retentionModel().pauseForBitErrorRate(0.05, 80.0);
    for (SimulatedChip *chip : {&batched, &sequential}) {
        scatterWrite(*chip, 37);
        chip->pauseRefresh(pause, 80.0);
    }

    // Heavy duplication inside and across lane-word windows.
    const std::vector<std::size_t> words = {5, 5, 5, 70, 5, 70, 130,
                                            5, 130, 130, 0, 5};
    std::vector<BitVec> batch;
    batched.readDatawords(words.data(), words.size(), batch);
    ASSERT_EQ(batch.size(), words.size());
    for (std::size_t t = 0; t < words.size(); ++t)
        ASSERT_EQ(batch[t], sequential.readDataword(words[t]))
            << "read " << t << " (word " << words[t] << ")";
}

// ---- planar read frames ----------------------------------------------

namespace
{

/** Datawords of a planar read frame; bits past the count must be 0. */
std::vector<BitVec>
frameWords(const dram::PlanarReadBatch &frame, std::size_t k)
{
    EXPECT_EQ(frame.laneWords, (frame.count + 63) / 64);
    std::vector<BitVec> words(frame.count, BitVec(k));
    for (std::size_t pos = 0; pos < k; ++pos) {
        const std::uint64_t *row = frame.row(pos);
        for (std::size_t t = 0; t < frame.count; ++t)
            words[t].set(pos, (row[t / 64] >> (t % 64)) & 1);
        if (frame.count % 64 != 0) {
            EXPECT_EQ(row[frame.laneWords - 1] >> (frame.count % 64),
                      0u)
                << "tail of row " << pos;
        }
    }
    return words;
}

/**
 * Word lists a batched read must serve in input order: every word,
 * the true-cell words (gapped row blocks on vendor C), reversed,
 * shuffled, duplicated, and a prefix whose count is not a multiple
 * of 64.
 */
std::vector<std::vector<std::size_t>>
readOrders(const SimulatedChip &chip, std::uint64_t seed)
{
    std::vector<std::size_t> all(chip.numWords());
    for (std::size_t w = 0; w < all.size(); ++w)
        all[w] = w;
    const std::vector<std::size_t> sorted = dram::trueCellWords(chip);
    const std::vector<std::size_t> reversed(sorted.rbegin(),
                                            sorted.rend());
    // Scattered lists cost one window decode per read, so they stay
    // short; the full-length orders already span several shards.
    const std::size_t scattered = std::min<std::size_t>(sorted.size(), 3000);
    std::vector<std::size_t> shuffled(sorted.begin(),
                                      sorted.begin() + scattered);
    Rng rng(seed);
    for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    std::vector<std::size_t> duplicated;
    for (std::size_t i = 0; i < scattered; i += 3) {
        duplicated.push_back(sorted[i]);
        duplicated.push_back(sorted[i]);
        duplicated.push_back(sorted[(i * 7) % scattered]);
    }
    const std::vector<std::size_t> ragged(
        sorted.begin(), sorted.begin() + (sorted.size() / 64) * 64 - 23);
    return {all, sorted, reversed, shuffled, duplicated, ragged};
}

/**
 * Program two random datawords over a scrambled split of the words,
 * then inject retention errors at a 5% BER.
 */
void
programAndDecay(SimulatedChip &chip)
{
    Rng rng(41);
    std::vector<std::size_t> halves[2];
    for (std::size_t w = 0; w < chip.numWords(); ++w)
        halves[(w * 0x9e3779b97f4a7c15ULL) >> 63].push_back(w);
    for (const auto &words : halves)
        chip.writeDatawordsBroadcast(
            words.data(), words.size(),
            randomData(chip.datawordBits(), rng));
    chip.pauseRefresh(
        chip.retentionModel().pauseForBitErrorRate(0.05, 80.0), 80.0);
}

constexpr Backend kAllBackends[] = {Backend::U64x1, Backend::U64x2,
                                    Backend::U64x4, Backend::U64x8};

} // anonymous namespace

TEST(TransposedChip, PlanarFrameMatchesBatchedAndSequentialReads)
{
    // Large enough that every vendor's true-cell list (half the words
    // on vendor C) spans two read shards, so 4 threads really shard.
    for (const auto &[vendor, k] :
         {std::pair{'A', 32}, std::pair{'B', 16}, std::pair{'C', 32}}) {
        ChipConfig config = makeVendorConfig(vendor, k, 0xD0 + k);
        config.map.rows = 17000;
        config.iidErrors = true;
        config.injection = InjectionMode::SkipSample;

        // Sequential readDataword results (noise-free, so one read per
        // word serves every order), as datawords and as the frame a
        // planar read must serve (tail bits zero).
        SimulatedChip reference(config);
        programAndDecay(reference);
        std::vector<BitVec> sequential;
        for (std::size_t w = 0; w < reference.numWords(); ++w)
            sequential.push_back(reference.readDataword(w));
        const auto orders = readOrders(reference, 0xD1);
        ASSERT_GE(orders[1].size(), 2u * 8192u) << vendor;
        std::vector<std::vector<BitVec>> expected;
        std::vector<std::vector<std::uint64_t>> expected_frames;
        for (const auto &words : orders) {
            const std::size_t lanes = (words.size() + 63) / 64;
            expected.emplace_back();
            expected_frames.emplace_back(k * lanes, 0);
            for (std::size_t t = 0; t < words.size(); ++t) {
                expected.back().push_back(sequential[words[t]]);
                for (std::size_t pos = 0; pos < (std::size_t)k; ++pos)
                    if (expected.back().back().get(pos))
                        expected_frames.back()[pos * lanes + t / 64] |=
                            (std::uint64_t)1 << (t % 64);
            }
        }

        for (const Backend backend : kAllBackends) {
            for (const std::size_t threads : {1u, 4u}) {
                ChipConfig run = config;
                run.simdBackend = backend;
                run.threads = threads;
                SimulatedChip chip(run);
                programAndDecay(chip);
                for (std::size_t o = 0; o < orders.size(); ++o) {
                    const auto &words = orders[o];
                    SCOPED_TRACE(testing::Message()
                                 << vendor << " backend " << (int)backend
                                 << " threads " << threads << " order "
                                 << o);
                    dram::PlanarReadBatch frame;
                    ASSERT_TRUE(chip.readDatawordsPlanar(
                        words.data(), words.size(), frame));
                    ASSERT_EQ(frame.count, words.size());
                    ASSERT_EQ(frame.laneWords, (words.size() + 63) / 64);
                    for (std::size_t pos = 0; pos < (std::size_t)k;
                         ++pos)
                        ASSERT_TRUE(std::equal(
                            frame.row(pos),
                            frame.row(pos) + frame.laneWords,
                            &expected_frames[o][pos * frame.laneWords]))
                            << "row " << pos;
                    std::vector<BitVec> batch;
                    chip.readDatawords(words.data(), words.size(),
                                       batch);
                    ASSERT_TRUE(batch == expected[o]);
                }
            }
        }
    }
}

TEST(TransposedChip, NoisyPlanarFrameKeepsTheSequentialRngStream)
{
    for (const char vendor : {'A', 'B', 'C'}) {
        ChipConfig config = diffConfig(vendor, 16, 0xE0 + vendor);
        config.iidErrors = true;
        config.injection = InjectionMode::SkipSample;
        config.transientErrorRate = 0.02;

        for (const Backend backend : kAllBackends) {
            for (const std::size_t threads : {1u, 4u}) {
                ChipConfig run = config;
                run.simdBackend = backend;
                run.threads = threads;
                SimulatedChip planar(run);
                SimulatedChip batched(run);
                SimulatedChip sequential(run);
                for (SimulatedChip *chip :
                     {&planar, &batched, &sequential})
                    programAndDecay(*chip);

                // The three chips share one noise stream: each order
                // must read identically, and consume the same draws.
                for (const auto &words : readOrders(planar, 0xE1)) {
                    dram::PlanarReadBatch frame;
                    ASSERT_TRUE(planar.readDatawordsPlanar(
                        words.data(), words.size(), frame));
                    const std::vector<BitVec> from_frame =
                        frameWords(frame, 16);
                    std::vector<BitVec> batch;
                    batched.readDatawords(words.data(), words.size(),
                                          batch);
                    for (std::size_t t = 0; t < words.size(); ++t) {
                        const BitVec expected =
                            sequential.readDataword(words[t]);
                        ASSERT_EQ(from_frame[t], expected)
                            << vendor << " read " << t;
                        ASSERT_EQ(batch[t], expected)
                            << vendor << " read " << t;
                    }
                }

                // Rng state afterwards: equal streams keep drawing the
                // same transient flips and the same forked shard
                // streams in the next refresh pause.
                for (std::size_t w = 0; w < planar.numWords(); ++w) {
                    const BitVec expected = sequential.readDataword(w);
                    ASSERT_EQ(planar.readDataword(w), expected) << w;
                    ASSERT_EQ(batched.readDataword(w), expected) << w;
                }
                for (SimulatedChip *chip : {&planar, &batched})
                    ASSERT_EQ(chip->rawErrorCount(),
                              sequential.rawErrorCount());
                for (SimulatedChip *chip :
                     {&planar, &batched, &sequential})
                    programAndDecay(*chip);
                expectSameCells(planar, sequential);
                expectSameCells(batched, sequential);
            }
        }
    }
}

TEST(TransposedChip, ScalarStorageDeclinesPlanarReads)
{
    ChipConfig config = diffConfig('A', 16, 0xE8);
    config.storage = ChipStorage::Scalar;
    config.transientErrorRate = 0.02;
    SimulatedChip scalar(config);
    SimulatedChip untouched(config);
    const std::vector<std::size_t> words = {0, 1, 2, 3};
    dram::PlanarReadBatch frame;
    EXPECT_FALSE(
        scalar.readDatawordsPlanar(words.data(), words.size(), frame));
    // No side effects: the noise stream was not consumed.
    for (std::size_t w = 0; w < scalar.numWords(); ++w)
        ASSERT_EQ(scalar.readDataword(w), untouched.readDataword(w));
}

TEST(TransposedChip, TraceBytesDoNotDependOnPlanarReads)
{
    // The recorder writes planar frames as they come for a chip that
    // serves them, and transposes datawords for one that does not;
    // both must produce the same bytes in either trace format.
    for (const char vendor : {'A', 'C'}) {
        for (const dram::TraceFormat format :
             {dram::TraceFormat::V1, dram::TraceFormat::V2}) {
            const std::size_t k = 16;
            ChipConfig config = diffConfig(vendor, k, 0xF0);
            config.iidErrors = true;
            const auto patterns = chargedPatterns(k, 1);
            MeasureConfig measure;
            measure.repeatsPerPause = 2;
            measure.pausesSeconds.assign(
                1, config.retention.pauseForBitErrorRate(0.08, 80.0));
            dram::TraceWriteOptions options;
            options.format = format;

            SimulatedChip served(config);
            std::ostringstream served_trace;
            const ProfileCounts served_counts = recordProfileTrace(
                served, patterns, measure, dram::trueCellWords(served),
                served_trace, options);

            SimulatedChip inner(config);
            test::ScalarOnly declined(inner);
            std::ostringstream declined_trace;
            const ProfileCounts declined_counts = recordProfileTrace(
                declined, patterns, measure, dram::trueCellWords(inner),
                declined_trace, options);

            EXPECT_TRUE(countsEqual(served_counts, declined_counts))
                << vendor;
            EXPECT_EQ(served_trace.str(), declined_trace.str())
                << vendor << " format " << (int)format;
        }
    }
}
