/**
 * @file
 * Tests for the extension features: parity-count inference (recovery
 * with zero prerequisite knowledge), stuck-at fault profiling
 * (Section 7.1.5), VRT noise robustness (Section 5.2), and SAT/GF(2)
 * cross-validation of linear-system solving.
 */

#include <gtest/gtest.h>

#include "beep/beep.hh"
#include "beer/measure.hh"
#include "beer/profile.hh"
#include "beer/solver.hh"
#include "dram/chip.hh"
#include "ecc/code_equiv.hh"
#include "ecc/hamming.hh"
#include "gf2/matrix.hh"
#include "sat/encoder.hh"
#include "util/rng.hh"

using namespace beer;
using beer::ecc::LinearCode;
using beer::ecc::randomSecCode;
using beer::gf2::BitVec;
using beer::gf2::Matrix;
using beer::util::Rng;

// ---- parity-count inference -----------------------------------------

TEST(ParityInference, FindsMinimumParityCount)
{
    Rng rng(3);
    for (std::size_t k : {4u, 8u, 11u, 16u}) {
        const LinearCode code = randomSecCode(k, rng);
        const auto profile =
            exhaustiveProfile(code, chargedPatternUnion(k, {1, 2}));
        const auto inferred = inferEccFunction(profile);
        EXPECT_EQ(inferred.parityBits,
                  ecc::parityBitsForDataBits(k))
            << "k=" << k;
        ASSERT_FALSE(inferred.result.solutions.empty());
        EXPECT_TRUE(ecc::equivalent(inferred.result.solutions[0], code));
    }
}

TEST(ParityInference, LargerParityAlsoAdmitsSolutions)
{
    // The monotonicity property the inference relies on: a profile
    // consistent at p parity bits is consistent at p+1 as well.
    Rng rng(5);
    const LinearCode code = randomSecCode(8, rng);
    const auto profile =
        exhaustiveProfile(code, chargedPatterns(8, 1));
    const auto at_min = solveForEccFunction(
        profile, ecc::parityBitsForDataBits(8));
    const auto at_plus_one = solveForEccFunction(
        profile, ecc::parityBitsForDataBits(8) + 1);
    EXPECT_FALSE(at_min.solutions.empty());
    EXPECT_FALSE(at_plus_one.solutions.empty());
}

TEST(ParityInference, InconsistentProfileYieldsNoParityCount)
{
    // Charging bit 0 miscorrects bit 1 and vice versa: columns 0 and 1
    // would have to be equal, which no SEC code of any size allows.
    // The failure comes back as a value, not a process exit.
    MiscorrectionProfile profile;
    profile.k = 4;
    for (std::size_t c : {0u, 1u}) {
        PatternProfile entry;
        entry.pattern = {c};
        entry.miscorrectable = BitVec(4);
        entry.miscorrectable.set(1 - c, true);
        profile.patterns.push_back(entry);
    }
    const auto inferred = inferEccFunction(profile, 6);
    EXPECT_EQ(inferred.parityBits, 0u);
    EXPECT_TRUE(inferred.result.solutions.empty());
}

// ---- stuck-at faults (Section 7.1.5) ---------------------------------

TEST(StuckAtFaults, IndistinguishableFromCertainRetention)
{
    // The paper: "data-retention errors and stuck-at-DISCHARGED
    // errors" are "nearly indistinguishable". With the same seeds,
    // BEEP must produce identical results for the two fault models.
    Rng rng(7);
    const LinearCode code = randomSecCode(26, rng);
    const std::vector<std::size_t> cells = {3, 14, 28};

    beep::BeepConfig config;
    config.passes = 2;
    config.readsPerPattern = 4;
    config.seed = 11;

    beep::SimulatedWord retention(code, cells, 1.0, 13,
                                  beep::FaultModel::Retention);
    beep::SimulatedWord stuck(code, cells, 0.0, 13,
                              beep::FaultModel::StuckAtDischarged);

    beep::Profiler profiler_a(code, config);
    beep::Profiler profiler_b(code, config);
    const auto result_a = profiler_a.profile(retention);
    const auto result_b = profiler_b.profile(stuck);
    EXPECT_EQ(result_a.errorCells, result_b.errorCells);
    EXPECT_EQ(result_a.errorCells, cells);
}

// ---- VRT noise (Section 5.2) ------------------------------------------

TEST(Vrt, BreaksExactRepeatabilityButNotRecovery)
{
    using dram::Chip;
    using dram::ChipConfig;

    ChipConfig config = dram::makeVendorConfig('A', 8, 21);
    config.map.rows = 64;
    config.vrtRate = 0.01;
    Chip chip(config);

    // Two identical pauses no longer produce identical stored data in
    // the per-cell model (VRT cells re-draw their retention time).
    const BitVec ones = BitVec::ones(chip.datawordBits());
    auto run = [&] {
        std::vector<BitVec> stored;
        for (std::size_t w = 0; w < chip.numWords(); ++w)
            chip.writeDataword(w, ones);
        chip.pauseRefresh(36000.0, 80.0);
        for (std::size_t w = 0; w < chip.numWords(); ++w)
            stored.push_back(chip.storedCodeword(w));
        return stored;
    };
    EXPECT_NE(run(), run());
}

TEST(Vrt, ProfileMeasurementSurvivesVrtNoise)
{
    using dram::Chip;
    using dram::ChipConfig;

    ChipConfig config = dram::makeVendorConfig('A', 8, 23);
    config.map.rows = 64;
    config.iidErrors = true; // iid sampling plus VRT-style noise on top
    config.transientErrorRate = 5e-5;
    Chip chip(config);

    MeasureConfig mc;
    for (double ber : {0.1, 0.2, 0.3})
        mc.pausesSeconds.push_back(
            chip.retentionModel().pauseForBitErrorRate(ber, 80.0));
    mc.repeatsPerPause = 30;

    const auto patterns = chargedPatterns(8, 1);
    const auto counts = measureProfileOnChip(chip, patterns, mc);
    EXPECT_EQ(counts.threshold(5e-3),
              exhaustiveProfile(chip.groundTruthCode(), patterns));
}

// ---- SAT vs GF(2) cross-validation -------------------------------------

TEST(SatGf2, XorSystemsAgreeWithMatrixSolver)
{
    // Random GF(2) linear systems: the SAT encoder's XOR constraints
    // and the dense matrix solver must agree on satisfiability, and
    // SAT models must satisfy the system.
    Rng rng(31);
    int sat_count = 0;
    int unsat_count = 0;
    for (int round = 0; round < 60; ++round) {
        const std::size_t rows = 4 + rng.below(6);
        const std::size_t cols = 3 + rng.below(6);
        const Matrix m = Matrix::random(rows, cols, rng);
        BitVec rhs(rows);
        for (std::size_t r = 0; r < rows; ++r)
            rhs.set(r, rng.bernoulli(0.5));

        sat::Solver solver;
        sat::Encoder enc(solver);
        std::vector<sat::Lit> x;
        for (std::size_t c = 0; c < cols; ++c)
            x.push_back(enc.fresh());
        for (std::size_t r = 0; r < rows; ++r) {
            std::vector<sat::Lit> terms;
            for (std::size_t c = 0; c < cols; ++c)
                if (m.get(r, c))
                    terms.push_back(x[c]);
            enc.require(rhs.get(r) ? enc.mkXor(terms) : ~enc.mkXor(terms));
        }

        const auto matrix_solution = m.solve(rhs);
        const auto sat_result = solver.solve();
        EXPECT_EQ(sat_result == sat::SolveResult::Sat,
                  matrix_solution.has_value())
            << "round " << round;
        if (sat_result == sat::SolveResult::Sat) {
            ++sat_count;
            BitVec model(cols);
            for (std::size_t c = 0; c < cols; ++c)
                model.set(c, solver.modelValue(x[c].var()));
            EXPECT_EQ(m.mulVec(model), rhs);
        } else {
            ++unsat_count;
        }
    }
    EXPECT_GT(sat_count, 5);
    EXPECT_GT(unsat_count, 5);
}
