/**
 * @file
 * Reference model of the paper's full-sweep BEER recovery (Section
 * 4.2): measure every 1-CHARGED pattern, threshold, solve; if the
 * solution is not unique, measure the whole 2-CHARGED class, merge
 * and solve again. beer::Session's adaptive schedule must recover the
 * same function from fewer experiments.
 */

#ifndef BEER_TESTS_REF_FULL_SWEEP_HH
#define BEER_TESTS_REF_FULL_SWEEP_HH

#include <cstdint>
#include <vector>

#include "beer/measure.hh"
#include "beer/patterns.hh"
#include "beer/solver.hh"
#include "dram/memory_interface.hh"

namespace beer::test::ref
{

/** What a full sweep measured and solved. */
struct FullSweepResult
{
    ProfileCounts counts;
    MiscorrectionProfile profile;
    BeerSolveResult solve;
    /** True iff the 2-CHARGED class was measured. */
    bool usedTwoCharged = false;
    /** (pattern, pause, repeat) experiments issued. */
    std::uint64_t experiments = 0;

    bool succeeded() const { return solve.unique(); }
    const ecc::LinearCode &recoveredCode() const
    {
        return solve.solutions.front();
    }
};

/** Full-sweep recovery of @p mem's ECC function on @p words. */
inline FullSweepResult
fullSweep(dram::MemoryInterface &mem, MeasureConfig measure,
          const std::vector<std::size_t> &words,
          const BeerSolverConfig &solver = {})
{
    const std::size_t k = mem.datawordBits();
    QuorumEstimator estimator;
    measure.estimator = &estimator;
    FullSweepResult result;
    const auto sweep = [&](std::size_t charged) {
        const std::vector<TestPattern> patterns = chargedPatterns(k, charged);
        result.counts.merge(measureProfile(mem, patterns, measure, words),
                            ProfileCounts::MergeMode::AppendDisjoint);
        result.experiments += (std::uint64_t)patterns.size() *
                              measure.pausesSeconds.size() *
                              measure.repeatsPerPause;
        result.profile =
            result.counts.threshold(measure.thresholdProbability);
        result.solve = solveForEccFunction(result.profile, solver);
    };
    result.counts.k = k;
    sweep(1);
    if (!result.succeeded()) {
        result.usedTwoCharged = true;
        sweep(2);
    }
    return result;
}

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_FULL_SWEEP_HH
