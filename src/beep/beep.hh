/**
 * @file
 * BEEP: Bit-Exact Error Profiling (paper Section 7.1).
 *
 * Given the ECC function recovered by BEER, BEEP determines the number
 * and bit-exact locations of pre-correction error-prone cells in an
 * ECC word — including cells in the inaccessible parity bits — purely
 * from post-correction observations. It iterates over every codeword
 * bit, crafting a test pattern per bit with a SAT solver such that:
 *
 *  1. the target cell is CHARGED and its neighbors DISCHARGED
 *     (worst-case coupling conditions), and
 *  2. if the target fails together with some combination of the
 *     already-identified error cells, an observable miscorrection
 *     results in a DISCHARGED data bit.
 *
 * Observed miscorrections are inverted through the parity-check matrix
 * (paper Equation 4): a miscorrection at data bit m implies the raw
 * error pattern e satisfies H*e = H_col(m), whose parity component has
 * exactly one solution because H has full rank.
 */

#ifndef BEER_BEEP_BEEP_HH
#define BEER_BEEP_BEEP_HH

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "beep/word_under_test.hh"
#include "ecc/linear_code.hh"
#include "gf2/bitvec.hh"
#include "util/rng.hh"

namespace beer::beep
{

/** Profiling knobs. */
struct BeepConfig
{
    /** Passes over the codeword (Figure 8 evaluates 1 vs 2). */
    std::size_t passes = 2;
    /** Test cycles per crafted pattern (catches P[error] < 1 cells). */
    std::size_t readsPerPattern = 8;
    /**
     * Craft patterns with the SAT solver (paper behaviour). When
     * false, random codeword-consistent patterns are used instead —
     * the ablation mode of the Figure 8 bench.
     */
    bool satCrafting = true;
    /** Enforce the worst-case-coupling neighbor constraint. */
    bool neighborConstraint = true;
    std::uint64_t seed = 1;
};

/** Profiling output. */
struct BeepResult
{
    /** Identified error-prone codeword positions, sorted. */
    std::vector<std::size_t> errorCells;
    /** Patterns actually tested. */
    std::size_t patternsTested = 0;
    /** Total test cycles. */
    std::size_t reads = 0;
    /** Reads that yielded an unambiguous miscorrection inference. */
    std::size_t informativeReads = 0;
    /** Target bits skipped because no suitable pattern existed. */
    std::size_t skippedTargets = 0;
};

/** BEEP profiler bound to a known (BEER-recovered) ECC function. */
class Profiler
{
  public:
    Profiler(const ecc::LinearCode &code, const BeepConfig &config = {});

    /** Profile one word for error-prone cells. */
    BeepResult profile(WordUnderTest &word);

    /**
     * Craft a dataword targeting @p target_bit given the currently
     * known error cells (exposed for tests and the pattern-crafting
     * use case of paper Section 7.2.2).
     *
     * @return std::nullopt if no pattern satisfies the constraints
     */
    std::optional<gf2::BitVec>
    craftPattern(std::size_t target_bit,
                 const std::set<std::size_t> &known_errors,
                 bool require_neighbor_constraint) const;

    /**
     * Interpret one observation: given the written dataword and the
     * post-correction read, infer raw error positions (Equation 4).
     * Returns inferred codeword error positions, or std::nullopt when
     * the observation is ambiguous (multiple interpretations) or
     * uninformative (no difference).
     */
    std::optional<std::vector<std::size_t>>
    inferRawErrors(const gf2::BitVec &dataword,
                   const gf2::BitVec &read) const;

  private:
    /**
     * craftPattern() with the profiling loop's fallback chain: honor
     * the neighbor constraint when configured, relax it when no
     * pattern satisfies it. Pure function of (target, known_errors):
     * no Rng draws and no mutable Profiler state.
     */
    std::optional<gf2::BitVec>
    craftAny(std::size_t target_bit,
             const std::set<std::size_t> &known_errors) const;

    const ecc::LinearCode &code_;
    BeepConfig config_;
    mutable util::Rng rng_;
};

} // namespace beer::beep

#endif // BEER_BEEP_BEEP_HH
