/**
 * @file
 * Miscorrection profiles (paper Section 5.1.3).
 *
 * For every test pattern, the profile records which DISCHARGED data
 * bits can exhibit a miscorrection. Positions that were programmed
 * CHARGED are ambiguous ('?' in the paper's Table 2): an observed error
 * there may be an uncorrected retention error rather than a
 * miscorrection, so they carry no information and are excluded.
 *
 * The exhaustive generator uses the standard-form support predicate
 * derived in DESIGN.md Section 3: under pattern S, a miscorrection at
 * data bit j (not in S) is possible iff some T subset of S satisfies
 *     supp(H_j xor (xor of H_i for i in T)) subset-of supp(xor of H_i
 *     for i in S),
 * and complements T xor S yield the same condition, so only 2^(|S|-1)
 * subsets need checking. This is exactly the set of miscorrections an
 * infinite-sample retention experiment would observe.
 */

#ifndef BEER_BEER_PROFILE_HH
#define BEER_BEER_PROFILE_HH

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "beer/patterns.hh"
#include "ecc/linear_code.hh"
#include "gf2/bitvec.hh"

namespace beer
{

/** Miscorrection observations for one test pattern. */
struct PatternProfile
{
    TestPattern pattern;
    /**
     * Bit j set iff a miscorrection is possible (or was observed) at
     * data bit j. Bits at the pattern's charged positions are always
     * clear; they are ambiguous and carry no information.
     */
    gf2::BitVec miscorrectable;
    /**
     * Measurement-quality metadata: quorum votes disagreed at least
     * once while this pattern was measured (ProfileCounts::suspect),
     * so its row may carry noise residue even after majority voting.
     * Not part of equality — two profiles with the same evidence are
     * the same profile regardless of how noisy the runs that produced
     * them were.
     */
    bool suspect = false;

    bool operator==(const PatternProfile &other) const
    {
        return pattern == other.pattern &&
               miscorrectable == other.miscorrectable;
    }
};

/** The full miscorrection profile over a set of test patterns. */
struct MiscorrectionProfile
{
    std::size_t k = 0;
    std::vector<PatternProfile> patterns;

    bool operator==(const MiscorrectionProfile &other) const = default;

    /** Table-2-style rendering ('C'/'D' pattern, 1/-/? per bit). */
    std::string toString() const;
};

/**
 * Whether a miscorrection at data bit @p bit is possible when the data
 * cells in @p pattern are CHARGED in a chip using @p code (true-cells).
 * @p bit must not be one of the pattern's charged positions.
 */
bool miscorrectionPossible(const ecc::LinearCode &code,
                           const TestPattern &pattern, std::size_t bit);

/**
 * miscorrectionPossible() over H's data columns given as p-bit masks
 * (bit r of @p columns[i] is H[r][i], so p <= 64): the form the
 * solver's refinement evaluates on every candidate model.
 */
bool miscorrectionPossible(const std::vector<std::uint64_t> &columns,
                           const TestPattern &pattern, std::size_t bit);

/**
 * Ground-truth (infinite-sample) profile of @p code under
 * @p patterns.
 */
MiscorrectionProfile exhaustiveProfile(
    const ecc::LinearCode &code,
    const std::vector<TestPattern> &patterns);

/**
 * Brute-force reference implementation of miscorrectionPossible() that
 * enumerates every error pattern over the charged cells. Exponential in
 * the charged-cell count; used by tests to validate the predicate.
 */
bool miscorrectionPossibleBruteForce(const ecc::LinearCode &code,
                                     const TestPattern &pattern,
                                     std::size_t bit);

/**
 * Version written by serializeProfile() for suspect-free profiles.
 * History:
 *  - 1: "k <bits>" header, one "<charged-csv> <bitmap>" line per
 *       pattern (no version line — the implicit legacy format);
 *  - 2: adds an explicit "version <n>" line before the k header, so
 *       long-lived consumers (the recovery service) can reject or
 *       migrate payloads deliberately instead of misparsing them;
 *  - 3: pattern lines may carry a trailing " ?" suspect marker
 *       (quorum disagreement metadata; see PatternProfile::suspect).
 *       Emitted only when some pattern is suspect, so profiles
 *       without the metadata stay byte-identical to version 2 and
 *       old consumers keep parsing them.
 */
inline constexpr std::size_t kProfileFormatVersion = 2;

/** Newest version tryParseProfile() accepts (the suspect-marker
 *  extension). */
inline constexpr std::size_t kProfileFormatVersionMax = 3;

/** Outcome of tryParseProfile(). */
struct ProfileParseStatus
{
    bool ok = false;
    /** Declared format version (1 when the version line is absent). */
    std::size_t version = 1;
    /** Line-numbered message when !ok. */
    std::string error;
};

/**
 * Serialize a profile to the text format consumed by tools/beer_solve
 * (a "version <n>" line, a "k <bits>" line, then one
 * "<charged-csv> <bitmap>" line per pattern; '#' starts a comment).
 */
std::string serializeProfile(const MiscorrectionProfile &profile);

/**
 * Parse the tools/beer_solve text format without terminating on
 * malformed input: the forward-compat entry point for services that
 * must survive bad payloads. Versions newer than
 * kProfileFormatVersionMax are rejected explicitly; version-less
 * input parses as the legacy version 1.
 */
ProfileParseStatus tryParseProfile(std::istream &in,
                                   MiscorrectionProfile &out);

/** tryParseProfile() over text already in memory (no stream copy). */
ProfileParseStatus tryParseProfile(std::string_view text,
                                   MiscorrectionProfile &out);

/**
 * Parse the tools/beer_solve text format; fatal on malformed input
 * with a line-numbered message.
 */
MiscorrectionProfile parseProfile(std::istream &in);

} // namespace beer

#endif // BEER_BEER_PROFILE_HH
