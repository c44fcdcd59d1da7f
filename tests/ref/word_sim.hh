/**
 * @file
 * Reference model of the Monte-Carlo word simulator: every word is
 * encoded, every codeword bit flips by its own Bernoulli trial, and
 * the word goes through the scalar decoder and classifier. No skip
 * sampling, no lane groups, no shards: the statistical baseline the
 * bitsliced engine's expectations are checked against.
 */

#ifndef BEER_TESTS_REF_WORD_SIM_HH
#define BEER_TESTS_REF_WORD_SIM_HH

#include <cstddef>
#include <cstdint>

#include "ecc/decoder.hh"
#include "ecc/linear_code.hh"
#include "gf2/bitvec.hh"
#include "sim/word_sim.hh"
#include "util/rng.hh"

namespace beer::test::ref
{

/**
 * @p num_words transmissions of @p dataword with iid raw errors at
 * rate @p rber in every codeword bit, decoded one at a time; the same
 * statistics sim::simulateUniformErrors estimates.
 */
inline sim::WordSimStats
simulateUniformErrors(const ecc::LinearCode &code,
                      const gf2::BitVec &dataword, double rber,
                      std::uint64_t num_words, util::Rng &rng)
{
    sim::WordSimStats stats;
    stats.preCorrectionErrors.assign(code.n(), 0);
    stats.postCorrectionErrors.assign(code.k(), 0);
    stats.outcomes.assign(
        (std::size_t)ecc::DecodeOutcome::DetectedUncorrectable + 1, 0);
    stats.wordsSimulated = num_words;

    const gf2::BitVec codeword = code.encode(dataword);
    for (std::uint64_t w = 0; w < num_words; ++w) {
        gf2::BitVec received = codeword;
        bool any_error = false;
        for (std::size_t pos = 0; pos < code.n(); ++pos) {
            if (rng.bernoulli(rber)) {
                received.flip(pos);
                ++stats.preCorrectionErrors[pos];
                any_error = true;
            }
        }
        if (any_error)
            ++stats.wordsWithRawErrors;

        const ecc::DecodeResult result = ecc::decode(code, received);
        ++stats.outcomes[(std::size_t)ecc::classify(code, codeword,
                                                     received, result)];
        for (std::size_t bit = 0; bit < code.k(); ++bit)
            if (result.dataword.get(bit) != dataword.get(bit))
                ++stats.postCorrectionErrors[bit];
    }
    return stats;
}

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_WORD_SIM_HH
