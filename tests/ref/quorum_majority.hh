/**
 * @file
 * Reference model of quorum majority voting over materialized
 * datawords: the per-(word, bit) loop over gf2::BitVec votes that the
 * measurement's bit-plane majority must reproduce exactly.
 */

#ifndef BEER_TESTS_REF_QUORUM_MAJORITY_HH
#define BEER_TESTS_REF_QUORUM_MAJORITY_HH

#include <cstddef>
#include <vector>

#include "gf2/bitvec.hh"

namespace beer::test::ref
{

/**
 * Per-(word, bit) majority of @p votes (each a full read sweep, in
 * word order); ties resolve to the first vote's bit.
 */
inline std::vector<gf2::BitVec>
quorumMajority(const std::vector<std::vector<gf2::BitVec>> &votes)
{
    std::vector<gf2::BitVec> result = votes.front();
    const std::size_t n = votes.size();
    for (std::size_t w = 0; w < result.size(); ++w) {
        for (std::size_t bit = 0; bit < result[w].size(); ++bit) {
            std::size_t set = 0;
            for (std::size_t v = 0; v < n; ++v)
                if (votes[v][w].get(bit))
                    ++set;
            result[w].set(bit, 2 * set == n ? votes.front()[w].get(bit)
                                            : 2 * set > n);
        }
    }
    return result;
}

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_QUORUM_MAJORITY_HH
