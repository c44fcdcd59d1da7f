/**
 * @file
 * Transposed (bit-plane) cell storage for the simulated DRAM chip.
 *
 * Storing one gf2::BitVec per ECC word and flipping cells bit by bit
 * (the reference model in tests/ref/scalar_chip.hh) makes retention
 * injection, refresh pauses, and profile reads the dominant cost of
 * every simulated experiment. This store keeps the chip's cells in the same lane-major SoA layout the simulation
 * engine's batches use: plane row @p pos holds bit @p pos of every
 * word, 64 words per uint64 lane word, rows padded to the widest SIMD
 * group (ecc::kMaxSimdWords lane words) so any kernel width can read
 * aligned windows straight out of the store via the strided decode
 * entry (ecc::decodeWideStrided) — no per-batch gather copy.
 *
 * Two plane sets are kept, both in the value domain:
 *
 *  - ref: the reference codeword each word was last written with
 *    (error-free encode);
 *  - err: the accumulated error bits (stored value XOR ref).
 *
 * Splitting stored state into ref ^ err makes every hot path a whole-
 * lane-word operation: a wide read feeds err windows directly to the
 * decode kernel (decoding depends only on the error pattern), decay
 * flips err bits, and the CHARGED mask of 64 cells is one XOR against
 * the precomputed anti-cell lane mask (stored ^ anti, masked to valid
 * lanes). Scalar MemoryInterface semantics (per-word writes, byte
 * read-modify-write, ground-truth accessors) go through the
 * gather/scatter shim, bit-identical to the one-BitVec-per-word
 * layout.
 *
 * Three retention-decay paths are provided; all implement "a candidate
 * cell decays iff it is CHARGED", differing only in how candidates
 * are drawn:
 *
 *  - decayDeterministic: per-cell predicate (repeatable retention
 *    times, VRT) — pure function of the cell id, so plane-major
 *    iteration over CHARGED bits gives bit-identical results to a
 *    word-major loop at word-level memory cost;
 *  - decaySkipSampled: iid candidates by geometric skip-sampling in
 *    word-major cell order, consuming the exact Rng stream a
 *    one-BitVec-per-word chip consumes — the differential anchor;
 *  - decayBernoulli: iid candidates as whole Bernoulli lane masks
 *    (util::BernoulliMask), plane-major; statistically equivalent to
 *    skip-sampling but a different Rng stream, and faster above
 *    kInjectionCrossoverBer.
 */

#ifndef BEER_DRAM_CELL_STORE_HH
#define BEER_DRAM_CELL_STORE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "dram/types.hh"
#include "ecc/bitsliced.hh"
#include "ecc/bitsliced_kernel.hh"
#include "gf2/bitvec.hh"
#include "util/bitops.hh"
#include "util/rng.hh"

namespace beer::sim
{
struct EngineKernel;
} // namespace beer::sim

namespace beer::dram
{

/** Plane-major cell store; see file comment. */
class TransposedCellStore
{
  public:
    /**
     * @param num_words    ECC words stored
     * @param n            codeword bits per word (plane rows)
     * @param type_of_word cell type of each word (builds the anti-cell
     *                     lane mask; only called during construction)
     */
    TransposedCellStore(
        std::size_t num_words, std::size_t n,
        const std::function<CellType(std::size_t)> &type_of_word);

    std::size_t numWords() const { return numWords_; }
    std::size_t n() const { return n_; }
    /** uint64 lane words per plane row (padded to kMaxSimdWords). */
    std::size_t strideWords() const { return stride_; }
    /** Lane words actually holding words: ceil(numWords / 64). */
    std::size_t numLaneWords() const { return laneWords_; }

    // ---- scalar gather/scatter shim ---------------------------------
    /** Store @p codeword as word @p w's new reference; clears errors. */
    void writeWord(std::size_t w, const gf2::BitVec &codeword);

    /** Current stored value (ref ^ err) of word @p w, gathered. */
    gf2::BitVec storedWord(std::size_t w) const;

    /** True iff cell (w, pos) is CHARGED under its cell type. */
    bool chargedBit(std::size_t w, std::size_t pos) const;

    /**
     * Decay cell (w, pos) to its DISCHARGED value. Flips the stored
     * bit, so callers must only decay CHARGED cells.
     */
    void decayBit(std::size_t w, std::size_t pos);

    // ---- wide paths --------------------------------------------------
    /**
     * Write the same @p codeword into every lane selected by @p sel
     * (indexed by lane word) within lane words [@p jb, @p je):
     * references updated, errors cleared, one branch-free pass per
     * row over the span. Lane words outside the span are untouched.
     */
    void broadcastWrite(const gf2::BitVec &codeword,
                        const std::uint64_t *sel, std::size_t jb,
                        std::size_t je);

    /** broadcastWrite selecting every stored word. */
    void broadcastWriteAll(const gf2::BitVec &codeword);

    /** Error plane row @p pos (strideWords() lane words). */
    const std::uint64_t *errRow(std::size_t pos) const
    {
        return &err_[pos * stride_];
    }
    /** Reference plane row @p pos. */
    const std::uint64_t *refRow(std::size_t pos) const
    {
        return &ref_[pos * stride_];
    }

    /** CHARGED lanes of (row @p pos, lane word @p j). */
    std::uint64_t chargedMaskWord(std::size_t pos, std::size_t j) const
    {
        const std::size_t at = pos * stride_ + j;
        return ((ref_[at] ^ err_[at]) ^ anti_[j]) & valid_[j];
    }

    // ---- retention decay ---------------------------------------------
    /**
     * Deterministic per-cell decay over words [begin, end): every
     * CHARGED cell decays iff fails(cell_id) with cell_id =
     * w * n + pos. Returns the number of cells decayed. @p begin must
     * be lane-word aligned; @p end lane-word aligned or numWords().
     * Templated on the predicate (like util::forEachSuccess): it runs
     * once per CHARGED cell, and a type-erased call there would put
     * an uninlinable indirection on the hottest non-iid loop.
     */
    template <typename Fails>
    std::uint64_t decayDeterministic(std::size_t begin,
                                     std::size_t end, Fails &&fails);

    /**
     * iid decay at rate @p ber via geometric skip-sampling over the
     * word-major (word, bit) cell grid of [begin, end) — the
     * reference chip's exact candidate order and Rng stream, so the
     * resulting error pattern is bit-identical to its.
     */
    std::uint64_t decaySkipSampled(std::size_t begin, std::size_t end,
                                   double ber, util::Rng &rng);

    /**
     * iid decay at rate @p ber via whole Bernoulli lane masks,
     * plane-major over [begin, end); same distribution as
     * decaySkipSampled, different Rng stream. Lane words with no
     * CHARGED cell draw nothing.
     */
    std::uint64_t decayBernoulli(std::size_t begin, std::size_t end,
                                 double ber, util::Rng &rng);

  private:
    /** [jb, je) lane-word range of the word range [begin, end). */
    void laneRange(std::size_t begin, std::size_t end, std::size_t &jb,
                   std::size_t &je) const;

    std::size_t numWords_;
    std::size_t n_;
    std::size_t laneWords_;
    std::size_t stride_;
    std::vector<std::uint64_t> err_;
    std::vector<std::uint64_t> ref_;
    std::vector<std::uint64_t> anti_;
    std::vector<std::uint64_t> valid_;
};

template <typename Fails>
std::uint64_t
TransposedCellStore::decayDeterministic(std::size_t begin,
                                        std::size_t end, Fails &&fails)
{
    std::size_t jb;
    std::size_t je;
    laneRange(begin, end, jb, je);
    std::uint64_t errors = 0;
    for (std::size_t pos = 0; pos < n_; ++pos) {
        std::uint64_t *err = &err_[pos * stride_];
        for (std::size_t j = jb; j < je; ++j) {
            std::uint64_t charged = chargedMaskWord(pos, j);
            std::uint64_t decayed = 0;
            while (charged) {
                const std::uint64_t bit = charged & (0 - charged);
                charged ^= bit;
                const std::uint64_t w =
                    (std::uint64_t)j * 64 +
                    (std::uint64_t)util::ctz64(bit);
                if (fails(w * n_ + pos))
                    decayed |= bit;
            }
            err[j] ^= decayed;
            errors += (std::uint64_t)util::popcount64(decayed);
        }
    }
    return errors;
}

/** Reusable scratch for readDatawordsWide (no hot-loop allocation). */
struct WideReadScratch
{
    ecc::WideDecodeLanes lanes;
    /** Noisy copy of one error-plane window (transient flips). */
    std::vector<std::uint64_t> noisy;
    /** Lanes already read in the current noisy run (duplicate split). */
    std::vector<std::uint64_t> seen;
    /** End of each consecutive-index segment of the current run. */
    std::vector<std::size_t> segmentEnds;
};

/**
 * Read words through the on-die decoder, wide: for each selected word
 * (in order) reconstruct the post-correction dataword written ^
 * (error ^ correction) over the data rows. Error windows are decoded
 * straight from the store's planes via @p kernel's strided entry;
 * only a positive @p transient_rate forces a per-window copy (flips
 * are drawn from @p rng per word in input order — the exact stream a
 * sequential scalar read loop consumes).
 *
 * Results land in a k-row bit-plane frame (the PlanarReadBatch
 * layout): bit t of row pos — lane word t / 64 of rows + pos *
 * @p row_stride — is bit pos of the t-th word read. Lane words
 * [0, ceil(count / 64)) of every row are overwritten, bits at or
 * beyond @p count left zero. Runs of consecutive ascending indices
 * move as whole lane words; any other order gathers bit by bit.
 */
void readDatawordsWide(const TransposedCellStore &store,
                       const ecc::BitslicedDecoder &decoder,
                       const sim::EngineKernel &kernel,
                       const std::size_t *words, std::size_t count,
                       double transient_rate, util::Rng *rng,
                       WideReadScratch &scratch, std::uint64_t *rows,
                       std::size_t row_stride);

} // namespace beer::dram

#endif // BEER_DRAM_CELL_STORE_HH
