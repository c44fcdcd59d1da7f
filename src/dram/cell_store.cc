#include "dram/cell_store.hh"

#include <algorithm>
#include <cstring>

#include "sim/engine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace beer::dram
{

using gf2::BitVec;

TransposedCellStore::TransposedCellStore(
    std::size_t num_words, std::size_t n,
    const std::function<CellType(std::size_t)> &type_of_word)
    : numWords_(num_words), n_(n)
{
    BEER_ASSERT(n > 0);
    laneWords_ = (num_words + 63) / 64;
    // Pad rows to the widest SIMD group so any kernel width can read
    // aligned windows; padded lanes are invalid and never charged.
    stride_ = (laneWords_ + ecc::kMaxSimdWords - 1) /
              ecc::kMaxSimdWords * ecc::kMaxSimdWords;
    if (stride_ == 0)
        stride_ = ecc::kMaxSimdWords;
    err_.assign(n_ * stride_, 0);
    ref_.assign(n_ * stride_, 0);
    anti_.assign(stride_, 0);
    valid_.assign(stride_, 0);
    for (std::size_t w = 0; w < num_words; ++w) {
        const std::uint64_t bit = (std::uint64_t)1 << (w & 63);
        valid_[w / 64] |= bit;
        if (type_of_word(w) == CellType::Anti)
            anti_[w / 64] |= bit;
    }
}

void
TransposedCellStore::writeWord(std::size_t w, const BitVec &codeword)
{
    BEER_ASSERT(w < numWords_ && codeword.size() == n_);
    const std::size_t j = w / 64;
    const std::uint64_t bit = (std::uint64_t)1 << (w & 63);
    for (std::size_t pos = 0; pos < n_; ++pos) {
        const std::size_t at = pos * stride_ + j;
        if (codeword.get(pos))
            ref_[at] |= bit;
        else
            ref_[at] &= ~bit;
        err_[at] &= ~bit;
    }
}

BitVec
TransposedCellStore::storedWord(std::size_t w) const
{
    BEER_ASSERT(w < numWords_);
    const std::size_t j = w / 64;
    const std::size_t lane = w & 63;
    BitVec stored(n_);
    for (std::size_t pos = 0; pos < n_; ++pos) {
        const std::size_t at = pos * stride_ + j;
        stored.set(pos, ((ref_[at] ^ err_[at]) >> lane) & 1);
    }
    return stored;
}

bool
TransposedCellStore::chargedBit(std::size_t w, std::size_t pos) const
{
    const std::size_t j = w / 64;
    const std::size_t lane = w & 63;
    const std::size_t at = pos * stride_ + j;
    return (((ref_[at] ^ err_[at] ^ anti_[j]) >> lane) & 1) != 0;
}

void
TransposedCellStore::decayBit(std::size_t w, std::size_t pos)
{
    // Decaying a CHARGED cell always flips its stored value (CHARGED
    // means stored != the cell type's discharged value).
    err_[pos * stride_ + w / 64] ^= (std::uint64_t)1 << (w & 63);
}

void
TransposedCellStore::broadcastWrite(const BitVec &codeword,
                                    const std::vector<std::uint64_t> &sel)
{
    BEER_ASSERT(codeword.size() == n_ && sel.size() >= laneWords_);
    // Touch only the selected lane words: a sparse word subset (a
    // wordsUnderTest list covering a sliver of a big chip) must not
    // pay a full-plane traversal per row.
    touchedScratch_.clear();
    for (std::size_t j = 0; j < laneWords_; ++j)
        if (sel[j])
            touchedScratch_.push_back(j);
    for (std::size_t pos = 0; pos < n_; ++pos) {
        std::uint64_t *ref = &ref_[pos * stride_];
        std::uint64_t *err = &err_[pos * stride_];
        if (codeword.get(pos)) {
            for (const std::size_t j : touchedScratch_) {
                ref[j] |= sel[j];
                err[j] &= ~sel[j];
            }
        } else {
            for (const std::size_t j : touchedScratch_) {
                ref[j] &= ~sel[j];
                err[j] &= ~sel[j];
            }
        }
    }
}

void
TransposedCellStore::broadcastWriteAll(const BitVec &codeword)
{
    broadcastWrite(codeword, valid_);
}

void
TransposedCellStore::laneRange(std::size_t begin, std::size_t end,
                               std::size_t &jb, std::size_t &je) const
{
    BEER_ASSERT(begin % 64 == 0 && begin <= end && end <= numWords_);
    BEER_ASSERT(end % 64 == 0 || end == numWords_);
    jb = begin / 64;
    je = (end + 63) / 64;
}

std::uint64_t
TransposedCellStore::decaySkipSampled(std::size_t begin, std::size_t end,
                                      double ber, util::Rng &rng)
{
    // Identical candidate enumeration to the legacy layout's
    // decayIid: skip-sample the word-major (word, bit) grid with the
    // alias-table geometric sampler and the reciprocal divide, so the
    // Rng stream — and therefore the injected error pattern — matches
    // the legacy chip bit for bit.
    std::uint64_t errors = 0;
    const std::uint64_t total = (std::uint64_t)(end - begin) * n_;
    if (total == 0)
        return 0;
    const bool small = total <= UINT32_MAX;
    const util::FastDiv32 divn((std::uint32_t)(small ? n_ : 1));
    const util::GeometricSampler candidates(ber);
    candidates.forEach(rng, total, [&](std::uint64_t cell) {
        std::size_t rel;
        std::size_t bit;
        if (small) {
            const std::uint32_t q = divn.div((std::uint32_t)cell);
            rel = q;
            bit = (std::size_t)((std::uint32_t)cell -
                                q * (std::uint32_t)n_);
        } else {
            rel = (std::size_t)(cell / n_);
            bit = (std::size_t)(cell % n_);
        }
        const std::size_t w = begin + rel;
        if (chargedBit(w, bit)) {
            decayBit(w, bit);
            ++errors;
        }
    });
    return errors;
}

std::uint64_t
TransposedCellStore::decayBernoulli(std::size_t begin, std::size_t end,
                                    double ber, util::Rng &rng)
{
    std::size_t jb;
    std::size_t je;
    laneRange(begin, end, jb, je);
    const util::BernoulliMask candidates(ber);
    std::uint64_t errors = 0;
    for (std::size_t pos = 0; pos < n_; ++pos) {
        std::uint64_t *err = &err_[pos * stride_];
        for (std::size_t j = jb; j < je; ++j) {
            const std::uint64_t charged = chargedMaskWord(pos, j);
            if (!charged)
                continue;
            const std::uint64_t decayed = candidates.draw(rng) & charged;
            err[j] ^= decayed;
            errors += (std::uint64_t)util::popcount64(decayed);
        }
    }
    return errors;
}

namespace
{

/**
 * OR @p len bits of @p src starting at bit @p src_bit into @p dst at
 * bit @p dst_bit, one destination lane word at a time.
 */
void
orBits(std::uint64_t *dst, std::size_t dst_bit, const std::uint64_t *src,
       std::size_t src_bit, std::size_t len)
{
    while (len > 0) {
        const std::size_t dst_off = dst_bit & 63;
        const std::size_t src_off = src_bit & 63;
        const std::size_t take = std::min(len, 64 - dst_off);
        std::uint64_t bits = src[src_bit / 64] >> src_off;
        if (src_off + take > 64)
            bits |= src[src_bit / 64 + 1] << (64 - src_off);
        if (take < 64)
            bits &= ((std::uint64_t)1 << take) - 1;
        dst[dst_bit / 64] |= bits << dst_off;
        dst_bit += take;
        src_bit += take;
        len -= take;
    }
}

} // anonymous namespace

void
readDatawordsWide(const TransposedCellStore &store,
                  const ecc::BitslicedDecoder &decoder,
                  const sim::EngineKernel &kernel,
                  const std::size_t *words, std::size_t count,
                  double transient_rate, util::Rng *rng,
                  WideReadScratch &scratch, std::uint64_t *rows,
                  std::size_t row_stride)
{
    const std::size_t n = store.n();
    const std::size_t k = decoder.k();
    const std::size_t W = kernel.words;
    const std::size_t stride = store.strideWords();
    const bool noisy = transient_rate > 0.0 && rng;
    // Construction is Rng-free, so hoisting it out of the per-word
    // loop keeps the stream identical to sequential scalar reads.
    const util::GeometricSkip flips(noisy ? transient_rate : 0.5);

    for (std::size_t pos = 0; pos < k; ++pos)
        std::fill_n(rows + pos * row_stride, (count + 63) / 64, 0);

    std::size_t i = 0;
    while (i < count) {
        // Aligned window of W lane words around the next word; every
        // following word in the same window joins the batch. Input
        // order is preserved (runs never reorder), so transient flips
        // consume the Rng exactly as a scalar read loop would. A
        // noisy run additionally ends at a repeated word: duplicates
        // must each get their own perturbed window copy (and decode),
        // or their flips would accumulate into one shared lane and
        // diverge from sequential readDataword results.
        const std::size_t j0 = words[i] / 64 / W * W;
        const std::size_t lane_base = j0 * 64;
        const std::size_t lane_limit = lane_base + W * 64;
        if (noisy)
            scratch.seen.assign(W, 0);
        scratch.segmentEnds.clear();
        std::size_t run = i;
        while (run < count && words[run] >= lane_base &&
               words[run] < lane_limit) {
            if (noisy) {
                const std::size_t lane = words[run] - lane_base;
                std::uint64_t &seen = scratch.seen[lane / 64];
                const std::uint64_t bit = (std::uint64_t)1
                                          << (lane & 63);
                if (seen & bit)
                    break;
                seen |= bit;
            }
            if (run > i && words[run] != words[run - 1] + 1)
                scratch.segmentEnds.push_back(run);
            ++run;
        }
        scratch.segmentEnds.push_back(run);

        const std::uint64_t *err = store.errRow(0) + j0;
        std::size_t err_stride = stride;
        if (noisy) {
            // Transient flips must not persist: decode a perturbed
            // copy of the window instead of the planes themselves.
            scratch.noisy.resize(n * W);
            for (std::size_t pos = 0; pos < n; ++pos)
                std::memcpy(&scratch.noisy[pos * W],
                            store.errRow(pos) + j0,
                            W * sizeof(std::uint64_t));
            for (std::size_t t = i; t < run; ++t) {
                const std::size_t lane = words[t] - lane_base;
                flips.forEach(*rng, n, [&](std::uint64_t pos) {
                    scratch.noisy[(std::size_t)pos * W + lane / 64] ^=
                        (std::uint64_t)1 << (lane & 63);
                });
            }
            err = scratch.noisy.data();
            err_stride = W;
        }

        scratch.lanes.prepare(n, W);
        kernel.decodeStrided(decoder, err, err_stride, scratch.lanes);

        // Post-correction dataword = ref ^ (error ^ correction) over
        // the data rows (the code is systematic). Each data row of
        // the window is built once, then every segment of consecutive
        // words moves into the frame as whole lane words (a lone word
        // is a one-bit segment).
        for (std::size_t pos = 0; pos < k; ++pos) {
            const std::uint64_t *refw = store.refRow(pos) + j0;
            const std::uint64_t *errw = err + pos * err_stride;
            const std::uint64_t *corr =
                &scratch.lanes.correction[pos * W];
            std::uint64_t data[ecc::kMaxSimdWords] = {};
            for (std::size_t j = 0; j < W; ++j)
                data[j] = refw[j] ^ errw[j] ^ corr[j];
            std::uint64_t *row = rows + pos * row_stride;
            std::size_t t = i;
            for (const std::size_t end : scratch.segmentEnds) {
                orBits(row, t, data, words[t] - lane_base, end - t);
                t = end;
            }
        }
        i = run;
    }
}

} // namespace beer::dram
