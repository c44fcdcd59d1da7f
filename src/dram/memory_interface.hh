/**
 * @file
 * The abstract memory-backend interface BEER drives.
 *
 * This is exactly the surface a real DRAM chip with on-die ECC exposes
 * to an external tester (paper Section 5): geometry, dataword and byte
 * read/write through the ECC encoder/decoder, whole-chip fills, and
 * refresh-window manipulation. Nothing else — in particular no ground
 * truth — so anything implementing it can stand in for a chip:
 *
 *  - dram::SimulatedChip  — the error-model simulator (chip.hh);
 *  - dram::TraceReplayBackend — replays a recorded operation log, so
 *    BEER can run against externally collected measurements (trace.hh);
 *  - dram::FaultInjectionProxy — wraps any backend and injects extra
 *    transient / stuck-at errors for robustness studies (fault_proxy.hh).
 *
 * All of beer:: (measurement, discovery, session) and the beep:: word
 * adapter target this interface; only simulation-validation code may
 * downcast to SimulatedChip for ground truth.
 */

#ifndef BEER_DRAM_MEMORY_INTERFACE_HH
#define BEER_DRAM_MEMORY_INTERFACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/layout.hh"
#include "gf2/bitvec.hh"

namespace beer::dram
{

/**
 * Zero-copy view of one batched read's results in bit-plane (SoA)
 * layout — the same transposed layout dram::TransposedCellStore and
 * the wide decode kernels use. Row @p pos is the laneWords uint64s at
 * rows + pos * rowStride; bit t of the row (bit t%64 of lane word
 * t/64) is bit @p pos of the t-th dataword in the batch. Bits at or
 * beyond @p count in the last lane word are zero. The view aliases
 * backend-owned storage and is valid only until the next operation on
 * the backend.
 */
struct PlanarReadBatch
{
    const std::uint64_t *rows = nullptr;
    /** uint64s between consecutive rows (>= laneWords). */
    std::size_t rowStride = 0;
    /** uint64s holding lane bits per row: ceil(count / 64). */
    std::size_t laneWords = 0;
    /** Datawords in the batch. */
    std::size_t count = 0;

    /** Row @p pos (dataword bit position). */
    const std::uint64_t *row(std::size_t pos) const
    {
        return rows + pos * rowStride;
    }

    /**
     * The batch as @p k -bit datawords, in batch order. Only set bits
     * cost work, so mostly-zero planes transpose nearly for free.
     * Lane bits at or beyond @p count are ignored, so a frame that
     * breaks the zero-tail rule cannot write past @p out.
     */
    void toDatawords(std::size_t k, std::vector<gf2::BitVec> &out) const
    {
        out.assign(count, gf2::BitVec(k));
        for (std::size_t pos = 0; pos < k; ++pos) {
            const std::uint64_t *lanes = row(pos);
            for (std::size_t lw = 0; lw < laneWords; ++lw)
                for (std::uint64_t bits = lanes[lw]; bits != 0;
                     bits &= bits - 1) {
                    const std::size_t t =
                        lw * 64 + (std::size_t)__builtin_ctzll(bits);
                    if (t >= count)
                        break; // the remaining bits are higher still
                    out[t].set(pos, true);
                }
        }
    }
};

/** Abstract DRAM-with-on-die-ECC backend; see file comment. */
class MemoryInterface
{
  public:
    virtual ~MemoryInterface() = default;

    // ---- geometry -------------------------------------------------------
    virtual const AddressMap &addressMap() const = 0;
    /** Data bits per ECC word (k of the on-die code). */
    virtual std::size_t datawordBits() const = 0;

    std::size_t numWords() const { return addressMap().numWords(); }
    std::size_t numBytes() const { return addressMap().numBytes(); }

    // ---- data interface (everything a real chip exposes) ----------------
    /** Write a k-bit dataword; the backend encodes and stores it. */
    virtual void writeDataword(std::size_t word_index,
                               const gf2::BitVec &data) = 0;

    /** Read a dataword through the on-die ECC decoder. */
    virtual gf2::BitVec readDataword(std::size_t word_index) = 0;

    /**
     * Write the same @p data to each word of @p words, in order. Must
     * be observably identical to the writeDataword loop the default
     * implementation is; backends with batch-friendly storage (the
     * transposed simulated chip) override it to write whole lane
     * words. This is the shape of every profile-measurement fill, so
     * the batch seam sits on the measurement hot path.
     */
    virtual void writeDatawordsBroadcast(const std::size_t *words,
                                         std::size_t count,
                                         const gf2::BitVec &data)
    {
        for (std::size_t i = 0; i < count; ++i)
            writeDataword(words[i], data);
    }

    /**
     * Read each word of @p words, in order, into @p out. Must be
     * observably identical — including any Rng stream consumption for
     * simulated read noise — to the sequential readDataword loop the
     * default implementation is, so batching is purely a throughput
     * knob (the same contract as beep::WordUnderTest::testMany).
     */
    virtual void readDatawords(const std::size_t *words,
                               std::size_t count,
                               std::vector<gf2::BitVec> &out)
    {
        out.clear();
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            out.push_back(readDataword(words[i]));
    }

    /**
     * Read each word of @p words through the decoder and expose the
     * results as a bit-plane view (k rows) instead of materialized
     * BitVecs, for callers whose downstream math is plane-parallel
     * (the measurement loop's per-bit mismatch counting). Must be
     * observably identical to readDatawords — same post-correction
     * data, same side effects, same Rng consumption — differing only
     * in the result container. Backends whose storage is already
     * columnar (the transposed simulated chip, trace replay v2)
     * return true and a view that stays valid until the next
     * operation; the default declines, and the caller falls back to
     * readDatawords. A false return must have no side effects.
     */
    virtual bool readDatawordsPlanar(const std::size_t *words,
                                     std::size_t count,
                                     PlanarReadBatch &out)
    {
        (void)words;
        (void)count;
        (void)out;
        return false;
    }

    /** Byte-granularity accessors through the address map. */
    virtual void writeByte(std::size_t byte_addr, std::uint8_t value) = 0;
    virtual std::uint8_t readByte(std::size_t byte_addr) = 0;

    /** Fill every data byte with @p value. */
    virtual void fill(std::uint8_t value) = 0;

    /**
     * Disable refresh for @p seconds at @p temp_c, letting
     * data-retention errors accumulate in the stored cells.
     */
    virtual void pauseRefresh(double seconds, double temp_c) = 0;
};

} // namespace beer::dram

#endif // BEER_DRAM_MEMORY_INTERFACE_HH
