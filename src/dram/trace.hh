/**
 * @file
 * Operation-trace recording and replay backends, in trace format v2.
 *
 * The paper's released tooling applies BEER to measurements collected
 * on real chips offline. These classes provide the equivalent seam for
 * this codebase: TraceRecorder wraps any MemoryInterface and logs every
 * operation (with read results) to a stream, and TraceReplayBackend
 * implements MemoryInterface from such a log, so an analysis can re-run
 * bit-for-bit against externally collected data with no chip (or
 * simulator) present.
 *
 * The library reads and writes v2 only. Input without the v2 magic is
 * refused with a message that names beer_trace_convert: that tool is
 * the only reader of the retired v1 text format (its grammar is in
 * tools/v1_trace_reader.hh), and it upgrades a v1 file to a v2 file
 * that holds the identical element stream.
 *
 * ## Format v2 — binary, columnar, one record per batched op
 *
 * Little-endian throughout; every record is 8-byte aligned so mmap'd
 * payloads can be read as uint64 arrays in place.
 *
 *     header (32 bytes):
 *       char[8]  magic "BEERTRC2"
 *       u32      bytesPerWord, wordsPerRegion, bytesPerRow, rows
 *       u32      k (dataword bits)
 *       u32      reserved (0)
 *     records, each:
 *       u32 kind, u32 payloadBytes, payload, zero pad to 8 bytes
 *
 *     kind  payload
 *     ----  -------------------------------------------------------
 *     1     meta: UTF-8 annotation text
 *     2     word set: u64 count, count x u64 word indices. Sets are
 *           deduplicated; later records reference them by ordinal
 *           (0-based, in file order).
 *     3     writeDatawordsBroadcast: u64 wordSetId,
 *           ceil(k/64) x u64 dataword bits
 *     4     readDatawords batch: u64 wordSetId, u32 encoding,
 *           u32 crc32 (over the raw frame bytes), then the frame:
 *             encoding 0 (raw): k rows x ceil(count/64) u64 lane
 *               words — bit t of row pos = bit pos of the t-th
 *               dataword read. This is the bit-plane (SoA) layout of
 *               dram::TransposedCellStore, so replay hands whole rows
 *               to the plane-parallel counting kernels untransposed.
 *             encoding 1 (sparse): ceil(k/64) x u64 per-row majority
 *               bits, u64 exceptionCount, then exceptionCount x
 *               (u64 frameIndex, u64 laneWord) overrides of the
 *               majority-filled raw frame. Chosen per frame when
 *               smaller (errors are sparse, so most rows are a
 *               constant fill).
 *     5/6   writeDataword / readDataword: u64 word, dataword bits
 *     7/8   writeByte / readByte: u64 byteAddr, u64 value
 *     9     fill: u64 value
 *     10    pause: f64 seconds, f64 tempC
 *
 * A batched measurement records ~k/8 bytes per read word (one bit per
 * cell) and amortizes word lists to nothing, >= 10x smaller than the
 * per-word v1 text; sparse frames shrink further. Frame CRCs are
 * verified at open, so a truncated or bit-flipped trace is rejected
 * before any replay runs.
 *
 * ## Replay strictness
 *
 * Replay is strict at word granularity: every interface call must
 * match the recorded operation stream element for element (kind, word
 * index, and payload), and divergence is a fatal error naming both the
 * requested and the recorded operation. Batch boundaries are NOT part
 * of the contract — a v2 batch record of 100 words replays equally
 * under one readDatawords(100) call or 100 readDataword calls, so
 * scalar and batched analyses replay the same trace bit-identically.
 */

#ifndef BEER_DRAM_TRACE_HH
#define BEER_DRAM_TRACE_HH

#include <cstdint>
#include <deque>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "dram/memory_interface.hh"

namespace beer::dram
{

/** Round-trip-exact ("%.17g") rendering of a trace double operand. */
std::string formatTraceDouble(double value);

/** Knobs for writing a (v2) trace. */
struct TraceWriteOptions
{
    /**
     * Store each read frame sparse (majority fill + exceptions) when
     * that is smaller than the raw bit planes. Raw frames replay
     * zero-copy from the mmap; sparse frames are decoded once at open.
     */
    bool compressFrames = true;
};

/**
 * One parsed trace record at batch granularity. Scalar ops are their
 * own records; a batched op is one record of count elements. Batch
 * pointers alias storage owned by the TraceReplayBackend that parsed
 * the record (or the mmap'd file).
 */
struct TraceRecord
{
    enum class Kind
    {
        Meta,
        WriteBroadcast,
        ReadBatch,
        WriteWord,
        ReadWord,
        WriteByte,
        ReadByte,
        Fill,
        Pause,
    };

    Kind kind;
    /** Source position for diagnostics: the 1-based record ordinal. */
    std::size_t line = 0;

    /** Word index (word ops) or byte address (byte ops). */
    std::size_t index = 0;
    /** Byte payload (WriteByte/Fill) or result (ReadByte). */
    std::uint8_t byte = 0;
    /** pauseRefresh() operands. */
    double seconds = 0.0;
    double tempC = 0.0;
    /** Dataword payload: WriteWord/ReadWord data, WriteBroadcast fill. */
    gf2::BitVec data;

    /** Batch word list (count entries), in recorded order. */
    const std::uint64_t *words = nullptr;
    std::size_t count = 0;
    /** ReadBatch bit-plane frame: k rows x laneWords uint64s. */
    const std::uint64_t *frame = nullptr;
    std::size_t laneWords = 0;

    /** Meta: index into TraceReplayBackend::metaLines(). */
    std::size_t metaIndex = 0;

    /** Interface operations this record stands for (0 for Meta). */
    std::size_t elements() const
    {
        switch (kind) {
        case Kind::Meta:
            return 0;
        case Kind::WriteBroadcast:
        case Kind::ReadBatch:
            return count;
        default:
            return 1;
        }
    }
};

/**
 * v2 serializer behind TraceRecorder and beer_trace_convert:
 * receives operations at batch granularity and emits one record per
 * operation. The header is written at construction. The stream must
 * be binary-clean (open files with std::ios::binary).
 */
class TraceWriter
{
  public:
    TraceWriter(std::ostream &out, const AddressMap &map, std::size_t k,
                const TraceWriteOptions &options);

    void meta(const std::string &text);
    void writeWord(std::size_t word, const gf2::BitVec &data);
    void readWord(std::size_t word, const gf2::BitVec &data);
    void writeBroadcast(const std::size_t *words, std::size_t count,
                        const gf2::BitVec &data);
    /** Batched read results as materialized datawords. */
    void readBatch(const std::size_t *words, std::size_t count,
                   const gf2::BitVec *results);
    /** Batched read results already in bit-plane layout (no transpose). */
    void readBatchPlanar(const std::size_t *words, std::size_t count,
                         const PlanarReadBatch &view);
    void writeByte(std::size_t byte_addr, std::uint8_t value);
    void readByte(std::size_t byte_addr, std::uint8_t value);
    void fill(std::uint8_t value);
    void pause(double seconds, double temp_c);

  private:
    /** Id of the deduplicated word set, emitting it if new. */
    std::uint64_t wordSetId(const std::size_t *words,
                            std::size_t count);
    /** Emit one record (header, payload, alignment pad). */
    void emitRecord(std::uint32_t kind, const void *payload,
                    std::size_t payload_bytes);
    void emitWordPayload(std::uint32_t kind, std::uint64_t index,
                         const gf2::BitVec &data);
    void emitReadFrame(std::uint64_t set_id, const std::uint64_t *rows,
                       std::size_t row_stride, std::size_t lane_words,
                       std::size_t count);

    std::ostream &out_;
    std::size_t k_;
    TraceWriteOptions options_;
    std::map<std::vector<std::uint64_t>, std::uint64_t> wordSets_;
    std::vector<std::uint8_t> scratch_;
};

/**
 * Decorator that forwards every operation to @p inner and appends it
 * to the trace stream. The header (version, geometry, k) is written at
 * construction; the stream must outlive the recorder. Output is v2.
 * Batched calls stay batched on the inner backend (so a transposed
 * chip keeps its wide path) and are recorded at batch granularity.
 */
class TraceRecorder : public MemoryInterface
{
  public:
    TraceRecorder(MemoryInterface &inner, std::ostream &out,
                  const TraceWriteOptions &options = {});

    /** Append an uninterpreted "meta <text>" annotation line. */
    void writeMeta(const std::string &text);

    const AddressMap &addressMap() const override;
    std::size_t datawordBits() const override;
    void writeDataword(std::size_t word_index,
                       const gf2::BitVec &data) override;
    gf2::BitVec readDataword(std::size_t word_index) override;
    void writeDatawordsBroadcast(const std::size_t *words,
                                 std::size_t count,
                                 const gf2::BitVec &data) override;
    void readDatawords(const std::size_t *words, std::size_t count,
                       std::vector<gf2::BitVec> &out) override;
    bool readDatawordsPlanar(const std::size_t *words,
                             std::size_t count,
                             PlanarReadBatch &out) override;
    void writeByte(std::size_t byte_addr, std::uint8_t value) override;
    std::uint8_t readByte(std::size_t byte_addr) override;
    void fill(std::uint8_t value) override;
    void pauseRefresh(double seconds, double temp_c) override;

  private:
    MemoryInterface &inner_;
    TraceWriter writer_;
};

/**
 * MemoryInterface backend that replays a recorded v2 trace; see file
 * comment. Files are mmap'd, so raw read frames replay zero-copy out
 * of the page cache. Strict by construction: any operation that does
 * not match the recorded element sequence is fatal, with a message
 * naming both the requested and the recorded operation.
 */
class TraceReplayBackend : public MemoryInterface
{
  public:
    /** Load a trace from @p in (e.g. an open binary std::ifstream). */
    explicit TraceReplayBackend(std::istream &in);

    /** mmap a trace file; fatal if unreadable or not v2. */
    explicit TraceReplayBackend(const std::string &path);

    ~TraceReplayBackend() override;
    TraceReplayBackend(const TraceReplayBackend &) = delete;
    TraceReplayBackend &operator=(const TraceReplayBackend &) = delete;

    const AddressMap &addressMap() const override { return map_; }
    std::size_t datawordBits() const override { return k_; }
    void writeDataword(std::size_t word_index,
                       const gf2::BitVec &data) override;
    gf2::BitVec readDataword(std::size_t word_index) override;
    void writeDatawordsBroadcast(const std::size_t *words,
                                 std::size_t count,
                                 const gf2::BitVec &data) override;
    void readDatawords(const std::size_t *words, std::size_t count,
                       std::vector<gf2::BitVec> &out) override;
    /**
     * Zero-copy batched read: succeeds when the requested batch is
     * exactly the next recorded read batch, returning the recorded
     * bit-plane frame directly (raw v2 frames straight from the mmap).
     * Any other alignment declines with no side effects and the
     * caller's readDatawords fallback replays element by element.
     */
    bool readDatawordsPlanar(const std::size_t *words,
                             std::size_t count,
                             PlanarReadBatch &out) override;
    void writeByte(std::size_t byte_addr, std::uint8_t value) override;
    std::uint8_t readByte(std::size_t byte_addr) override;
    void fill(std::uint8_t value) override;
    void pauseRefresh(double seconds, double temp_c) override;

    /** Uninterpreted "meta" annotation lines, in file order. */
    const std::vector<std::string> &metaLines() const { return meta_; }

    /** Word-granular operation counts (batches count their elements). */
    std::size_t totalOps() const { return totalElements_; }
    std::size_t remainingOps() const
    {
        return totalElements_ - consumedElements_;
    }
    bool atEnd() const { return consumedElements_ == totalElements_; }

    /**
     * The parsed record stream at batch granularity, metas included,
     * in file order — the input beer_trace_convert re-serializes.
     */
    const std::vector<TraceRecord> &records() const { return stream_; }

  private:
    /** Index @p len bytes of v2; @p source names them in diagnostics. */
    void parseBinary(const std::uint8_t *data, std::size_t len,
                     const std::string &source);

    /** Current non-meta record, advancing past metas; fatal at end. */
    const TraceRecord &current(const char *requested);
    /** Consume one element of the current record. */
    void consumeElement();
    /** Consume the current record whole (batch fast paths). */
    void consumeRecord();
    [[noreturn]] void diverge(const std::string &requested,
                              const TraceRecord &rec);

    AddressMap map_;
    std::size_t k_ = 0;
    std::vector<TraceRecord> stream_;
    std::vector<std::string> meta_;
    /** Decoded sparse frames; all else aliases the loaded bytes. */
    std::deque<std::vector<std::uint64_t>> owned_;
    /** v2 bytes sourced from an istream (8-byte aligned). */
    std::vector<std::uint64_t> buffer_;
    void *mapBase_ = nullptr;
    std::size_t mapLen_ = 0;

    std::size_t totalElements_ = 0;
    std::size_t consumedElements_ = 0;
    /** Cursor: record index and element offset within it. */
    std::size_t rec_ = 0;
    std::size_t elem_ = 0;
};

/**
 * Why @p path cannot be replayed, judged from its first 8 bytes only:
 * "" when it opens and starts with the v2 magic. A file without the
 * magic (v1 text, say) gets the loader's message, which names
 * beer_trace_convert.
 */
std::string traceFileMagicError(const std::string &path);

} // namespace beer::dram

#endif // BEER_DRAM_TRACE_HH
