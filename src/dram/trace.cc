#include "dram/trace.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/checksum.hh"
#include "util/logging.hh"

namespace beer::dram
{

using gf2::BitVec;

std::string
formatTraceDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

namespace
{

// ---- v2 binary layout (see trace.hh file comment) ---------------------

constexpr char kMagic[8] = {'B', 'E', 'E', 'R', 'T', 'R', 'C', '2'};
constexpr std::size_t kHeaderBytes = 32;

constexpr std::uint32_t kRecMeta = 1;
constexpr std::uint32_t kRecWordSet = 2;
constexpr std::uint32_t kRecWriteBroadcast = 3;
constexpr std::uint32_t kRecReadBatch = 4;
constexpr std::uint32_t kRecWriteWord = 5;
constexpr std::uint32_t kRecReadWord = 6;
constexpr std::uint32_t kRecWriteByte = 7;
constexpr std::uint32_t kRecReadByte = 8;
constexpr std::uint32_t kRecFill = 9;
constexpr std::uint32_t kRecPause = 10;

constexpr std::uint32_t kFrameRaw = 0;
constexpr std::uint32_t kFrameSparse = 1;

/** Why @p source, which lacks the v2 magic or header, is refused. */
std::string
notV2Message(const std::string &source)
{
    return source + " is not a v2 trace (no BEERTRC2 header); upgrade a "
                    "v1 text trace with beer_trace_convert";
}

std::size_t
roundUp8(std::size_t n)
{
    return (n + 7) & ~std::size_t{7};
}

std::uint32_t
ld32(const std::uint8_t *at)
{
    std::uint32_t v;
    std::memcpy(&v, at, sizeof v);
    return v;
}

void
append32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    const std::size_t at = out.size();
    out.resize(at + sizeof v);
    std::memcpy(out.data() + at, &v, sizeof v);
}

void
append64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const std::size_t at = out.size();
    out.resize(at + sizeof v);
    std::memcpy(out.data() + at, &v, sizeof v);
}

void
appendDouble(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append64(out, bits);
}

/** uint64s holding @p bits bits. */
std::size_t
wordsFor(std::size_t bits)
{
    return (bits + 63) / 64;
}

/** Mask of the valid bits in the last lane word of a count-bit row. */
std::uint64_t
tailMask(std::size_t count)
{
    const std::size_t rem = count % 64;
    return rem == 0 ? ~std::uint64_t{0}
                    : (~std::uint64_t{0} >> (64 - rem));
}

/** BitVec of @p k bits from packed uint64s, tail bits forced clear. */
BitVec
bitvecFromWords(const std::uint64_t *src, std::size_t k)
{
    BitVec v(k);
    const std::size_t n = wordsFor(k);
    std::memcpy(v.words(), src, n * sizeof(std::uint64_t));
    v.words()[n - 1] &= tailMask(k);
    return v;
}

/** Dataword of batch element @p t gathered from a bit-plane frame. */
BitVec
gatherElement(const TraceRecord &rec, std::size_t t, std::size_t k)
{
    BitVec v(k);
    const std::uint64_t mask = std::uint64_t{1} << (t % 64);
    const std::size_t lane = t / 64;
    for (std::size_t pos = 0; pos < k; ++pos)
        if (rec.frame[pos * rec.laneWords + lane] & mask)
            v.set(pos, true);
    return v;
}

// ---- divergence diagnostics -------------------------------------------

std::string
describeWordOp(const char *name, std::size_t word, const BitVec &data)
{
    return std::string(name) + "(word " + std::to_string(word) +
           ", data " + data.toString() + ")";
}

/** Human description of one recorded element for divergence messages. */
std::string
describeRecordElement(const TraceRecord &rec, std::size_t elem,
                      std::size_t k)
{
    switch (rec.kind) {
    case TraceRecord::Kind::WriteWord:
        return describeWordOp("writeDataword", rec.index, rec.data);
    case TraceRecord::Kind::ReadWord:
        return describeWordOp("readDataword", rec.index, rec.data);
    case TraceRecord::Kind::WriteBroadcast:
        return "writeDatawordsBroadcast element " +
               std::to_string(elem + 1) + "/" +
               std::to_string(rec.count) + " (word " +
               std::to_string(rec.words[elem]) + ", data " +
               rec.data.toString() + ")";
    case TraceRecord::Kind::ReadBatch:
        return "readDatawords element " + std::to_string(elem + 1) +
               "/" + std::to_string(rec.count) + " (word " +
               std::to_string(rec.words[elem]) + ", data " +
               gatherElement(rec, elem, k).toString() + ")";
    case TraceRecord::Kind::WriteByte:
        return "writeByte(addr " + std::to_string(rec.index) +
               ", value " + std::to_string(rec.byte) + ")";
    case TraceRecord::Kind::ReadByte:
        return "readByte(addr " + std::to_string(rec.index) + ") -> " +
               std::to_string(rec.byte);
    case TraceRecord::Kind::Fill:
        return "fill(" + std::to_string(rec.byte) + ")";
    case TraceRecord::Kind::Pause:
        return "pauseRefresh(" + formatTraceDouble(rec.seconds) + ", " +
               formatTraceDouble(rec.tempC) + ")";
    case TraceRecord::Kind::Meta:
        break;
    }
    return "meta";
}

} // anonymous namespace

// ---- TraceWriter ------------------------------------------------------

TraceWriter::TraceWriter(std::ostream &out, const AddressMap &map,
                         std::size_t k, const TraceWriteOptions &options)
    : out_(out), k_(k), options_(options)
{
    if (map.bytesPerWord > 0xFFFFFFFFu ||
        map.wordsPerRegion > 0xFFFFFFFFu || map.bytesPerRow > 0xFFFFFFFFu ||
        map.rows > 0xFFFFFFFFu || k_ > 0xFFFFFFFFu)
        util::fatal("trace v2: geometry does not fit the 32-bit header");
    std::vector<std::uint8_t> header;
    header.insert(header.end(), kMagic, kMagic + sizeof kMagic);
    append32(header, (std::uint32_t)map.bytesPerWord);
    append32(header, (std::uint32_t)map.wordsPerRegion);
    append32(header, (std::uint32_t)map.bytesPerRow);
    append32(header, (std::uint32_t)map.rows);
    append32(header, (std::uint32_t)k_);
    append32(header, 0);
    out_.write(reinterpret_cast<const char *>(header.data()),
               (std::streamsize)header.size());
}

void
TraceWriter::emitRecord(std::uint32_t kind, const void *payload,
                        std::size_t payload_bytes)
{
    static const char pad[8] = {};
    const std::uint32_t head[2] = {kind, (std::uint32_t)payload_bytes};
    out_.write(reinterpret_cast<const char *>(head), sizeof head);
    out_.write(static_cast<const char *>(payload),
               (std::streamsize)payload_bytes);
    const std::size_t rem = payload_bytes % 8;
    if (rem != 0)
        out_.write(pad, (std::streamsize)(8 - rem));
}

std::uint64_t
TraceWriter::wordSetId(const std::size_t *words, std::size_t count)
{
    std::vector<std::uint64_t> key(words, words + count);
    auto it = wordSets_.find(key);
    if (it != wordSets_.end())
        return it->second;
    const std::uint64_t id = wordSets_.size();
    scratch_.clear();
    append64(scratch_, count);
    for (std::size_t i = 0; i < count; ++i)
        append64(scratch_, key[i]);
    emitRecord(kRecWordSet, scratch_.data(), scratch_.size());
    wordSets_.emplace(std::move(key), id);
    return id;
}

void
TraceWriter::emitWordPayload(std::uint32_t kind, std::uint64_t index,
                             const BitVec &data)
{
    scratch_.clear();
    append64(scratch_, index);
    for (std::size_t w = 0; w < wordsFor(k_); ++w)
        append64(scratch_, data.words()[w]);
    emitRecord(kind, scratch_.data(), scratch_.size());
}

void
TraceWriter::meta(const std::string &text)
{
    emitRecord(kRecMeta, text.data(), text.size());
}

void
TraceWriter::writeWord(std::size_t word, const BitVec &data)
{
    emitWordPayload(kRecWriteWord, word, data);
}

void
TraceWriter::readWord(std::size_t word, const BitVec &data)
{
    emitWordPayload(kRecReadWord, word, data);
}

void
TraceWriter::writeBroadcast(const std::size_t *words, std::size_t count,
                            const BitVec &data)
{
    const std::uint64_t set = wordSetId(words, count);
    scratch_.clear();
    append64(scratch_, set);
    for (std::size_t w = 0; w < wordsFor(k_); ++w)
        append64(scratch_, data.words()[w]);
    emitRecord(kRecWriteBroadcast, scratch_.data(), scratch_.size());
}

void
TraceWriter::readBatch(const std::size_t *words, std::size_t count,
                       const BitVec *results)
{
    std::vector<std::uint64_t> frame;
    readBatchPlanar(words, count,
                    PlanarReadBatch::fromDatawords(results, count, k_,
                                                   frame));
}

void
TraceWriter::readBatchPlanar(const std::size_t *words, std::size_t count,
                             const PlanarReadBatch &view)
{
    emitReadFrame(wordSetId(words, count), view.rows, view.rowStride,
                  view.laneWords, count);
}

void
TraceWriter::emitReadFrame(std::uint64_t set_id,
                           const std::uint64_t *rows,
                           std::size_t row_stride, std::size_t lane_words,
                           std::size_t count)
{
    // The CRC and the raw encoding cover the contiguous frame.
    std::vector<std::uint64_t> packed;
    if (row_stride != lane_words) {
        packed.resize(k_ * lane_words);
        for (std::size_t pos = 0; pos < k_; ++pos)
            std::memcpy(packed.data() + pos * lane_words,
                        rows + pos * row_stride,
                        lane_words * sizeof(std::uint64_t));
        rows = packed.data();
    }
    const std::size_t frame_words = k_ * lane_words;
    const std::uint32_t crc =
        util::crc32(rows, frame_words * sizeof(std::uint64_t));

    // Sparse candidate: per-row majority fill + lane-word exceptions.
    std::vector<std::uint64_t> base(wordsFor(k_), 0);
    std::vector<std::uint64_t> exceptions; // (frameIndex, laneWord)
    const std::uint64_t tail = tailMask(count);
    for (std::size_t pos = 0; pos < k_; ++pos) {
        const std::uint64_t *row = rows + pos * lane_words;
        std::size_t ones = 0;
        for (std::size_t lw = 0; lw < lane_words; ++lw)
            ones += (std::size_t)__builtin_popcountll(row[lw]);
        const bool fill = ones * 2 > count;
        if (fill)
            base[pos / 64] |= std::uint64_t{1} << (pos % 64);
        const std::uint64_t full = fill ? ~std::uint64_t{0} : 0;
        for (std::size_t lw = 0; lw < lane_words; ++lw) {
            const std::uint64_t expect =
                lw + 1 == lane_words ? (full & tail) : full;
            if (row[lw] != expect) {
                exceptions.push_back(pos * lane_words + lw);
                exceptions.push_back(row[lw]);
            }
        }
    }

    const std::size_t raw_bytes = frame_words * sizeof(std::uint64_t);
    const std::size_t sparse_bytes =
        (base.size() + 1 + exceptions.size()) * sizeof(std::uint64_t);
    const bool sparse =
        options_.compressFrames && sparse_bytes < raw_bytes;

    scratch_.clear();
    append64(scratch_, set_id);
    append32(scratch_, sparse ? kFrameSparse : kFrameRaw);
    append32(scratch_, crc);
    if (sparse) {
        for (std::uint64_t w : base)
            append64(scratch_, w);
        append64(scratch_, exceptions.size() / 2);
        for (std::uint64_t w : exceptions)
            append64(scratch_, w);
    } else {
        const auto *p = reinterpret_cast<const std::uint8_t *>(rows);
        scratch_.insert(scratch_.end(), p, p + raw_bytes);
    }
    emitRecord(kRecReadBatch, scratch_.data(), scratch_.size());
}

void
TraceWriter::writeByte(std::size_t byte_addr, std::uint8_t value)
{
    scratch_.clear();
    append64(scratch_, byte_addr);
    append64(scratch_, value);
    emitRecord(kRecWriteByte, scratch_.data(), scratch_.size());
}

void
TraceWriter::readByte(std::size_t byte_addr, std::uint8_t value)
{
    scratch_.clear();
    append64(scratch_, byte_addr);
    append64(scratch_, value);
    emitRecord(kRecReadByte, scratch_.data(), scratch_.size());
}

void
TraceWriter::fill(std::uint8_t value)
{
    scratch_.clear();
    append64(scratch_, value);
    emitRecord(kRecFill, scratch_.data(), scratch_.size());
}

void
TraceWriter::pause(double seconds, double temp_c)
{
    scratch_.clear();
    appendDouble(scratch_, seconds);
    appendDouble(scratch_, temp_c);
    emitRecord(kRecPause, scratch_.data(), scratch_.size());
}

// ---- TraceRecorder ----------------------------------------------------

TraceRecorder::TraceRecorder(MemoryInterface &inner, std::ostream &out,
                             const TraceWriteOptions &options)
    : inner_(inner),
      writer_(out, inner.addressMap(), inner.datawordBits(), options)
{
}

void
TraceRecorder::writeMeta(const std::string &text)
{
    writer_.meta(text);
}

const AddressMap &
TraceRecorder::addressMap() const
{
    return inner_.addressMap();
}

std::size_t
TraceRecorder::datawordBits() const
{
    return inner_.datawordBits();
}

void
TraceRecorder::writeDataword(std::size_t word_index, const BitVec &data)
{
    inner_.writeDataword(word_index, data);
    writer_.writeWord(word_index, data);
}

BitVec
TraceRecorder::readDataword(std::size_t word_index)
{
    BitVec data = inner_.readDataword(word_index);
    writer_.readWord(word_index, data);
    return data;
}

void
TraceRecorder::writeDatawordsBroadcast(const std::size_t *words,
                                       std::size_t count,
                                       const BitVec &data)
{
    inner_.writeDatawordsBroadcast(words, count, data);
    writer_.writeBroadcast(words, count, data);
}

void
TraceRecorder::readDatawords(const std::size_t *words, std::size_t count,
                             std::vector<BitVec> &out)
{
    inner_.readDatawords(words, count, out);
    writer_.readBatch(words, count, out.data());
}

bool
TraceRecorder::readDatawordsPlanar(const std::size_t *words,
                                   std::size_t count, PlanarReadBatch &out)
{
    if (!inner_.readDatawordsPlanar(words, count, out))
        return false;
    writer_.readBatchPlanar(words, count, out);
    return true;
}

void
TraceRecorder::writeByte(std::size_t byte_addr, std::uint8_t value)
{
    inner_.writeByte(byte_addr, value);
    writer_.writeByte(byte_addr, value);
}

std::uint8_t
TraceRecorder::readByte(std::size_t byte_addr)
{
    const std::uint8_t value = inner_.readByte(byte_addr);
    writer_.readByte(byte_addr, value);
    return value;
}

void
TraceRecorder::fill(std::uint8_t value)
{
    inner_.fill(value);
    writer_.fill(value);
}

void
TraceRecorder::pauseRefresh(double seconds, double temp_c)
{
    inner_.pauseRefresh(seconds, temp_c);
    writer_.pause(seconds, temp_c);
}

// ---- TraceReplayBackend: parsing --------------------------------------

TraceReplayBackend::TraceReplayBackend(std::istream &in)
{
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    // Copy into uint64 storage so payloads are 8-byte aligned.
    buffer_.resize((bytes.size() + 7) / 8, 0);
    if (!bytes.empty())
        std::memcpy(buffer_.data(), bytes.data(), bytes.size());
    parseBinary(reinterpret_cast<const std::uint8_t *>(buffer_.data()),
                bytes.size(), "trace stream");
}

TraceReplayBackend::TraceReplayBackend(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        util::fatal("cannot open trace file '%s'", path.c_str());
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        util::fatal("cannot stat trace file '%s'", path.c_str());
    }
    const std::size_t len = (std::size_t)st.st_size;
    // An empty file cannot be mapped; parseBinary refuses it as not v2.
    void *base = len == 0 ? nullptr
                          : ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE,
                                   fd, 0);
    ::close(fd);
    if (base == MAP_FAILED)
        util::fatal("cannot mmap trace file '%s'", path.c_str());
    mapBase_ = base;
    mapLen_ = len;
    parseBinary(static_cast<const std::uint8_t *>(base), len,
                "'" + path + "'");
}

TraceReplayBackend::~TraceReplayBackend()
{
    if (mapBase_ != nullptr)
        ::munmap(mapBase_, mapLen_);
}

void
TraceReplayBackend::parseBinary(const std::uint8_t *data, std::size_t len,
                                const std::string &source)
{
    if (len < kHeaderBytes ||
        std::memcmp(data, kMagic, sizeof kMagic) != 0)
        util::fatal("%s", notV2Message(source).c_str());
    map_.bytesPerWord = ld32(data + 8);
    map_.wordsPerRegion = ld32(data + 12);
    map_.bytesPerRow = ld32(data + 16);
    map_.rows = ld32(data + 20);
    k_ = ld32(data + 24);
    if (k_ == 0)
        util::fatal("trace v2: header has k = 0");
    map_.validate();
    const std::size_t data_words = wordsFor(k_);

    // Word sets referenced by later batch records, in file order.
    std::vector<std::pair<const std::uint64_t *, std::size_t>> sets;

    std::size_t offset = kHeaderBytes;
    std::size_t record_no = 0;
    while (offset < len) {
        ++record_no;
        if (offset + 8 > len)
            util::fatal("trace v2: truncated header of record %zu",
                        record_no);
        const std::uint32_t kind = ld32(data + offset);
        const std::size_t payload_bytes = ld32(data + offset + 4);
        const std::uint8_t *payload = data + offset + 8;
        const std::size_t next = offset + 8 + roundUp8(payload_bytes);
        if (next < offset || next > len)
            util::fatal("trace v2: record %zu overruns the file "
                        "(truncated trace?)",
                        record_no);

        auto want = [&](bool ok) {
            if (!ok)
                util::fatal("trace v2: malformed record %zu (kind %u)",
                            record_no, kind);
        };
        // Payloads are 8-aligned: the header is 32 bytes and every
        // record is padded, so uint64 views of the mmap are safe.
        const auto *p64 =
            reinterpret_cast<const std::uint64_t *>(payload);

        TraceRecord rec;
        rec.line = record_no;
        switch (kind) {
        case kRecMeta: {
            rec.kind = TraceRecord::Kind::Meta;
            rec.metaIndex = meta_.size();
            meta_.emplace_back(reinterpret_cast<const char *>(payload),
                               payload_bytes);
            break;
        }
        case kRecWordSet: {
            want(payload_bytes >= 8);
            const std::uint64_t count = p64[0];
            want(payload_bytes == 8 + count * 8);
            sets.emplace_back(p64 + 1, (std::size_t)count);
            offset = next;
            continue; // not an operation record
        }
        case kRecWriteBroadcast: {
            want(payload_bytes == 8 + data_words * 8);
            const std::uint64_t set = p64[0];
            want(set < sets.size());
            rec.kind = TraceRecord::Kind::WriteBroadcast;
            rec.words = sets[set].first;
            rec.count = sets[set].second;
            rec.data = bitvecFromWords(p64 + 1, k_);
            break;
        }
        case kRecReadBatch: {
            want(payload_bytes >= 16);
            const std::uint64_t set = p64[0];
            want(set < sets.size());
            const std::uint32_t encoding = ld32(payload + 8);
            const std::uint32_t crc = ld32(payload + 12);
            rec.kind = TraceRecord::Kind::ReadBatch;
            rec.words = sets[set].first;
            rec.count = sets[set].second;
            rec.laneWords = wordsFor(rec.count);
            const std::size_t frame_words = k_ * rec.laneWords;
            if (encoding == kFrameRaw) {
                want(payload_bytes == 16 + frame_words * 8);
                rec.frame = p64 + 2; // zero-copy out of the mmap
            } else if (encoding == kFrameSparse) {
                want(payload_bytes >= 16 + data_words * 8 + 8);
                const std::uint64_t *base = p64 + 2;
                const std::uint64_t ex_count = base[data_words];
                want(payload_bytes ==
                     16 + data_words * 8 + 8 + ex_count * 16);
                const std::uint64_t *pairs = base + data_words + 1;
                std::vector<std::uint64_t> frame(frame_words);
                const std::uint64_t tail = tailMask(rec.count);
                for (std::size_t pos = 0; pos < k_; ++pos) {
                    const bool fill = (base[pos / 64] >> (pos % 64)) & 1;
                    const std::uint64_t full =
                        fill ? ~std::uint64_t{0} : 0;
                    std::uint64_t *row =
                        frame.data() + pos * rec.laneWords;
                    for (std::size_t lw = 0; lw < rec.laneWords; ++lw)
                        row[lw] = lw + 1 == rec.laneWords
                                      ? (full & tail)
                                      : full;
                }
                for (std::uint64_t e = 0; e < ex_count; ++e) {
                    const std::uint64_t idx = pairs[e * 2];
                    want(idx < frame_words);
                    frame[idx] = pairs[e * 2 + 1];
                }
                owned_.push_back(std::move(frame));
                rec.frame = owned_.back().data();
            } else {
                want(false);
            }
            if (util::crc32(rec.frame, frame_words * 8) != crc)
                util::fatal("trace v2: read-frame CRC mismatch in "
                            "record %zu (corrupted trace?)",
                            record_no);
            // PlanarReadBatch promises zero lane bits past count; a
            // crafted frame that passes its CRC must not break that.
            for (std::size_t pos = 0; rec.laneWords && pos < k_; ++pos)
                if (rec.frame[(pos + 1) * rec.laneWords - 1] &
                    ~tailMask(rec.count))
                    util::fatal("trace v2: read frame in record %zu "
                                "sets lane bits past its %zu words",
                                record_no, rec.count);
            break;
        }
        case kRecWriteWord:
        case kRecReadWord: {
            want(payload_bytes == 8 + data_words * 8);
            rec.kind = kind == kRecWriteWord
                           ? TraceRecord::Kind::WriteWord
                           : TraceRecord::Kind::ReadWord;
            rec.index = (std::size_t)p64[0];
            rec.data = bitvecFromWords(p64 + 1, k_);
            break;
        }
        case kRecWriteByte:
        case kRecReadByte: {
            want(payload_bytes == 16 && p64[1] <= 0xFF);
            rec.kind = kind == kRecWriteByte
                           ? TraceRecord::Kind::WriteByte
                           : TraceRecord::Kind::ReadByte;
            rec.index = (std::size_t)p64[0];
            rec.byte = (std::uint8_t)p64[1];
            break;
        }
        case kRecFill: {
            want(payload_bytes == 8 && p64[0] <= 0xFF);
            rec.kind = TraceRecord::Kind::Fill;
            rec.byte = (std::uint8_t)p64[0];
            break;
        }
        case kRecPause: {
            want(payload_bytes == 16);
            rec.kind = TraceRecord::Kind::Pause;
            std::memcpy(&rec.seconds, payload, 8);
            std::memcpy(&rec.tempC, payload + 8, 8);
            break;
        }
        default:
            util::fatal("trace v2: unknown record kind %u at record %zu",
                        kind, record_no);
        }
        stream_.push_back(std::move(rec));
        offset = next;
    }

    for (const TraceRecord &rec : stream_)
        totalElements_ += rec.elements();
}

// ---- TraceReplayBackend: replay ---------------------------------------

const TraceRecord &
TraceReplayBackend::current(const char *requested)
{
    while (rec_ < stream_.size() &&
           stream_[rec_].kind == TraceRecord::Kind::Meta)
        ++rec_;
    if (rec_ >= stream_.size())
        util::fatal("trace replay: %s requested but the trace is "
                    "exhausted after %zu operations",
                    requested, totalElements_);
    return stream_[rec_];
}

void
TraceReplayBackend::consumeElement()
{
    ++consumedElements_;
    if (++elem_ >= stream_[rec_].elements()) {
        ++rec_;
        elem_ = 0;
    }
}

void
TraceReplayBackend::consumeRecord()
{
    consumedElements_ += stream_[rec_].elements() - elem_;
    ++rec_;
    elem_ = 0;
}

void
TraceReplayBackend::diverge(const std::string &requested,
                            const TraceRecord &rec)
{
    util::fatal("trace replay diverged at record %zu: requested %s, but "
                "the trace records %s",
                rec.line, requested.c_str(),
                describeRecordElement(rec, elem_, k_).c_str());
}

void
TraceReplayBackend::writeDataword(std::size_t word_index,
                                  const BitVec &data)
{
    const TraceRecord &rec = current("writeDataword");
    if (rec.kind == TraceRecord::Kind::WriteWord) {
        if (rec.index == word_index && rec.data == data) {
            consumeElement();
            return;
        }
    } else if (rec.kind == TraceRecord::Kind::WriteBroadcast) {
        if (rec.words[elem_] == word_index && rec.data == data) {
            consumeElement();
            return;
        }
    }
    diverge(describeWordOp("writeDataword", word_index, data), rec);
}

BitVec
TraceReplayBackend::readDataword(std::size_t word_index)
{
    const TraceRecord &rec = current("readDataword");
    if (rec.kind == TraceRecord::Kind::ReadWord &&
        rec.index == word_index) {
        BitVec data = rec.data;
        consumeElement();
        return data;
    }
    if (rec.kind == TraceRecord::Kind::ReadBatch &&
        rec.words[elem_] == word_index) {
        BitVec data = gatherElement(rec, elem_, k_);
        consumeElement();
        return data;
    }
    diverge("readDataword(word " + std::to_string(word_index) + ")",
            rec);
}

void
TraceReplayBackend::writeDatawordsBroadcast(const std::size_t *words,
                                            std::size_t count,
                                            const BitVec &data)
{
    if (count == 0)
        return;
    const TraceRecord &rec = current("writeDatawordsBroadcast");
    if (rec.kind == TraceRecord::Kind::WriteBroadcast && elem_ == 0 &&
        rec.count == count && rec.data == data) {
        bool match = true;
        for (std::size_t i = 0; i < count; ++i)
            if (rec.words[i] != words[i]) {
                match = false;
                break;
            }
        if (match) {
            consumeRecord();
            return;
        }
    }
    // Any other alignment (scalar records, a differently-split batch,
    // or a true divergence) replays element by element; writeDataword
    // raises the diagnostic on the first mismatching element.
    for (std::size_t i = 0; i < count; ++i)
        writeDataword(words[i], data);
}

void
TraceReplayBackend::readDatawords(const std::size_t *words,
                                  std::size_t count,
                                  std::vector<BitVec> &out)
{
    out.clear();
    if (count == 0)
        return;
    current("readDatawords"); // exhaustion names the batched op
    PlanarReadBatch frame;
    if (readDatawordsPlanar(words, count, frame)) {
        frame.toDatawords(k_, out);
        return;
    }
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(readDataword(words[i]));
}

bool
TraceReplayBackend::readDatawordsPlanar(const std::size_t *words,
                                        std::size_t count,
                                        PlanarReadBatch &out)
{
    if (count == 0)
        return false;
    // Peek without committing: a decline must have no side effects.
    std::size_t r = rec_;
    while (r < stream_.size() &&
           stream_[r].kind == TraceRecord::Kind::Meta)
        ++r;
    if (r >= stream_.size())
        return false;
    const TraceRecord &rec = stream_[r];
    if (rec.kind != TraceRecord::Kind::ReadBatch || elem_ != 0 ||
        rec.count != count)
        return false;
    for (std::size_t i = 0; i < count; ++i)
        if (rec.words[i] != words[i])
            return false;
    out.rows = rec.frame;
    out.rowStride = rec.laneWords;
    out.laneWords = rec.laneWords;
    out.count = count;
    rec_ = r;
    consumeRecord();
    return true;
}

void
TraceReplayBackend::writeByte(std::size_t byte_addr, std::uint8_t value)
{
    const TraceRecord &rec = current("writeByte");
    if (rec.kind == TraceRecord::Kind::WriteByte &&
        rec.index == byte_addr && rec.byte == value) {
        consumeElement();
        return;
    }
    diverge("writeByte(addr " + std::to_string(byte_addr) + ", value " +
                std::to_string(value) + ")",
            rec);
}

std::uint8_t
TraceReplayBackend::readByte(std::size_t byte_addr)
{
    const TraceRecord &rec = current("readByte");
    if (rec.kind == TraceRecord::Kind::ReadByte &&
        rec.index == byte_addr) {
        const std::uint8_t value = rec.byte;
        consumeElement();
        return value;
    }
    diverge("readByte(addr " + std::to_string(byte_addr) + ")", rec);
}

void
TraceReplayBackend::fill(std::uint8_t value)
{
    const TraceRecord &rec = current("fill");
    if (rec.kind == TraceRecord::Kind::Fill && rec.byte == value) {
        consumeElement();
        return;
    }
    diverge("fill(" + std::to_string(value) + ")", rec);
}

void
TraceReplayBackend::pauseRefresh(double seconds, double temp_c)
{
    const TraceRecord &rec = current("pauseRefresh");
    if (rec.kind == TraceRecord::Kind::Pause && rec.seconds == seconds &&
        rec.tempC == temp_c) {
        consumeElement();
        return;
    }
    diverge("pauseRefresh(" + formatTraceDouble(seconds) + ", " +
                formatTraceDouble(temp_c) + ")",
            rec);
}

// ---- magic check ------------------------------------------------------

std::string
traceFileMagicError(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open trace file '" + path + "'";
    char magic[sizeof kMagic] = {};
    in.read(magic, sizeof magic);
    if (in.gcount() == (std::streamsize)sizeof magic &&
        std::memcmp(magic, kMagic, sizeof magic) == 0)
        return "";
    return notV2Message("'" + path + "'");
}

} // namespace beer::dram
