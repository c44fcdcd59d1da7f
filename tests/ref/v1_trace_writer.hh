/**
 * @file
 * Reference writer for the retired v1 text trace format (grammar in
 * tools/v1_trace_reader.hh): renders a parsed trace's records as
 * per-word v1 lines, exactly as the retired production v1 writer
 * emitted them. The suites use it to get v1 bytes for the one v1
 * reader, beer_trace_convert's upgrade, and for the refusals of
 * replay and the service; nothing in the library reads or writes v1.
 */

#ifndef BEER_TESTS_REF_V1_TRACE_WRITER_HH
#define BEER_TESTS_REF_V1_TRACE_WRITER_HH

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "dram/trace.hh"

namespace beer::test::ref
{

/**
 * The v1 text of @p trace: header, then one line per meta record and
 * per word op, batches expanded to their elements in recorded order.
 */
inline std::string
renderV1Trace(const dram::TraceReplayBackend &trace)
{
    using Kind = dram::TraceRecord::Kind;
    const dram::AddressMap &map = trace.addressMap();
    const std::size_t k = trace.datawordBits();
    std::ostringstream out;
    out << "beertrace 1\n"
        << "geom " << map.bytesPerWord << ' ' << map.wordsPerRegion << ' '
        << map.bytesPerRow << ' ' << map.rows << '\n'
        << "k " << k << '\n';
    for (const dram::TraceRecord &rec : trace.records()) {
        switch (rec.kind) {
        case Kind::Meta:
            out << "meta " << trace.metaLines()[rec.metaIndex] << '\n';
            break;
        case Kind::WriteWord:
            out << "w " << rec.index << ' ' << rec.data.toString() << '\n';
            break;
        case Kind::ReadWord:
            out << "r " << rec.index << ' ' << rec.data.toString() << '\n';
            break;
        case Kind::WriteBroadcast: {
            const std::string bits = rec.data.toString();
            for (std::size_t t = 0; t < rec.count; ++t)
                out << "w " << rec.words[t] << ' ' << bits << '\n';
            break;
        }
        case Kind::ReadBatch: {
            std::string bits(k, '0');
            for (std::size_t t = 0; t < rec.count; ++t) {
                const std::uint64_t mask = std::uint64_t{1} << (t % 64);
                for (std::size_t pos = 0; pos < k; ++pos)
                    bits[pos] = (rec.frame[pos * rec.laneWords + t / 64] &
                                 mask)
                                    ? '1'
                                    : '0';
                out << "r " << rec.words[t] << ' ' << bits << '\n';
            }
            break;
        }
        case Kind::WriteByte:
            out << "wb " << rec.index << ' ' << (unsigned)rec.byte << '\n';
            break;
        case Kind::ReadByte:
            out << "rb " << rec.index << ' ' << (unsigned)rec.byte << '\n';
            break;
        case Kind::Fill:
            out << "f " << (unsigned)rec.byte << '\n';
            break;
        case Kind::Pause:
            out << "p " << dram::formatTraceDouble(rec.seconds) << ' '
                << dram::formatTraceDouble(rec.tempC) << '\n';
            break;
        }
    }
    return out.str();
}

/** renderV1Trace() of the v2 trace held in @p bytes. */
inline std::string
renderV1Trace(const std::string &bytes)
{
    std::istringstream in(bytes);
    const dram::TraceReplayBackend trace(in);
    return renderV1Trace(trace);
}

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_V1_TRACE_WRITER_HH
