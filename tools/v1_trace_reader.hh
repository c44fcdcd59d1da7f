/**
 * @file
 * Reader for the retired v1 text trace format. Nothing writes v1 any
 * more and the library replays v2 only (dram/trace.hh), so this reader
 * lives with beer_trace_convert, the one program that still accepts
 * v1: it upgrades a v1 stream to v2 by feeding dram::TraceWriter. It
 * is a header because every .cc file in tools/ builds into its own
 * executable; the trace suites include it to turn v1 fixtures into v2.
 *
 * ## Format v1 — text, one line per word op
 *
 *     beertrace 1
 *     geom <bytesPerWord> <wordsPerRegion> <bytesPerRow> <rows>
 *     k <dataword-bits>
 *     w <word> <dataword-bits-as-01-string>    # writeDataword
 *     r <word> <returned-dataword>             # readDataword + result
 *     wb <byte-addr> <value>                   # writeByte (decimal)
 *     rb <byte-addr> <value>                   # readByte + result
 *     f <value>                                # fill
 *     p <seconds> <temp-c>                     # pauseRefresh
 *
 * Lines starting with '#' are comments; "meta" lines carry
 * analysis-level annotations and are copied uninterpreted. The three
 * header lines come before any other record. v1 has no batch records:
 * batched interface calls were stored as their per-word lines, at
 * ~(k + 10) bytes per word op. The upgrade groups them back: a run of
 * consecutive `w` lines with the same data becomes one broadcast
 * record, a run of consecutive `r` lines one read batch, and a run of
 * one stays a scalar record. Replay matches elements, not batch
 * boundaries, so the v2 file replays exactly as the v1 lines did.
 */

#ifndef BEER_TOOLS_V1_TRACE_READER_HH
#define BEER_TOOLS_V1_TRACE_READER_HH

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "dram/trace.hh"
#include "gf2/bitvec.hh"
#include "util/logging.hh"

namespace beer::tools
{

/**
 * Upgrade the v1 text trace on @p in to v2 on @p out (a binary-clean
 * stream) and return its word-granular operation count. Malformed
 * input is fatal, naming the line.
 */
inline std::size_t
upgradeV1Trace(std::istream &in, std::ostream &out,
               const dram::TraceWriteOptions &options = {})
{
    dram::AddressMap map;
    std::size_t k = 0;
    bool saw_version = false;
    bool saw_geom = false;
    bool saw_k = false;
    std::optional<dram::TraceWriter> writer;
    std::size_t ops = 0;

    // The pending run: 'w' (run_data holds the one shared pattern),
    // 'r' (one result per word) or 0.
    char run = 0;
    std::vector<std::size_t> run_words;
    std::vector<gf2::BitVec> run_data;
    auto flushRun = [&] {
        const std::size_t count = run_words.size();
        if (count == 1 && run == 'w')
            writer->writeWord(run_words[0], run_data[0]);
        else if (count == 1)
            writer->readWord(run_words[0], run_data[0]);
        else if (run == 'w')
            writer->writeBroadcast(run_words.data(), count, run_data[0]);
        else if (run == 'r')
            writer->readBatch(run_words.data(), count, run_data.data());
        ops += count;
        run = 0;
        run_words.clear();
        run_data.clear();
    };

    // The header is complete by the first other record, or by the end.
    auto startWriter = [&](const std::string &where) {
        if (!saw_version || !saw_geom || !saw_k)
            util::fatal("not a v1 trace: no complete beertrace/geom/k "
                        "header before %s",
                        where.c_str());
        map.validate();
        writer.emplace(out, map, k, options);
    };

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;

        std::istringstream fields(line);
        std::string op;
        fields >> op;
        auto want = [&](bool ok) {
            if (!ok || fields.fail())
                util::fatal("v1 trace line %zu: malformed '%s' record",
                            line_no, op.c_str());
        };

        if (op == "beertrace" || op == "geom" || op == "k") {
            want(!writer);
            if (op == "beertrace") {
                int version = 0;
                fields >> version;
                want(version == 1);
                saw_version = true;
            } else if (op == "geom") {
                fields >> map.bytesPerWord >> map.wordsPerRegion >>
                    map.bytesPerRow >> map.rows;
                want(true);
                saw_geom = true;
            } else {
                fields >> k;
                want(k > 0);
                saw_k = true;
            }
            continue;
        }
        if (!writer)
            startWriter("line " + std::to_string(line_no));

        if (op == "w" || op == "r") {
            std::size_t index = 0;
            std::string bits;
            fields >> index >> bits;
            want(bits.size() == k &&
                 bits.find_first_not_of("01") == std::string::npos);
            gf2::BitVec data = gf2::BitVec::fromString(bits);
            const char kind = op[0];
            if (run != kind || (kind == 'w' && !(run_data[0] == data)))
                flushRun();
            run = kind;
            run_words.push_back(index);
            if (kind == 'r' || run_data.empty())
                run_data.push_back(std::move(data));
            continue;
        }

        flushRun();
        if (op == "meta") {
            std::string rest;
            std::getline(fields, rest);
            if (!rest.empty() && rest[0] == ' ')
                rest.erase(0, 1);
            writer->meta(rest);
        } else if (op == "wb" || op == "rb" || op == "f") {
            std::size_t addr = 0;
            if (op != "f")
                fields >> addr;
            unsigned value = 0;
            fields >> value;
            want(value <= 0xFF);
            if (op == "wb")
                writer->writeByte(addr, (std::uint8_t)value);
            else if (op == "rb")
                writer->readByte(addr, (std::uint8_t)value);
            else
                writer->fill((std::uint8_t)value);
            ++ops;
        } else if (op == "p") {
            double seconds = 0.0;
            double temp_c = 0.0;
            fields >> seconds >> temp_c;
            want(true);
            writer->pause(seconds, temp_c);
            ++ops;
        } else {
            util::fatal("v1 trace line %zu: unknown record '%s'", line_no,
                        op.c_str());
        }
    }
    if (!writer)
        startWriter("the end of the input");
    flushRun();
    return ops;
}

} // namespace beer::tools

#endif // BEER_TOOLS_V1_TRACE_READER_HH
