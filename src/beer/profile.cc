#include "beer/profile.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "util/logging.hh"

namespace beer
{

using gf2::BitVec;

bool
miscorrectionPossible(const ecc::LinearCode &code,
                      const TestPattern &pattern, std::size_t bit)
{
    BEER_ASSERT(bit < code.k());
    BEER_ASSERT(!patternContains(pattern, bit));

    // U = xor of the charged data bits' H columns = charge pattern of
    // the parity cells.
    BitVec charged_parity(code.numParityBits());
    for (std::size_t i : pattern)
        charged_parity ^= code.hColumn(i);

    const BitVec col_j = code.hColumn(bit);

    // Check every subset T of pattern \ {first element}; complements
    // give identical conditions (v and v ^ U are subsets of supp(U)
    // together or not at all).
    const std::size_t reduced =
        pattern.empty() ? 0 : pattern.size() - 1;
    for (std::size_t subset = 0; subset < ((std::size_t)1 << reduced);
         ++subset) {
        BitVec v = col_j;
        for (std::size_t i = 0; i < reduced; ++i)
            if ((subset >> i) & 1)
                v ^= code.hColumn(pattern[i + 1]);
        if (v.isSubsetOf(charged_parity))
            return true;
    }
    return false;
}

bool
miscorrectionPossible(const std::vector<std::uint64_t> &columns,
                      const TestPattern &pattern, std::size_t bit)
{
    std::uint64_t charged_parity = 0;
    for (std::size_t i : pattern)
        charged_parity ^= columns[i];
    const std::size_t reduced =
        pattern.empty() ? 0 : pattern.size() - 1;
    for (std::size_t subset = 0; subset < ((std::size_t)1 << reduced);
         ++subset) {
        std::uint64_t v = columns[bit];
        for (std::size_t i = 0; i < reduced; ++i)
            if ((subset >> i) & 1)
                v ^= columns[pattern[i + 1]];
        if ((v & ~charged_parity) == 0)
            return true;
    }
    return false;
}

bool
miscorrectionPossibleBruteForce(const ecc::LinearCode &code,
                                const TestPattern &pattern,
                                std::size_t bit)
{
    BEER_ASSERT(bit < code.k());
    BEER_ASSERT(!patternContains(pattern, bit));

    // Enumerate all error patterns over the charged cells: the charged
    // data bits plus the parity cells set by encoding.
    std::vector<std::size_t> charged_cells(pattern.begin(),
                                           pattern.end());
    BitVec charged_parity(code.numParityBits());
    for (std::size_t i : pattern)
        charged_parity ^= code.hColumn(i);
    for (std::size_t r = 0; r < code.numParityBits(); ++r)
        if (charged_parity.get(r))
            charged_cells.push_back(code.k() + r);

    BEER_ASSERT(charged_cells.size() <= 20);
    const BitVec target = code.hColumn(bit);
    for (std::size_t e = 1; e < ((std::size_t)1 << charged_cells.size());
         ++e) {
        BitVec syndrome(code.numParityBits());
        for (std::size_t i = 0; i < charged_cells.size(); ++i)
            if ((e >> i) & 1)
                syndrome ^= code.hColumn(charged_cells[i]);
        if (syndrome == target)
            return true;
    }
    return false;
}

MiscorrectionProfile
exhaustiveProfile(const ecc::LinearCode &code,
                  const std::vector<TestPattern> &patterns)
{
    MiscorrectionProfile profile;
    profile.k = code.k();
    profile.patterns.reserve(patterns.size());
    for (const TestPattern &pattern : patterns) {
        PatternProfile entry;
        entry.pattern = pattern;
        entry.miscorrectable = BitVec(code.k());
        for (std::size_t bit = 0; bit < code.k(); ++bit) {
            if (patternContains(pattern, bit))
                continue;
            if (miscorrectionPossible(code, pattern, bit))
                entry.miscorrectable.set(bit, true);
        }
        profile.patterns.push_back(std::move(entry));
    }
    return profile;
}

std::string
serializeProfile(const MiscorrectionProfile &profile)
{
    // Suspect markers bump the declared version so strict old readers
    // fail deliberately; marker-free profiles keep emitting version 2
    // byte-identically.
    bool any_suspect = false;
    for (const PatternProfile &entry : profile.patterns)
        any_suspect = any_suspect || entry.suspect;

    std::string out = "# BEER miscorrection profile\n";
    out += "version " +
           std::to_string(any_suspect ? kProfileFormatVersionMax
                                      : kProfileFormatVersion) +
           "\n";
    out += "k " + std::to_string(profile.k) + "\n";
    out.reserve(out.size() + profile.patterns.size() * (profile.k + 8));
    for (const PatternProfile &entry : profile.patterns) {
        for (std::size_t i = 0; i < entry.pattern.size(); ++i) {
            if (i)
                out += ',';
            out += std::to_string(entry.pattern[i]);
        }
        out += ' ';
        for (std::size_t j = 0; j < entry.miscorrectable.size(); ++j)
            out += entry.miscorrectable.get(j) ? '1' : '0';
        if (entry.suspect)
            out += " ?";
        out += "\n";
    }
    return out;
}

namespace
{

/** printf into a std::string (for ProfileParseStatus::error). */
std::string
formatError(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

/** The characters std::istream's >> skips in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (unsigned char)(c - '\t') <= '\r' - '\t';
}

/** Next whitespace-delimited token at or after @p pos (empty when
 *  none is left); @p pos moves past it. */
std::string_view
nextToken(std::string_view line, std::size_t &pos)
{
    while (pos < line.size() && isSpace(line[pos]))
        ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && !isSpace(line[pos]))
        ++pos;
    return line.substr(start, pos - start);
}

/**
 * One charged-bit item, read exactly as std::strtoul(item, &end, 10)
 * with the whole item consumed (so an empty item reads as 0, "+3" as
 * 3 and "-1" as ULONG_MAX). Plain digit strings skip the copy.
 */
bool
parseChargedBit(std::string_view item, unsigned long &bit)
{
    if (item.size() <= 19) {
        unsigned long value = 0;
        std::size_t i = 0;
        for (; i < item.size() && item[i] >= '0' && item[i] <= '9'; ++i)
            value = 10 * value + (unsigned long)(item[i] - '0');
        if (i == item.size()) {
            bit = value;
            return true;
        }
    }
    const std::string copy(item);
    char *end = nullptr;
    bit = std::strtoul(copy.c_str(), &end, 10);
    return end && *end == '\0';
}

} // anonymous namespace

ProfileParseStatus
tryParseProfile(std::string_view text, MiscorrectionProfile &out)
{
    MiscorrectionProfile profile;
    ProfileParseStatus status;
    std::size_t line_no = 0;
    bool have_k = false;
    bool have_version = false;

    const auto fail = [&](std::string error) {
        status.ok = false;
        status.error = std::move(error);
        return status;
    };

    profile.patterns.reserve(
        (std::size_t)std::count(text.begin(), text.end(), '\n'));
    for (std::size_t next = 0; next < text.size();) {
        std::size_t eol = text.find('\n', next);
        if (eol == std::string_view::npos)
            eol = text.size();
        std::string_view line = text.substr(next, eol - next);
        next = eol + 1;
        ++line_no;
        // Strip comments and whitespace-only lines.
        line = line.substr(0, line.find('#'));
        std::size_t pos = 0;
        const std::string_view first = nextToken(line, pos);
        if (first.empty())
            continue;

        if (!have_k) {
            // Header lines keep stream extraction for its number
            // syntax (sign, overflow, trailing text).
            std::istringstream ss{std::string(line.substr(pos))};
            // Optional "version <n>" line ahead of the k header; its
            // absence means the legacy version-1 format.
            if (!have_version && first == "version") {
                std::size_t version = 0;
                if (!(ss >> version) || version == 0)
                    return fail(formatError(
                        "profile line %zu: expected 'version <n>'",
                        line_no));
                if (version > kProfileFormatVersionMax)
                    return fail(formatError(
                        "profile line %zu: unsupported format version "
                        "%zu (this build reads versions up to %zu)",
                        line_no, version, kProfileFormatVersionMax));
                status.version = version;
                have_version = true;
                continue;
            }
            std::size_t k = 0;
            if (first != "k" || !(ss >> k) || k == 0)
                return fail(formatError(
                    "profile line %zu: expected header 'k <bits>'",
                    line_no));
            profile.k = k;
            have_k = true;
            continue;
        }

        const std::string_view bitmap = nextToken(line, pos);
        if (bitmap.empty())
            return fail(formatError(
                "profile line %zu: expected '<charged-csv> <bitmap>'",
                line_no));
        if (bitmap.size() != profile.k)
            return fail(formatError(
                "profile line %zu: bitmap has %zu bits, expected %zu",
                line_no, bitmap.size(), profile.k));
        PatternProfile entry;
        entry.miscorrectable = BitVec(profile.k);
        // Packed a word at a time. '0'/'1' map to 0/1; any other
        // character sets a higher bit of `bad`.
        for (std::size_t base = 0; base < bitmap.size(); base += 64) {
            const std::size_t n =
                std::min<std::size_t>(64, bitmap.size() - base);
            std::uint64_t word = 0;
            unsigned char bad = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const unsigned char bit =
                    (unsigned char)(bitmap[base + i] - '0');
                bad |= bit;
                word |= std::uint64_t(bit & 1) << i;
            }
            if (bad > 1)
                return fail(formatError(
                    "profile line %zu: bitmap must be 0/1", line_no));
            entry.miscorrectable.words()[base / 64] = word;
        }

        // Items split like std::getline(first, item, ','): a trailing
        // empty item after the last comma is not one.
        entry.pattern.reserve(
            1 + (std::size_t)std::count(first.begin(), first.end(), ','));
        for (std::size_t at = 0; at < first.size();) {
            std::size_t comma = first.find(',', at);
            if (comma == std::string_view::npos)
                comma = first.size();
            const std::string_view item = first.substr(at, comma - at);
            at = comma + 1;
            unsigned long bit = 0;
            if (!parseChargedBit(item, bit) || bit >= profile.k)
                return fail(formatError(
                    "profile line %zu: bad charged bit '%s'", line_no,
                    std::string(item).c_str()));
            entry.pattern.push_back(bit);
        }
        if (entry.pattern.empty())
            return fail(formatError("profile line %zu: empty pattern",
                                    line_no));
        std::sort(entry.pattern.begin(), entry.pattern.end());

        for (std::size_t bit : entry.pattern)
            if (entry.miscorrectable.get(bit))
                return fail(formatError(
                    "profile line %zu: charged bit %zu marked "
                    "miscorrectable",
                    line_no, bit));
        // Optional version-3 suspect marker; anything else trailing
        // is malformed (older parsers silently ignored trailing
        // tokens, which is exactly how payload corruption hides).
        const std::string_view marker = nextToken(line, pos);
        if (!marker.empty()) {
            if (marker != "?")
                return fail(formatError(
                    "profile line %zu: unexpected trailing token '%s'",
                    line_no, std::string(marker).c_str()));
            entry.suspect = true;
            const std::string_view extra = nextToken(line, pos);
            if (!extra.empty())
                return fail(formatError(
                    "profile line %zu: unexpected trailing token '%s'",
                    line_no, std::string(extra).c_str()));
        }
        profile.patterns.push_back(std::move(entry));
    }

    if (!have_k)
        return fail("profile: missing 'k <bits>' header");
    status.ok = true;
    out = std::move(profile);
    return status;
}

ProfileParseStatus
tryParseProfile(std::istream &in, MiscorrectionProfile &out)
{
    std::string text;
    char buf[4096];
    while (in.read(buf, sizeof buf) || in.gcount() > 0)
        text.append(buf, (std::size_t)in.gcount());
    return tryParseProfile(std::string_view(text), out);
}

MiscorrectionProfile
parseProfile(std::istream &in)
{
    MiscorrectionProfile profile;
    const ProfileParseStatus status = tryParseProfile(in, profile);
    if (!status.ok)
        util::fatal("%s", status.error.c_str());
    return profile;
}

std::string
MiscorrectionProfile::toString() const
{
    std::string out;
    for (const PatternProfile &entry : patterns) {
        std::string pat(k, 'D');
        std::string mc(k, '-');
        for (std::size_t bit : entry.pattern) {
            pat[bit] = 'C';
            mc[bit] = '?';
        }
        for (std::size_t bit = 0; bit < k; ++bit)
            if (entry.miscorrectable.get(bit))
                mc[bit] = '1';
        out += "[" + pat + "] -> [" + mc + "]\n";
    }
    return out;
}

} // namespace beer
