#include "beer/profile.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>

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
    for (const PatternProfile &entry : profile.patterns) {
        std::string charged;
        for (std::size_t bit : entry.pattern) {
            if (!charged.empty())
                charged += ',';
            charged += std::to_string(bit);
        }
        out += charged + " " + entry.miscorrectable.toString();
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

} // anonymous namespace

ProfileParseStatus
tryParseProfile(std::istream &in, MiscorrectionProfile &out)
{
    MiscorrectionProfile profile;
    ProfileParseStatus status;
    std::string line;
    std::size_t line_no = 0;
    bool have_k = false;
    bool have_version = false;

    const auto fail = [&](std::string error) {
        status.ok = false;
        status.error = std::move(error);
        return status;
    };

    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ss(line);
        std::string first;
        if (!(ss >> first))
            continue;

        // Optional "version <n>" line ahead of the k header; its
        // absence means the legacy version-1 format.
        if (!have_k && !have_version && first == "version") {
            std::size_t version = 0;
            if (!(ss >> version) || version == 0)
                return fail(formatError(
                    "profile line %zu: expected 'version <n>'",
                    line_no));
            if (version > kProfileFormatVersionMax)
                return fail(formatError(
                    "profile line %zu: unsupported format version %zu "
                    "(this build reads versions up to %zu)",
                    line_no, version, kProfileFormatVersionMax));
            status.version = version;
            have_version = true;
            continue;
        }

        if (!have_k) {
            std::size_t k = 0;
            if (first != "k" || !(ss >> k) || k == 0)
                return fail(formatError(
                    "profile line %zu: expected header 'k <bits>'",
                    line_no));
            profile.k = k;
            have_k = true;
            continue;
        }

        std::string bitmap;
        if (!(ss >> bitmap))
            return fail(formatError(
                "profile line %zu: expected '<charged-csv> <bitmap>'",
                line_no));
        if (bitmap.size() != profile.k)
            return fail(formatError(
                "profile line %zu: bitmap has %zu bits, expected %zu",
                line_no, bitmap.size(), profile.k));
        for (char c : bitmap)
            if (c != '0' && c != '1')
                return fail(formatError(
                    "profile line %zu: bitmap must be 0/1", line_no));

        PatternProfile entry;
        std::istringstream charged(first);
        std::string item;
        while (std::getline(charged, item, ',')) {
            char *end = nullptr;
            const unsigned long bit = std::strtoul(item.c_str(), &end,
                                                   10);
            if (!end || *end != '\0' || bit >= profile.k)
                return fail(formatError(
                    "profile line %zu: bad charged bit '%s'", line_no,
                    item.c_str()));
            entry.pattern.push_back(bit);
        }
        if (entry.pattern.empty())
            return fail(formatError("profile line %zu: empty pattern",
                                    line_no));
        std::sort(entry.pattern.begin(), entry.pattern.end());

        entry.miscorrectable = BitVec::fromString(bitmap);
        for (std::size_t bit : entry.pattern)
            if (entry.miscorrectable.get(bit))
                return fail(formatError(
                    "profile line %zu: charged bit %zu marked "
                    "miscorrectable",
                    line_no, bit));
        // Optional version-3 suspect marker; anything else trailing
        // is malformed (older parsers silently ignored trailing
        // tokens, which is exactly how payload corruption hides).
        std::string marker;
        if (ss >> marker) {
            if (marker != "?")
                return fail(formatError(
                    "profile line %zu: unexpected trailing token '%s'",
                    line_no, marker.c_str()));
            entry.suspect = true;
            std::string extra;
            if (ss >> extra)
                return fail(formatError(
                    "profile line %zu: unexpected trailing token '%s'",
                    line_no, extra.c_str()));
        }
        profile.patterns.push_back(std::move(entry));
    }

    if (!have_k)
        return fail("profile: missing 'k <bits>' header");
    status.ok = true;
    out = std::move(profile);
    return status;
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
