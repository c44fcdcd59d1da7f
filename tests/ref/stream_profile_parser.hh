/**
 * @file
 * Reference model of the profile text parser: the line-by-line
 * std::istringstream tokenizer that beer::tryParseProfile must match
 * on every input — the same ok flag, declared version, error string
 * and parsed profile (suspect markers included).
 */

#ifndef BEER_TESTS_REF_STREAM_PROFILE_PARSER_HH
#define BEER_TESTS_REF_STREAM_PROFILE_PARSER_HH

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <string>

#include "beer/profile.hh"

namespace beer::test::ref
{

/** printf into a std::string, truncated like the parser's messages. */
inline std::string
streamParserError(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

/** tryParseProfile() with one istringstream per line and per
 *  charged-bit list. */
inline ProfileParseStatus
streamTryParseProfile(std::istream &in, MiscorrectionProfile &out)
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
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ss(line);
        std::string first;
        if (!(ss >> first))
            continue;

        if (!have_k && !have_version && first == "version") {
            std::size_t version = 0;
            if (!(ss >> version) || version == 0)
                return fail(streamParserError(
                    "profile line %zu: expected 'version <n>'",
                    line_no));
            if (version > kProfileFormatVersionMax)
                return fail(streamParserError(
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
                return fail(streamParserError(
                    "profile line %zu: expected header 'k <bits>'",
                    line_no));
            profile.k = k;
            have_k = true;
            continue;
        }

        std::string bitmap;
        if (!(ss >> bitmap))
            return fail(streamParserError(
                "profile line %zu: expected '<charged-csv> <bitmap>'",
                line_no));
        if (bitmap.size() != profile.k)
            return fail(streamParserError(
                "profile line %zu: bitmap has %zu bits, expected %zu",
                line_no, bitmap.size(), profile.k));
        for (char c : bitmap)
            if (c != '0' && c != '1')
                return fail(streamParserError(
                    "profile line %zu: bitmap must be 0/1", line_no));

        PatternProfile entry;
        std::istringstream charged(first);
        std::string item;
        while (std::getline(charged, item, ',')) {
            char *end = nullptr;
            const unsigned long bit = std::strtoul(item.c_str(), &end,
                                                   10);
            if (!end || *end != '\0' || bit >= profile.k)
                return fail(streamParserError(
                    "profile line %zu: bad charged bit '%s'", line_no,
                    item.c_str()));
            entry.pattern.push_back(bit);
        }
        if (entry.pattern.empty())
            return fail(streamParserError(
                "profile line %zu: empty pattern", line_no));
        std::sort(entry.pattern.begin(), entry.pattern.end());

        entry.miscorrectable = gf2::BitVec::fromString(bitmap);
        for (std::size_t bit : entry.pattern)
            if (entry.miscorrectable.get(bit))
                return fail(streamParserError(
                    "profile line %zu: charged bit %zu marked "
                    "miscorrectable",
                    line_no, bit));
        std::string marker;
        if (ss >> marker) {
            if (marker != "?")
                return fail(streamParserError(
                    "profile line %zu: unexpected trailing token '%s'",
                    line_no, marker.c_str()));
            entry.suspect = true;
            std::string extra;
            if (ss >> extra)
                return fail(streamParserError(
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

} // namespace beer::test::ref

#endif // BEER_TESTS_REF_STREAM_PROFILE_PARSER_HH
