/**
 * @file
 * Tests for the miscorrection-profile text format used by the
 * tools/beer_solve pipeline.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "beer/profile.hh"
#include "ecc/hamming.hh"
#include "ref/stream_profile_parser.hh"
#include "util/rng.hh"

using namespace beer;
using beer::ecc::randomSecCode;
using beer::util::Rng;

TEST(ProfileIo, RoundTrip)
{
    Rng rng(3);
    for (std::size_t k : {4u, 8u, 16u}) {
        const auto code = randomSecCode(k, rng);
        const auto profile =
            exhaustiveProfile(code, chargedPatternUnion(k, {1, 2}));
        std::istringstream in(serializeProfile(profile));
        EXPECT_EQ(parseProfile(in), profile) << "k=" << k;
    }
}

TEST(ProfileIo, ParsesCommentsAndBlankLines)
{
    std::istringstream in(
        "# header comment\n"
        "\n"
        "k 4\n"
        "0 0111  # trailing comment\n"
        "1,2 0000\n");
    const auto profile = parseProfile(in);
    EXPECT_EQ(profile.k, 4u);
    ASSERT_EQ(profile.patterns.size(), 2u);
    EXPECT_EQ(profile.patterns[0].pattern, TestPattern{0});
    EXPECT_EQ(profile.patterns[0].miscorrectable.toString(), "0111");
    EXPECT_EQ(profile.patterns[1].pattern, (TestPattern{1, 2}));
}

TEST(ProfileIo, SortsChargedBits)
{
    std::istringstream in("k 4\n3,1 0000\n");
    const auto profile = parseProfile(in);
    EXPECT_EQ(profile.patterns[0].pattern, (TestPattern{1, 3}));
}

TEST(ProfileIo, SerializesCurrentFormatVersion)
{
    const auto profile = exhaustiveProfile(ecc::paperExampleCode(),
                                           chargedPatterns(4, 1));
    const std::string text = serializeProfile(profile);
    EXPECT_NE(text.find("version " +
                        std::to_string(kProfileFormatVersion)),
              std::string::npos);

    std::istringstream in(text);
    MiscorrectionProfile parsed;
    const ProfileParseStatus status = tryParseProfile(in, parsed);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.version, kProfileFormatVersion);
    EXPECT_EQ(parsed, profile);
}

TEST(ProfileIo, VersionlessInputParsesAsLegacyV1)
{
    std::istringstream in("k 4\n0 0111\n");
    MiscorrectionProfile parsed;
    const ProfileParseStatus status = tryParseProfile(in, parsed);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.version, 1u);
    EXPECT_EQ(parsed.k, 4u);
}

TEST(ProfileIo, ExplicitVersion1Accepted)
{
    std::istringstream in("version 1\nk 4\n0 0111\n");
    MiscorrectionProfile parsed;
    const ProfileParseStatus status = tryParseProfile(in, parsed);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.version, 1u);
}

TEST(ProfileIo, FutureVersionRejectedWithoutTerminating)
{
    std::istringstream in("version 99\nk 4\n0 0111\n");
    MiscorrectionProfile parsed;
    const ProfileParseStatus status = tryParseProfile(in, parsed);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("unsupported format version 99"),
              std::string::npos)
        << status.error;
}

TEST(ProfileIo, MalformedVersionLineRejected)
{
    std::istringstream in("version zero\nk 4\n0 0111\n");
    MiscorrectionProfile parsed;
    const ProfileParseStatus status = tryParseProfile(in, parsed);
    EXPECT_FALSE(status.ok);
    EXPECT_NE(status.error.find("version"), std::string::npos);
}

TEST(ProfileIo, TryParseReportsErrorsFatalWouldRaise)
{
    // Same malformed inputs as the death tests below, through the
    // non-terminating entry point services use.
    const char *bad[] = {
        "0 0111\n",           // missing header
        "k 4\n0 01110\n",     // wrong bitmap length
        "k 4\n7 0111\n",      // charged bit out of range
        "k 4\n0 1111\n",      // charged bit marked miscorrectable
        "k 4\n0 01x1\n",      // non-binary bitmap
    };
    for (const char *text : bad) {
        std::istringstream in(text);
        MiscorrectionProfile parsed;
        const ProfileParseStatus status = tryParseProfile(in, parsed);
        EXPECT_FALSE(status.ok) << text;
        EXPECT_FALSE(status.error.empty()) << text;
    }
}

TEST(ProfileIo, SuspectMarkerRoundTripsAsVersion3)
{
    MiscorrectionProfile profile;
    profile.k = 4;
    PatternProfile flagged;
    flagged.pattern = {0};
    flagged.miscorrectable = gf2::BitVec(4);
    flagged.miscorrectable.set(2, true);
    flagged.suspect = true;
    PatternProfile clean;
    clean.pattern = {1, 2};
    clean.miscorrectable = gf2::BitVec(4);
    profile.patterns.push_back(flagged);
    profile.patterns.push_back(clean);

    // A profile carrying suspect metadata declares the bumped version
    // so strict old readers fail loudly instead of dropping the " ?".
    const std::string text = serializeProfile(profile);
    EXPECT_NE(text.find("version 3"), std::string::npos) << text;
    EXPECT_NE(text.find(" ?"), std::string::npos) << text;

    std::istringstream in(text);
    MiscorrectionProfile parsed;
    const ProfileParseStatus status = tryParseProfile(in, parsed);
    ASSERT_TRUE(status.ok) << status.error;
    EXPECT_EQ(status.version, 3u);
    EXPECT_EQ(parsed, profile);
    ASSERT_EQ(parsed.patterns.size(), 2u);
    EXPECT_TRUE(parsed.patterns[0].suspect);
    EXPECT_FALSE(parsed.patterns[1].suspect);
}

TEST(ProfileIo, SuspectFreeProfileKeepsVersion2)
{
    // Marker-free profiles must keep emitting the established version
    // so every existing reader still accepts them byte-for-byte.
    const auto profile = exhaustiveProfile(ecc::paperExampleCode(),
                                           chargedPatterns(4, 1));
    const std::string text = serializeProfile(profile);
    EXPECT_NE(text.find("version 2"), std::string::npos) << text;
    EXPECT_EQ(text.find(" ?"), std::string::npos) << text;
}

TEST(ProfileIo, SuspectExcludedFromEquality)
{
    // suspect is measurement metadata, not profile content: two
    // profiles differing only in markers compare equal (the cache and
    // the solver treat them as the same evidence).
    MiscorrectionProfile a;
    a.k = 4;
    PatternProfile entry;
    entry.pattern = {0};
    entry.miscorrectable = gf2::BitVec(4);
    a.patterns.push_back(entry);
    MiscorrectionProfile b = a;
    b.patterns[0].suspect = true;
    EXPECT_EQ(a, b);
}

TEST(ProfileIo, TrailingGarbageTokenRejected)
{
    // Older parsers silently ignored trailing tokens — exactly how
    // payload corruption hides. Anything but the "?" marker is an
    // explicit parse error now.
    const char *bad[] = {
        "k 4\n0 0111 x\n",
        "version 3\nk 4\n0 0111 garbage\n",
        "version 3\nk 4\n0 0111 ? extra\n",
    };
    for (const char *text : bad) {
        std::istringstream in(text);
        MiscorrectionProfile parsed;
        const ProfileParseStatus status = tryParseProfile(in, parsed);
        EXPECT_FALSE(status.ok) << text;
        EXPECT_NE(status.error.find("trailing token"),
                  std::string::npos)
            << status.error;
    }
}

namespace
{

/** One of @p options, uniformly. */
std::string
pick(Rng &rng, const std::vector<std::string> &options)
{
    return options[rng.below(options.size())];
}

/**
 * A header block. Tame headers vary only in what the format allows
 * (comments, blank lines, tabs, CR, an optional version); wild ones
 * also draw the malformed and borderline header lines.
 */
std::string
randomHeader(Rng &rng, std::size_t k, bool wild)
{
    const std::string ks = std::to_string(k);
    std::string out = pick(
        rng, {"", "", "# BEER miscorrection profile\n", "\n", "\r\n",
              "\t \n", "#\n"});
    std::vector<std::string> versions = {
        "", "", "version 1\n", "version 2\n", "version 3\n",
        "version 3\r\n", "\tversion\t2 \n", "version 2 # c\n"};
    std::vector<std::string> headers = {
        "k " + ks + "\n", "k " + ks + "\n", "k " + ks + "\r\n",
        "\tk\t" + ks + " \n", "k " + ks + "# c\n"};
    if (wild) {
        versions.insert(versions.end(),
                        {"version 0\n", "version 4\n", "version\n",
                         "version -1\n", "version +2\n",
                         "version 2 extra\n", "version 2x\n",
                         "version 99999999999999999999\n",
                         "version 2\nversion 2\n", "Version 2\n",
                         "version#2\n"});
        headers.insert(headers.end(),
                       {"k " + ks + " junk\n", "k +" + ks + "\n",
                        "k 0" + ks + "\n", "k 0\n", "k\n", "k -4\n",
                        "k" + ks + "\n", "K " + ks + "\n", "k x\n", ""});
    }
    return out + pick(rng, versions) + pick(rng, headers);
}

/** One pattern line over @p k bits; wild lines may be malformed. */
std::string
randomPatternLine(Rng &rng, std::size_t k, bool wild)
{
    const double odd = wild ? 0.15 : 0.0;
    std::string csv;
    const std::size_t items = 1 + rng.below(3);
    for (std::size_t i = 0; i < items; ++i) {
        if (i)
            csv += ',';
        if (!rng.bernoulli(odd))
            csv += std::to_string(rng.below(k));
        else
            csv += pick(rng, {"", "+3", "-1", "0x1", "1a", "00",
                              std::to_string(k),
                              "99999999999999999999",
                              std::string("1\0" "2", 3)});
    }
    if (rng.bernoulli(odd / 3))
        csv += ',';

    std::size_t bits = k;
    if (rng.bernoulli(odd / 3))
        bits = rng.bernoulli(0.5) ? k + 1 : k - 1;
    std::string bitmap;
    for (std::size_t i = 0; i < bits; ++i)
        bitmap += rng.bernoulli(0.7) ? '0' : '1';
    // Clear the charged positions (wild lines: most of the time) so
    // that lines get past the miscorrectable-charged-bit check.
    if (!rng.bernoulli(odd))
        for (std::size_t at = 0; at < csv.size();) {
            std::size_t comma = csv.find(',', at);
            if (comma == std::string::npos)
                comma = csv.size();
            const std::string item = csv.substr(at, comma - at);
            at = comma + 1;
            if (!item.empty() &&
                item.find_first_not_of("0123456789") == std::string::npos &&
                item.size() < 6 && std::stoul(item) < bitmap.size())
                bitmap[std::stoul(item)] = '0';
        }
    if (!bitmap.empty() && rng.bernoulli(odd / 3))
        bitmap[rng.below(bitmap.size())] = rng.bernoulli(0.5) ? '2' : 'x';

    const std::string sep =
        pick(rng, {" ", " ", "\t", "  ", " \t", "\v", "\f"});
    std::string line = pick(rng, {"", "", "", " ", "\t"}) + csv;
    if (!rng.bernoulli(odd / 3))
        line += sep + bitmap;
    line += pick(rng, {"", "", "", "", " ?", "\t?", " ? "});
    if (rng.bernoulli(odd / 3))
        line += pick(rng, {" extra", " x", "?", " ?"});
    line += pick(rng, {"", "", "", " # note", "#", "#?", " #"});
    return line;
}

/** A payload: header, pattern lines, stray blank and comment lines. */
std::string
randomPayload(Rng &rng)
{
    const bool wild = rng.bernoulli(0.5);
    const std::size_t k =
        rng.bernoulli(0.1) ? 70 : 1 + rng.below(rng.bernoulli(0.5) ? 16 : 8);
    std::string text = randomHeader(rng, k, wild);
    const std::size_t lines = rng.below(12);
    for (std::size_t i = 0; i < lines; ++i) {
        if (rng.bernoulli(0.08))
            text += pick(rng, {"", "  ", "\t", "# comment", "\r"});
        else
            text += randomPatternLine(rng, k, wild);
        const bool last = i + 1 == lines;
        text += last ? pick(rng, {"\n", "\n", "", "\r\n", "\n\n"})
                     : pick(rng, {"\n", "\n", "\n", "\r\n"});
    }
    return text;
}

/** Parse @p text with both parsers into a sentinel-filled profile. */
void
expectParsersAgree(const std::string &text, const std::string &where)
{
    MiscorrectionProfile sentinel;
    sentinel.k = 999;
    MiscorrectionProfile fast = sentinel;
    MiscorrectionProfile reference = sentinel;
    std::istringstream ref_in(text);
    const ProfileParseStatus want =
        beer::test::ref::streamTryParseProfile(ref_in, reference);
    const ProfileParseStatus got = tryParseProfile(text, fast);

    ASSERT_EQ(got.ok, want.ok) << where << "\n" << want.error;
    EXPECT_EQ(got.version, want.version) << where;
    EXPECT_EQ(got.error, want.error) << where;
    // On failure both leave the output untouched.
    ASSERT_EQ(fast, reference) << where;
    ASSERT_EQ(fast.patterns.size(), reference.patterns.size()) << where;
    for (std::size_t i = 0; i < fast.patterns.size(); ++i)
        EXPECT_EQ(fast.patterns[i].suspect, reference.patterns[i].suspect)
            << where << " line " << i;

    // The stream overload is the same parser behind a read.
    MiscorrectionProfile streamed = sentinel;
    std::istringstream in(text);
    const ProfileParseStatus via_stream = tryParseProfile(in, streamed);
    EXPECT_EQ(via_stream.ok, want.ok) << where;
    EXPECT_EQ(via_stream.error, want.error) << where;
    EXPECT_EQ(streamed, reference) << where;
}

} // anonymous namespace

TEST(ProfileIo, ParserMatchesStreamReferenceOnEdgeCases)
{
    const std::vector<std::string> cases = {
        "",
        "\n",
        "k 4",
        "k 4\n0 0111",
        "k 4\r\n0 0111\r\n1,2 0000\r\n",
        "k 4\n\t0\t0111\t\n",
        "k 4\n0 0111 # c ? x\n",
        "k 4\n# 0 0111\n",
        "k 4\n1,,2 0000\n",
        "k 4\n,1 0000\n",
        "k 4\n1, 0000\n",
        "k 4\n, 0000\n",
        "k 4\n+3 0000\n",
        "k 4\n-1 0000\n",
        "k 4\n3,1 1000\n",
        "k 4\n1,1 0000\n",
        "k 4\n0 0111 ?\n",
        "k 4\n0 0111 ? ?\n",
        "k 4\n0 0111 ?x\n",
        "k 4\n0 0111 x y\n",
        "k 4\n0 011\n",
        "k 4\n0 01111\n",
        "k 4\n0 0121\n",
        "k 4\n0\n",
        "k 4\nversion 2\n",
        "k 4\nk 4\n",
        "version 2\n",
        "version 2\nversion 2\nk 4\n",
        "version 3\nk 4\n0 0111 ?\n",
        "version 0\nk 4\n",
        "version 4\nk 4\n",
        "version -1\nk 4\n",
        "version +2\nk 4\n",
        "version 2junk\nk 4\n",
        "version 99999999999999999999\nk 4\n",
        "k 0\n",
        "k -4\n",
        "k +4\n0 0111\n",
        "k 4 trailing\n0 0111\n",
        "k4\n",
        "k 70\n69 " + std::string(70, '0') + "\n",
        "k 70\n0,64 0" + std::string(63, '1') + "0" + std::string(5, '1') +
            "\n",
        std::string("k 4\n1\0" "2 0000\n", 14),
        std::string("k 4\n0 0111\0\n", 12),
        "k 4\n99999999999999999999 0000\n",
        "k 4\n0x1 0000\n",
    };
    for (const std::string &text : cases)
        expectParsersAgree(text, "case '" + text + "'");
}

TEST(ProfileIo, ParserMatchesStreamReferenceOnSeededCorpus)
{
    Rng rng(2026);
    std::size_t accepted = 0;
    for (int i = 0; i < 4000; ++i) {
        const std::string text = randomPayload(rng);
        expectParsersAgree(text, "payload " + std::to_string(i) + ":\n" +
                                     text);
        MiscorrectionProfile parsed;
        accepted += tryParseProfile(text, parsed).ok;
    }
    // The corpus must exercise both outcomes in earnest.
    EXPECT_GT(accepted, 400u);
    EXPECT_LT(accepted, 3600u);
}

TEST(ProfileIo, ParserMatchesStreamReferenceOnServicePayloads)
{
    Rng rng(5);
    for (std::size_t k : {4u, 16u, 32u, 70u}) {
        const auto code = randomSecCode(k, rng);
        auto profile =
            exhaustiveProfile(code, chargedPatternUnion(k, {1, 2}));
        for (std::size_t i = 0; i < profile.patterns.size(); i += 5)
            profile.patterns[i].suspect = true;
        expectParsersAgree(serializeProfile(profile),
                           "k=" + std::to_string(k));
    }
}

using ProfileIoDeath = ::testing::Test;

TEST(ProfileIoDeath, FutureVersionIsFatalInBatchPath)
{
    EXPECT_DEATH(
        {
            std::istringstream in("version 99\nk 4\n0 0111\n");
            parseProfile(in);
        },
        "unsupported format version");
}

TEST(ProfileIoDeath, MissingHeaderIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("0 0111\n");
            parseProfile(in);
        },
        "header");
}

TEST(ProfileIoDeath, WrongBitmapLengthIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("k 4\n0 01110\n");
            parseProfile(in);
        },
        "bitmap");
}

TEST(ProfileIoDeath, ChargedBitOutOfRangeIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("k 4\n7 0111\n");
            parseProfile(in);
        },
        "bad charged bit");
}

TEST(ProfileIoDeath, ChargedBitMarkedMiscorrectableIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("k 4\n0 1111\n");
            parseProfile(in);
        },
        "marked miscorrectable");
}

TEST(ProfileIoDeath, NonBinaryBitmapIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("k 4\n0 01x1\n");
            parseProfile(in);
        },
        "0/1");
}
