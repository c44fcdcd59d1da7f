/**
 * @file
 * Temp file paths for the suites that write files, unique to the
 * running test and process, so concurrent runs of one suite never
 * share a file.
 */

#ifndef BEER_TESTS_TEMP_PATH_HH
#define BEER_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

namespace beer::test
{

/**
 * A path in ::testing::TempDir() named after the current test (suite
 * and case), this process id and @p tag, which tells apart the files
 * one test writes. The file need not exist.
 */
inline std::string
tempPath(const std::string &tag)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "beer_";
    if (info)
        name += std::string(info->test_suite_name()) + "." +
                info->name() + "_";
    name += std::to_string(::getpid()) + "_" + tag;
    // Parameterized suite and case names contain '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name;
}

/** A tempPath() that is removed on construction and at scope exit. */
struct TempFile
{
    explicit TempFile(const std::string &tag) : path(tempPath(tag))
    {
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string path;
};

} // namespace beer::test

#endif // BEER_TESTS_TEMP_PATH_HH
