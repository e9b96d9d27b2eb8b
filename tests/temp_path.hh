/**
 * @file
 * Per-test temporary file paths. ctest runs every test (and every
 * parameter of a parameterized test) as its own process, so a fixed
 * name under ::testing::TempDir() would be shared by tests running
 * side by side under `ctest -j`; these paths never are.
 */

#ifndef UPR_TESTS_TEMP_PATH_HH
#define UPR_TESTS_TEMP_PATH_HH

#include <algorithm>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace upr::test
{

/**
 * A path for file @p name under the gtest temp directory, unique to
 * the running test's full name (suite, test and parameter) and to
 * this process.
 */
inline std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string id = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(::getpid());
    std::replace(id.begin(), id.end(), '/', '_');
    return ::testing::TempDir() + "/" + id + "." + name;
}

} // namespace upr::test

#endif // UPR_TESTS_TEMP_PATH_HH
