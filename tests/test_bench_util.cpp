/**
 * @file
 * Unit tests for the bench helpers (bench/bench_util.h): the empty-
 * input guards on geomean()/mean() (a bare division would put a
 * silent NaN into reports) and the sweep-option argv parsing the
 * migrated benches share.
 */

#include <gtest/gtest.h>

#include <vector>

#include "bench_util.h"

namespace {

TEST(BenchUtilTest, GeomeanOfValues)
{
    EXPECT_DOUBLE_EQ(bench::geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
    EXPECT_NEAR(bench::geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
}

TEST(BenchUtilTest, MeanOfValues)
{
    EXPECT_DOUBLE_EQ(bench::mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(BenchUtilTest, EmptyInputYieldsZeroNotNaN)
{
    // Regression: both used to divide by values.size() == 0.
    EXPECT_DOUBLE_EQ(bench::geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(bench::mean({}), 0.0);
}

TEST(BenchUtilTest, SweepOptionsFromArgs)
{
    const char *argv[] = {"bench", "--json", "out.json", "--jobs",
                          "6",     "--progress"};
    const auto options = bench::sweepOptionsFromArgs(
        6, const_cast<char **>(argv));
    EXPECT_EQ(options.jobs, 6);
    EXPECT_EQ(options.progress, &std::cerr);

    const char *plain[] = {"bench"};
    const auto defaults =
        bench::sweepOptionsFromArgs(1, const_cast<char **>(plain));
    EXPECT_EQ(defaults.jobs, 1);
    EXPECT_EQ(defaults.progress, nullptr);
}

TEST(BenchUtilDeathTest, SweepOptionsRejectBadJobs)
{
    // A job count that is not a whole number >= 1 is a usage error,
    // never a silent clamp to serial.
    for (const char *value : {"0", "-3", "abc", "4x", ""}) {
        SCOPED_TRACE(value);
        const char *argv[] = {"bench", "--jobs", value};
        EXPECT_EXIT(bench::sweepOptionsFromArgs(
                        3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(2), "bad value");
    }
    const char *missing[] = {"bench", "--jobs"};
    EXPECT_EXIT(bench::sweepOptionsFromArgs(
                    2, const_cast<char **>(missing)),
                ::testing::ExitedWithCode(2), "bad value");
}

} // namespace
