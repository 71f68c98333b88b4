/**
 * @file
 * Tests for strict numeric parsing: parseOps() must accept exactly
 * the positive decimal integers and nothing else, and resolveOps()
 * must fail loudly (exit 2) on a malformed argv[1] or TPRED_OPS
 * instead of silently falling back to the default budget.  The
 * tools' other numeric flags go through parseUnsigned(), which exits
 * 2 on anything but an in-range non-negative decimal.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "harness/experiment.hh"
#include "harness/run_options.hh"

namespace tpred
{
namespace
{

TEST(ParseOps, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseOps("1", "t"), 1u);
    EXPECT_EQ(parseOps("42", "t"), 42u);
    EXPECT_EQ(parseOps("2000000", "t"), 2000000u);
    EXPECT_EQ(parseOps("007", "t"), 7u);  // leading zeros are digits
}

TEST(ParseOps, AcceptsSizeMax)
{
    const std::string max =
        std::to_string(std::numeric_limits<size_t>::max());
    EXPECT_EQ(parseOps(max, "t"), std::numeric_limits<size_t>::max());
}

TEST(ParseOps, RejectsSuffixJunk)
{
    EXPECT_THROW(parseOps("2m", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("1e6", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("20 ", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("20\n", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("1_000", "t"), std::invalid_argument);
}

TEST(ParseOps, RejectsSignsAndPrefixJunk)
{
    EXPECT_THROW(parseOps("-3", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("+3", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps(" 20", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("0x20", "t"), std::invalid_argument);
}

TEST(ParseOps, RejectsEmptyAndZero)
{
    EXPECT_THROW(parseOps("", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("0", "t"), std::invalid_argument);
    EXPECT_THROW(parseOps("000", "t"), std::invalid_argument);
}

TEST(ParseOps, RejectsOverflow)
{
    // SIZE_MAX is 20 digits (64-bit); 21 nines must overflow.
    EXPECT_THROW(parseOps("184467440737095516160", "t"),
                 std::out_of_range);
    EXPECT_THROW(parseOps("999999999999999999999", "t"),
                 std::out_of_range);
}

TEST(ParseOps, ErrorMessageNamesTheSource)
{
    try {
        parseOps("2m", "argv[1]");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("argv[1]"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("2m"), std::string::npos);
    }
}

// --- resolveOps ----------------------------------------------------

size_t
callResolve(const char *arg, size_t fallback)
{
    std::string owned = arg ? arg : "";
    char prog[] = "prog";
    char *argv[] = {prog, arg ? owned.data() : nullptr, nullptr};
    return resolveOps(arg ? 2 : 1, argv, fallback);
}

TEST(ResolveOps, UsesValidArgvThenEnvThenFallback)
{
    unsetenv("TPRED_OPS");
    EXPECT_EQ(callResolve("12345", 50), 12345u);
    EXPECT_EQ(callResolve(nullptr, 50), 50u);
    setenv("TPRED_OPS", "777", 1);
    EXPECT_EQ(callResolve(nullptr, 50), 777u);
    EXPECT_EQ(callResolve("12345", 50), 12345u);  // argv wins
    unsetenv("TPRED_OPS");
}

using ResolveOpsDeath = ::testing::Test;

TEST(ResolveOpsDeath, MalformedArgvExits2)
{
    unsetenv("TPRED_OPS");
    EXPECT_EXIT(callResolve("2m", 50),
                ::testing::ExitedWithCode(2), "2m");
    EXPECT_EXIT(callResolve("-3", 50),
                ::testing::ExitedWithCode(2), "-3");
    EXPECT_EXIT(callResolve("", 50),
                ::testing::ExitedWithCode(2), "");
    EXPECT_EXIT(callResolve("999999999999999999999", 50),
                ::testing::ExitedWithCode(2), "");
}

TEST(ResolveOpsDeath, MalformedEnvExits2)
{
    setenv("TPRED_OPS", "2m", 1);
    EXPECT_EXIT(callResolve(nullptr, 50),
                ::testing::ExitedWithCode(2), "TPRED_OPS");
    setenv("TPRED_OPS", "-1", 1);
    EXPECT_EXIT(callResolve(nullptr, 50),
                ::testing::ExitedWithCode(2), "TPRED_OPS");
    unsetenv("TPRED_OPS");
}

TEST(ResolveOpsDeath, ValidArgvDoesNotConsultMalformedEnv)
{
    // argv[1] takes precedence; a broken TPRED_OPS must not kill a
    // run that never needed it.
    setenv("TPRED_OPS", "garbage", 1);
    EXPECT_EQ(callResolve("4242", 50), 4242u);
    unsetenv("TPRED_OPS");
}

TEST(ParseUnsigned, AcceptsDecimalsUpToTheTypeRange)
{
    EXPECT_EQ(parseUnsigned<uint64_t>("0", "--seed"), 0u);
    EXPECT_EQ(parseUnsigned<uint64_t>("007", "--seed"), 7u);
    EXPECT_EQ(parseUnsigned<uint64_t>("18446744073709551615", "--seed"),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(parseUnsigned<unsigned>("4294967295", "--ways"),
              std::numeric_limits<unsigned>::max());
    EXPECT_EQ(parseJobsValue("0", "--jobs"), 0u);  // 0 = automatic
}

using ParseUnsignedDeath = ::testing::Test;

TEST(ParseUnsignedDeath, GarbageExits2)
{
    // Each of these used to go through atoi/atoll and run with 0 or a
    // truncated prefix.
    for (const char *text :
         {"", "x", "12x", "-1", "+3", " 3", "3 ", "0x10", "1e3", "2.5"}) {
        EXPECT_EXIT(parseUnsigned<uint64_t>(text, "--seed"),
                    ::testing::ExitedWithCode(2), "--seed")
            << "'" << text << "'";
    }
    EXPECT_EXIT(parseUnsigned<uint64_t>(nullptr, "--cap"),
                ::testing::ExitedWithCode(2), "--cap: empty");
}

TEST(ParseUnsignedDeath, OutOfRangeExits2)
{
    EXPECT_EXIT(parseUnsigned<unsigned>("4294967296", "--ways"),
                ::testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(parseUnsigned<uint64_t>("18446744073709551616", "--seed"),
                ::testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(parseJobsValue("99999999999", "TPRED_JOBS"),
                ::testing::ExitedWithCode(2), "TPRED_JOBS");
}

} // namespace
} // namespace tpred
