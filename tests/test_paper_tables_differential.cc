/**
 * @file
 * Golden differential suite for the parallel experiment engine: every
 * paper-table driver is rendered with one thread (jobs run inline, in
 * index order: the serial path) and with four, at small op counts,
 * and the outputs must match byte for byte.  Runs under `ctest -L
 * tsan` in a TPRED_SANITIZE=thread build.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "harness/paper_tables.hh"

namespace tpred
{
namespace
{

/** Accuracy tables replay more ops than the (slower) timing tables. */
constexpr size_t kAccuracyOps = 20000;
constexpr size_t kTimingOps = 10000;

void
expectSerialParallelMatch(
    const std::function<std::string(const TableOptions &)> &render,
    size_t ops)
{
    const std::string serial = render({.ops = ops, .threads = 1});
    const std::string parallel = render({.ops = ops, .threads = 4});
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(PaperTablesDifferential, Table1BtbBaseline)
{
    expectSerialParallelMatch(renderTable1, kAccuracyOps);
}

TEST(PaperTablesDifferential, Table2TwoBitStrategy)
{
    expectSerialParallelMatch(renderTable2, kAccuracyOps);
}

TEST(PaperTablesDifferential, Table4TaglessPattern)
{
    expectSerialParallelMatch(renderTable4, kAccuracyOps);
}

TEST(PaperTablesDifferential, Table5PathAddrBits)
{
    expectSerialParallelMatch(renderTable5, kTimingOps);
}

TEST(PaperTablesDifferential, Table6PathBitsPerTarget)
{
    expectSerialParallelMatch(renderTable6, kTimingOps);
}

TEST(PaperTablesDifferential, Table7TaggedIndexing)
{
    expectSerialParallelMatch(renderTable7, kTimingOps);
}

TEST(PaperTablesDifferential, Table8TaggedPath)
{
    expectSerialParallelMatch(renderTable8, kTimingOps);
}

TEST(PaperTablesDifferential, Table9HistoryLength)
{
    expectSerialParallelMatch(renderTable9, kTimingOps);
}

TEST(PaperTablesDifferential, Fig1213TaglessVsTagged)
{
    expectSerialParallelMatch(renderFig1213, kTimingOps);
}

TEST(PaperTablesDifferential, ParallelRerunIsStable)
{
    // Two parallel renderings with different thread counts must also
    // agree with each other (scheduling independence).
    const std::string two =
        renderTable4({.ops = kAccuracyOps, .threads = 2});
    const std::string eight =
        renderTable4({.ops = kAccuracyOps, .threads = 8});
    EXPECT_EQ(two, eight);
}

} // namespace
} // namespace tpred
