/**
 * @file
 * Golden regression tests: the exact (seed 1, 100k instructions)
 * misprediction rates of the BTB baseline and the default target
 * cache, pinned with a small tolerance.
 *
 * These exist to catch *unintended* behaviour drift — a changed hash,
 * an LRU bug, a workload edit — not to assert the numbers are "right".
 * If a deliberate change moves them, re-run tests/record_golden (see
 * the comment at the bottom) and update the table knowingly.
 */

#include <gtest/gtest.h>

#include "harness/paper_tables.hh"

namespace tpred
{
namespace
{

struct Golden
{
    const char *workload;
    double btbMiss;
    double taglessMiss;
};

// Print the workload only: gtest's default byte dump would put the
// load address of the `workload` string into the test's listed name.
void
PrintTo(const Golden &golden, std::ostream *os)
{
    *os << golden.workload;
}

// Recorded at 100,000 instructions, seed 1.
constexpr Golden kGolden[] = {
    {"compress", 0.2497, 0.2633},
    {"gcc", 0.8198, 0.5963},
    {"go", 0.6523, 0.8213},
    {"ijpeg", 0.1323, 0.1670},
    {"m88ksim", 0.5006, 0.2494},
    {"perl", 0.8467, 0.3989},
    {"vortex", 0.1900, 0.1265},
    {"xlisp", 0.4816, 0.2454},
    {"cpp-virtual", 0.6691, 0.6229},
};

constexpr double kTolerance = 0.002;  // determinism, not statistics

class GoldenRates : public ::testing::TestWithParam<Golden>
{
};

TEST_P(GoldenRates, BtbBaselineUnchanged)
{
    const Golden &golden = GetParam();
    SharedTrace trace = recordWorkload(golden.workload, 100000);
    double miss = runAccuracy(trace, baselineConfig())
                      .indirectJumps.missRate();
    EXPECT_NEAR(miss, golden.btbMiss, kTolerance) << golden.workload;
}

TEST_P(GoldenRates, TaglessCacheUnchanged)
{
    const Golden &golden = GetParam();
    SharedTrace trace = recordWorkload(golden.workload, 100000);
    double miss = runAccuracy(trace, taglessGshare())
                      .indirectJumps.missRate();
    EXPECT_NEAR(miss, golden.taglessMiss, kTolerance)
        << golden.workload;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GoldenRates,
                         ::testing::ValuesIn(kGolden),
                         [](const auto &info) {
                             std::string name = info.param.workload;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

// To regenerate: build any small main that prints
//   runAccuracy(recordWorkload(name, 100000), config)
// for both configs across allWorkloadNames(), then paste the values
// into kGolden above.

} // namespace
} // namespace tpred
