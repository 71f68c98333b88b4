/**
 * @file
 * Golden regression tests: the exact (seed 1, 100k instructions)
 * misprediction rates of the BTB baseline and the default target
 * cache, pinned with a small tolerance, and the exact BTB trajectories
 * of the 64-entry single-level and two-level front ends.
 *
 * These exist to catch *unintended* behaviour drift — a changed hash,
 * an LRU bug, a workload edit — not to assert the numbers are "right".
 * If a deliberate change moves them, re-run tests/record_golden (see
 * the comment at the bottom) and update the table knowingly.
 */

#include <gtest/gtest.h>

#include "harness/paper_tables.hh"
#include "obs/metrics.hh"

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

/** Exact BTB trajectory of one workload under one BTB shape. */
struct BtbGolden
{
    const char *workload;
    const char *shape;  ///< "small" or "two_level"
    // baselineConfig() runAccuracy: probe accounting and hit rate.
    BtbHierarchyStats probes;
    uint64_t btbHits;
    uint64_t branches;
    // taglessGshare() runTiming.
    uint64_t cycles;
    uint64_t btbMissStallCycles;
};

void
PrintTo(const BtbGolden &golden, std::ostream *os)
{
    *os << golden.workload << " " << golden.shape;
}

// Recorded at 100,000 instructions, seed 1.
constexpr BtbGolden kBtbGolden[] = {
    {"gcc", "small", {31646, 8730, 0, 0, 0}, 31646, 40376, 96761, 0},
    {"gcc", "two_level", {31646, 8730, 8088, 8088, 8666}, 39734, 40376,
     89543, 9300},
    {"server-dispatch", "small", {8746, 23458, 0, 0, 0}, 8746, 32204,
     172412, 0},
    {"server-dispatch", "two_level", {8746, 23458, 22203, 22203, 23394},
     30949, 32204, 171979, 21550},
};

class GoldenBtbShapes : public ::testing::TestWithParam<BtbGolden>
{
  protected:
    static FrontendConfig
    frontendOf(const BtbGolden &golden)
    {
        return std::string(golden.shape) == "small"
                   ? smallBtbFrontend()
                   : twoLevelBtbFrontend();
    }
};

TEST_P(GoldenBtbShapes, AccuracyProbesUnchanged)
{
    const BtbGolden &golden = GetParam();
    SharedTrace trace = recordWorkload(golden.workload, 100000);
    const obs::MetricsSnapshot before = obs::globalMetrics().snapshot();
    const FrontendStats stats =
        runAccuracy(trace, baselineConfig(), frontendOf(golden));
    const auto delta =
        obs::snapshotDelta(before, obs::globalMetrics().snapshot())
            .counters;
    const auto counter = [&](const char *name) {
        const auto it = delta.find(name);
        return it == delta.end() ? uint64_t{0} : it->second;
    };
    EXPECT_EQ(counter("btb.l1_hits"), golden.probes.l1Hits);
    EXPECT_EQ(counter("btb.l1_misses"), golden.probes.l1Misses);
    EXPECT_EQ(counter("btb.l2_hits"), golden.probes.l2Hits);
    EXPECT_EQ(counter("btb.prefetches"), golden.probes.prefetches);
    EXPECT_EQ(counter("btb.victims"), golden.probes.victims);
    EXPECT_EQ(stats.btbHits.hits(), golden.btbHits);
    EXPECT_EQ(stats.btbHits.total(), golden.branches);
}

TEST_P(GoldenBtbShapes, TimingBubblesUnchanged)
{
    const BtbGolden &golden = GetParam();
    SharedTrace trace = recordWorkload(golden.workload, 100000);
    const CoreResult result =
        runTiming(trace, taglessGshare(), {}, frontendOf(golden));
    EXPECT_EQ(result.cycles, golden.cycles);
    EXPECT_EQ(result.btbMissStallCycles, golden.btbMissStallCycles);
}

INSTANTIATE_TEST_SUITE_P(BtbShapes, GoldenBtbShapes,
                         ::testing::ValuesIn(kBtbGolden),
                         [](const auto &info) {
                             std::string name = info.param.workload;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name + "_" + info.param.shape;
                         });

// To regenerate: build any small main that prints
//   runAccuracy(recordWorkload(name, 100000), config)
// for both configs across allWorkloadNames(), then paste the values
// into kGolden above.  kBtbGolden takes the btb.* counter deltas and
// btbHits of the baselineConfig() runAccuracy and the cycles and
// btbMissStallCycles of the taglessGshare() runTiming, per shape.

} // namespace
} // namespace tpred
