/** @file Integration tests for the experiment harness. */

#include <gtest/gtest.h>

#include "harness/paper_tables.hh"

namespace tpred
{
namespace
{

TEST(Harness, RecordWorkloadIsDeterministic)
{
    SharedTrace a = recordWorkload("compress", 5000);
    SharedTrace b = recordWorkload("compress", 5000);
    ASSERT_EQ(a.size(), b.size());
    const std::vector<MicroOp> a_ops = a.decodeOps();
    const std::vector<MicroOp> b_ops = b.decodeOps();
    for (size_t i = 0; i < a.size(); i += 251)
        EXPECT_EQ(a_ops[i].pc, b_ops[i].pc);
}

TEST(Harness, SharedTraceOpensIndependentReplays)
{
    SharedTrace trace = recordWorkload("compress", 2000);
    CompactReplay s1 = trace.replay();
    CompactReplay s2 = trace.replay();
    MicroOp a, b;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(s1.next(a));
        ASSERT_TRUE(s2.next(b));
        EXPECT_EQ(a.pc, b.pc);
    }
}

TEST(Harness, BuildStackVariants)
{
    EXPECT_EQ(buildStack(baselineConfig()).predictor, nullptr);
    EXPECT_NE(buildStack(taglessGshare()).predictor, nullptr);
    EXPECT_NE(buildStack(taggedConfig(TaggedIndexScheme::HistoryXor, 4))
                  .predictor,
              nullptr);
    EXPECT_NE(buildStack(cascadedConfig()).predictor, nullptr);
    EXPECT_NE(buildStack(oracleConfig()).predictor, nullptr);
}

TEST(Harness, ConfigDescriptions)
{
    EXPECT_EQ(baselineConfig().describe(), "btb-only");
    EXPECT_NE(taglessGAg().describe().find("GAg"), std::string::npos);
    EXPECT_NE(taglessGAs(7, 2).describe().find("GAs(7,2)"),
              std::string::npos);
    EXPECT_NE(taggedConfig(TaggedIndexScheme::HistoryXor, 8)
                  .describe()
                  .find("8w"),
              std::string::npos);
    EXPECT_EQ(oracleConfig().describe(), "oracle");
}

TEST(Harness, AccuracyRunsAndCountsEverything)
{
    SharedTrace trace = recordWorkload("xlisp", 20000);
    FrontendStats stats = runAccuracy(trace, baselineConfig());
    EXPECT_EQ(stats.instructions, trace.size());
    EXPECT_GT(stats.indirectJumps.total(), 0u);
    EXPECT_GT(stats.condDirection.total(), 0u);
}

TEST(Harness, AccuracyIsDeterministicAcrossRuns)
{
    SharedTrace trace = recordWorkload("m88ksim", 20000);
    FrontendStats a = runAccuracy(trace, taglessGshare());
    FrontendStats b = runAccuracy(trace, taglessGshare());
    EXPECT_EQ(a.indirectJumps.misses(), b.indirectJumps.misses());
    EXPECT_EQ(a.allBranches.misses(), b.allBranches.misses());
}

TEST(Harness, TimingProducesCycles)
{
    SharedTrace trace = recordWorkload("compress", 20000);
    CoreResult result = runTiming(trace, baselineConfig());
    EXPECT_EQ(result.instructions, trace.size());
    EXPECT_GT(result.cycles, trace.size() / 8);  // width bound
    EXPECT_GT(result.ipc(), 0.1);
    EXPECT_LT(result.ipc(), 8.0);
}

TEST(Harness, OracleTimingIsFastest)
{
    SharedTrace trace = recordWorkload("perl", 30000);
    CoreResult base = runTiming(trace, baselineConfig());
    CoreResult oracle = runTiming(trace, oracleConfig());
    EXPECT_LT(oracle.cycles, base.cycles);
}

TEST(Harness, ReductionOverBaselineMatchesManualComputation)
{
    SharedTrace trace = recordWorkload("xlisp", 20000);
    CoreResult base = runTiming(trace, baselineConfig());
    CoreResult tc = runTiming(trace, taglessGshare());
    double expected = execTimeReduction(base.cycles, tc.cycles);
    double via_helper = reductionOver(base.cycles, trace,
                                      taglessGshare());
    EXPECT_DOUBLE_EQ(expected, via_helper);
}

TEST(Harness, TwoBitFrontendUsesTwoBitStrategy)
{
    EXPECT_EQ(twoBitBtbFrontend().btb.l1.strategy,
              BtbUpdateStrategy::TwoBit);
    EXPECT_FALSE(twoBitBtbFrontend().btb.twoLevel);
}

TEST(Harness, TwoLevelFrontendGeometry)
{
    const FrontendConfig fe = twoLevelBtbFrontend();
    EXPECT_TRUE(fe.btb.twoLevel);
    EXPECT_EQ(fe.btb.l1.entries(), 64u);
    EXPECT_EQ(fe.btb.l2.entries(), 8192u);
    EXPECT_EQ(fe.btb.missPenalty, 2u);
    EXPECT_FALSE(smallBtbFrontend().btb.twoLevel);
    EXPECT_EQ(smallBtbFrontend().btb.l1.entries(), 64u);
}

TEST(Harness, HistorySpecBuilders)
{
    EXPECT_EQ(patternHistory(16).lengthBits, 16u);
    HistorySpec path = pathGlobal(PathFilter::CallRet, 9, 2, 4);
    EXPECT_EQ(path.kind, HistoryKind::PathGlobal);
    EXPECT_EQ(path.filter, PathFilter::CallRet);
    EXPECT_EQ(path.path.bitsPerTarget, 2u);
    EXPECT_EQ(path.path.addrBitOffset, 4u);
    EXPECT_EQ(pathPerAddress().kind, HistoryKind::PathPerAddress);
}

TEST(Harness, ResolveOpsPrecedence)
{
    char prog[] = "prog";
    char arg[] = "12345";
    char *argv[] = {prog, arg};
    EXPECT_EQ(resolveOps(2, argv, 99), 12345u);
    EXPECT_EQ(resolveOps(1, argv, 99), 99u);
}

} // namespace
} // namespace tpred
