/**
 * @file
 * Fuzz tests: the timing model must terminate and retire every
 * instruction for arbitrary well-formed traces, including degenerate
 * shapes no workload generator produces.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "uarch/core_model.hh"

namespace tpred
{
namespace
{

class CoreFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CoreFuzz, TerminatesAndRetiresEverything)
{
    auto ops = test::randomTrace(GetParam(), 20000);
    VectorTraceSource trace(ops);
    FrontendPredictor frontend{FrontendConfig{}};
    CoreParams params;
    params.width = 4;
    params.window = 32;
    params.fuCount = 4;
    CoreModel core(params);
    CoreResult result = core.run(trace, frontend, 1u << 30);
    EXPECT_EQ(result.instructions, ops.size());
    EXPECT_GT(result.cycles, ops.size() / 4);
    // Sanity ceiling: even all-miss traces finish within a generous
    // per-instruction cycle bound (no livelock).
    EXPECT_LT(result.cycles, ops.size() * 64);
}

TEST_P(CoreFuzz, AccuracyHarnessHandlesArbitraryTraces)
{
    auto ops = test::randomTrace(GetParam() ^ 0xabcdef, 20000);
    VectorTraceSource trace(ops);
    FrontendPredictor frontend{FrontendConfig{}};
    MicroOp op;
    while (trace.next(op))
        frontend.onInstruction(op);
    const FrontendStats &stats = frontend.stats();
    EXPECT_EQ(stats.instructions, ops.size());
    EXPECT_LE(stats.allBranches.hits(), stats.allBranches.total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreFuzz,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u,
                                           12345u));

/** Degenerate traces: all branches, deep nesting, single instr. */
TEST(CoreFuzzEdge, AllTakenBranches)
{
    std::vector<MicroOp> ops;
    uint64_t pc = 0x1000;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t target = 0x1000 + ((i * 7919) % 1024) * 4;
        ops.push_back(test::indirectOp(pc, target));
        pc = target;
    }
    VectorTraceSource trace(ops);
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel core(CoreParams{});
    CoreResult result = core.run(trace, frontend, 1u << 30);
    EXPECT_EQ(result.instructions, 5000u);
}

TEST(CoreFuzzEdge, SingleInstruction)
{
    VectorTraceSource trace({test::plainOp(0x100)});
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel core(CoreParams{});
    CoreResult result = core.run(trace, frontend, 10);
    EXPECT_EQ(result.instructions, 1u);
    EXPECT_GE(result.cycles, 1u);
}

TEST(CoreFuzzEdge, EmptyTrace)
{
    VectorTraceSource trace(std::vector<MicroOp>{});
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel core(CoreParams{});
    CoreResult result = core.run(trace, frontend, 10);
    EXPECT_EQ(result.instructions, 0u);
}

} // namespace
} // namespace tpred
