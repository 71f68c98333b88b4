/**
 * @file
 * Checkpoint round-trip property tests.
 *
 * The sharded-replay machinery (harness/shard_replay.hh) rests on one
 * property: serializing the complete replay state at an arbitrary op
 * boundary, restoring it into a fresh rig, and replaying the rest of
 * the trace is bit-identical to never having stopped.  These tests
 * fuzz that property directly — boundary positions are drawn the way
 * test_core_model_fuzz.cc draws trace shapes — for every predictor
 * family (BTB baseline, tagless, tagged with pattern / path / per-
 * address histories, cascaded, ITTAGE, oracle), both direction
 * schemes (gshare and tournament, which also exercises the RAS and
 * BTB snapshots), and the out-of-order core model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "harness/experiment.hh"
#include "harness/paper_tables.hh"
#include "test_util.hh"
#include "trace/trace_source.hh"
#include "uarch/core_model.hh"

namespace tpred
{
namespace
{

std::vector<MicroOp>
randomTrace(uint64_t seed, size_t length)
{
    Rng rng(seed);
    std::vector<MicroOp> ops;
    ops.reserve(length);
    uint64_t pc = 0x1000;
    std::vector<uint64_t> call_stack;
    for (size_t i = 0; i < length; ++i) {
        const double draw = rng.uniform();
        if (draw < 0.45) {
            MicroOp op = test::plainOp(
                pc, static_cast<InstClass>(rng.below(7)));
            if (op.cls == InstClass::Load ||
                op.cls == InstClass::Store)
                op.memAddr = rng.below(1 << 22);
            op.srcRegs[0] = static_cast<RegIndex>(rng.below(64));
            if (op.cls != InstClass::Store)
                op.dstReg = static_cast<RegIndex>(rng.below(64));
            ops.push_back(op);
            pc += 4;
        } else if (draw < 0.65) {
            const bool taken = rng.chance(0.6);
            const uint64_t target = 0x1000 + rng.below(4096) * 4;
            ops.push_back(test::branchOp(pc, BranchKind::CondDirect,
                                         target, taken));
            pc = taken ? target : pc + 4;
        } else if (draw < 0.80) {
            const uint64_t target = 0x1000 + rng.below(512) * 4;
            ops.push_back(test::indirectOp(pc, target, rng.below(16)));
            pc = target;
        } else if (draw < 0.92 || call_stack.empty()) {
            const uint64_t target = 0x1000 + rng.below(4096) * 4;
            ops.push_back(
                test::branchOp(pc, BranchKind::Call, target));
            call_stack.push_back(pc + 4);
            pc = target;
        } else {
            const uint64_t ret_to = call_stack.back();
            call_stack.pop_back();
            ops.push_back(
                test::branchOp(pc, BranchKind::Return, ret_to));
            pc = ret_to;
        }
    }
    return ops;
}

/** Every predictor family the paper evaluates, by name. */
std::vector<std::pair<std::string, IndirectConfig>>
checkpointConfigs()
{
    return {
        {"btb", baselineConfig()},
        {"tagless-pattern", taglessGshare(patternHistory(9))},
        {"tagless-peraddr", taglessGshare(pathPerAddress(9, 2))},
        {"tagged-xor",
         taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                      patternHistory(9))},
        {"cascaded", cascadedConfig(128, 4)},
        {"ittage", ittageConfig()},
        {"oracle", oracleConfig()},
    };
}

/** Full accuracy-path replay state (mirrors the shard rig). */
struct Rig
{
    PredictorStack stack;
    FrontendPredictor frontend;

    Rig(const IndirectConfig &config, const FrontendConfig &fe)
        : stack(buildStack(config)),
          frontend(fe, stack.predictor.get(), stack.tracker.get())
    {
    }

    std::vector<uint8_t>
    snapshot() const
    {
        StateWriter w;
        frontend.saveState(w);
        if (stack.predictor) {
            stack.predictor->saveState(w);
            stack.tracker->saveState(w);
        }
        return w.take();
    }

    void
    restore(const std::vector<uint8_t> &blob)
    {
        StateReader r(blob);
        frontend.restoreState(r);
        if (stack.predictor) {
            stack.predictor->restoreState(r);
            stack.tracker->restoreState(r);
        }
        r.expectEnd();
    }
};

void
expectStatsEqual(const FrontendStats &a, const FrontendStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.indirectJumps.hits(), b.indirectJumps.hits());
    EXPECT_EQ(a.indirectJumps.total(), b.indirectJumps.total());
    EXPECT_EQ(a.condDirection.hits(), b.condDirection.hits());
    EXPECT_EQ(a.returns.hits(), b.returns.hits());
    EXPECT_EQ(a.btbHits.hits(), b.btbHits.hits());
    EXPECT_EQ(a.allBranches.hits(), b.allBranches.hits());
    EXPECT_EQ(a.allBranches.total(), b.allBranches.total());
}

/** Boundary positions: fixed edges plus fuzzed interior points. */
std::vector<size_t>
fuzzBoundaries(uint64_t seed, size_t n)
{
    Rng rng(seed ^ 0x5eed5eedULL);
    std::vector<size_t> bounds = {0, 1, n - 1, n};
    for (int i = 0; i < 3; ++i)
        bounds.push_back(rng.below(n + 1));
    return bounds;
}

class CheckpointRoundTrip : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * For every family and fuzzed boundary B: replaying [0, B), saving,
 * restoring into a fresh rig and replaying [B, N) must equal one
 * uninterrupted replay — byte-identical final state, equal stats.
 */
TEST_P(CheckpointRoundTrip, AccuracyStateSurvivesSaveRestore)
{
    const uint64_t seed = GetParam();
    const auto ops = randomTrace(seed, 8000);
    for (const auto &[name, config] : checkpointConfigs()) {
        for (const FrontendConfig &fe :
             {FrontendConfig{},
              [] {
                  FrontendConfig t;
                  t.direction = DirectionScheme::Tournament;
                  return t;
              }()}) {
            Rig base(config, fe);
            for (const MicroOp &op : ops)
                base.frontend.onInstruction(op);
            const auto final_state = base.snapshot();

            for (const size_t b : fuzzBoundaries(seed, ops.size())) {
                Rig head(config, fe);
                for (size_t i = 0; i < b; ++i)
                    head.frontend.onInstruction(ops[i]);

                Rig tail(config, fe);
                tail.restore(head.snapshot());
                for (size_t i = b; i < ops.size(); ++i)
                    tail.frontend.onInstruction(ops[i]);

                EXPECT_EQ(tail.snapshot(), final_state)
                    << name << " boundary " << b << " seed " << seed;
                expectStatsEqual(tail.frontend.stats(),
                                 base.frontend.stats());
            }
        }
    }
}

/** Restore must reproduce the exact serialized image (no asymmetric
 *  save/restore drift), at an arbitrary mid-trace point. */
TEST_P(CheckpointRoundTrip, SerializationIsStable)
{
    const uint64_t seed = GetParam();
    const auto ops = randomTrace(seed ^ 0xf00d, 4000);
    for (const auto &[name, config] : checkpointConfigs()) {
        Rig rig(config, FrontendConfig{});
        for (size_t i = 0; i < ops.size() / 2; ++i)
            rig.frontend.onInstruction(ops[i]);
        const auto blob = rig.snapshot();

        Rig copy(config, FrontendConfig{});
        copy.restore(blob);
        EXPECT_EQ(copy.snapshot(), blob) << name << " seed " << seed;
    }
}

/**
 * Core-model analogue: suspend a session at fetched == B, serialize
 * core + front end + predictor + tracker, restore into a fresh rig,
 * resume from the suspension point.  Final state and CoreResult must
 * match an uninterrupted session.
 */
TEST_P(CheckpointRoundTrip, CoreModelStateSurvivesSaveRestore)
{
    const uint64_t seed = GetParam();
    const auto ops = randomTrace(seed ^ 0xc0de, 6000);
    const IndirectConfig config =
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(9));
    CoreParams params;

    struct TRig
    {
        PredictorStack stack;
        FrontendPredictor frontend;
        CoreModel core;

        TRig(const IndirectConfig &c, const CoreParams &p)
            : stack(buildStack(c)),
              frontend(FrontendConfig{}, stack.predictor.get(),
                       stack.tracker.get()),
              core(p)
        {
        }

        std::vector<uint8_t>
        snapshot() const
        {
            StateWriter w;
            core.saveState(w);
            frontend.saveState(w);
            stack.predictor->saveState(w);
            stack.tracker->saveState(w);
            return w.take();
        }

        void
        restore(const std::vector<uint8_t> &blob)
        {
            StateReader r(blob);
            core.restoreState(r);
            frontend.restoreState(r);
            stack.predictor->restoreState(r);
            stack.tracker->restoreState(r);
            r.expectEnd();
        }
    };

    TRig base(config, params);
    {
        VectorTraceSource src(ops);
        base.core.beginSession();
        base.core.runSession(src, base.frontend, 1u << 30,
                             UINT64_MAX);
    }
    const CoreResult expected =
        base.core.endSession(base.frontend.stats());
    const auto final_state = base.snapshot();

    for (const size_t b : fuzzBoundaries(seed, ops.size())) {
        TRig head(config, params);
        VectorTraceSource src(ops);
        head.core.beginSession();
        const bool suspended = head.core.runSession(
            src, head.frontend, 1u << 30, b);
        ASSERT_TRUE(suspended) << "boundary " << b;
        ASSERT_EQ(head.core.totalFetched(), b);

        TRig tail(config, params);
        tail.restore(head.snapshot());
        std::vector<MicroOp> rest(ops.begin() +
                                      static_cast<ptrdiff_t>(b),
                                  ops.end());
        VectorTraceSource rest_src(rest);
        tail.core.runSession(rest_src, tail.frontend, 1u << 30,
                             UINT64_MAX);
        const CoreResult got =
            tail.core.endSession(tail.frontend.stats());

        EXPECT_EQ(tail.snapshot(), final_state)
            << "boundary " << b << " seed " << seed;
        EXPECT_EQ(got.cycles, expected.cycles) << "boundary " << b;
        EXPECT_EQ(got.instructions, expected.instructions);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u,
                                           12345u));

} // namespace
} // namespace tpred
