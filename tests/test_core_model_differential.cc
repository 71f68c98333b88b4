/**
 * @file
 * The event-driven core model against the every-cycle reference
 * (reference_core_model.hh): the same cycles, stall attribution and
 * D-cache behaviour, and byte-identical checkpoints at every op
 * boundary tried, across machine shapes, random traces and workloads.
 * Plus the checks that are the event-driven engine's own: a reference
 * checkpoint restores into it (wake-up state rebuilt), forking equals
 * a save/restore round trip, idle runs really are skipped, and bad
 * parameters or checkpoints fail loudly.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "harness/experiment.hh"
#include "harness/paper_tables.hh"
#include "obs/metrics.hh"
#include "reference_core_model.hh"
#include "test_util.hh"
#include "trace/trace_source.hh"
#include "uarch/core_model.hh"

namespace tpred
{
namespace
{

struct Machine
{
    std::string name;
    CoreParams params;
};

// Print the name only: gtest's default byte dump would put the heap
// address of `name` into the test's listed name.
void
PrintTo(const Machine &machine, std::ostream *os)
{
    *os << machine.name;
}

std::vector<Machine>
machines()
{
    std::vector<Machine> out;
    out.push_back({"paper", CoreParams{}});
    CoreParams small;
    small.width = 4;
    small.window = 32;
    small.fuCount = 4;
    out.push_back({"small", small});
    // Non-power-of-two windows: the ring is larger than the window.
    CoreParams narrow;
    narrow.width = 2;
    narrow.window = 5;
    narrow.fuCount = 1;
    out.push_back({"narrow", narrow});
    CoreParams wide;
    wide.width = 16;
    wide.window = 200;
    wide.fuCount = 3;
    out.push_back({"wide", wide});
    // Long memory latency and a tiny cache: long idle runs.
    CoreParams slow;
    slow.dcache.sizeBytes = 1024;
    slow.dcache.missLatency = 150;
    out.push_back({"slow-memory", slow});
    return out;
}

struct Input
{
    std::string name;
    std::vector<MicroOp> ops;
    IndirectConfig config;
    FrontendConfig fe;
};

std::vector<MicroOp>
opsOf(const SharedTrace &trace)
{
    std::vector<MicroOp> ops;
    CompactReplay replay = trace.replay();
    MicroOp op;
    while (replay.next(op))
        ops.push_back(op);
    return ops;
}

std::vector<Input>
inputs()
{
    const IndirectConfig tagged =
        taggedConfig(TaggedIndexScheme::HistoryXor, 4);
    std::vector<Input> out;
    for (const uint64_t seed : {1u, 2u})
        out.push_back({"random" + std::to_string(seed),
                       test::randomTrace(seed, 12000), taglessGshare(),
                       FrontendConfig{}});
    out.push_back(
        {"gcc", opsOf(recordWorkload("gcc", 20000)), tagged, {}});
    out.push_back(
        {"perl", opsOf(recordWorkload("perl", 20000)), IndirectConfig{}, {}});
    // A two-level BTB: L2-supplied redirects charge fetch bubbles.
    out.push_back({"server-dispatch",
                   opsOf(recordWorkload("server-dispatch", 20000)), tagged,
                   twoLevelBtbFrontend()});
    return out;
}

/** A core of either engine with its own front end and predictor. */
template <typename Core>
struct Rig
{
    PredictorStack stack;
    FrontendPredictor frontend;
    Core core;

    Rig(const Input &in, const CoreParams &params)
        : stack(buildStack(in.config)),
          frontend(in.fe, stack.predictor.get(), stack.tracker.get()),
          core(params)
    {
    }

    std::vector<uint8_t>
    coreBytes() const
    {
        StateWriter w;
        core.saveState(w);
        return w.take();
    }

    /** Front end + predictor + tracker, without the core. */
    std::vector<uint8_t>
    frontendBytes() const
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
    restoreFrontend(const std::vector<uint8_t> &bytes)
    {
        StateReader r(bytes);
        frontend.restoreState(r);
        if (stack.predictor) {
            stack.predictor->restoreState(r);
            stack.tracker->restoreState(r);
        }
        r.expectEnd();
    }
};

void
expectSameResult(const CoreResult &got, const CoreResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.cycles, want.cycles) << where;
    EXPECT_EQ(got.instructions, want.instructions) << where;
    EXPECT_EQ(got.stallCyclesByKind, want.stallCyclesByKind) << where;
    EXPECT_EQ(got.btbMissStallCycles, want.btbMissStallCycles) << where;
    EXPECT_EQ(got.dcache.hits, want.dcache.hits) << where;
    EXPECT_EQ(got.dcache.misses, want.dcache.misses) << where;
    EXPECT_EQ(got.frontend.indirectJumps.hits(),
              want.frontend.indirectJumps.hits())
        << where;
}

/** Op boundaries to suspend at: spread over the trace, plus edges. */
std::vector<uint64_t>
boundaries(size_t n)
{
    std::vector<uint64_t> out = {1, 2, 3};
    for (uint64_t b = 97; b < n; b += n / 9 + 13)
        out.push_back(b);
    out.push_back(n);
    return out;
}

class CoreDifferential : public ::testing::TestWithParam<Machine>
{
};

TEST_P(CoreDifferential, MatchesReferenceAtEveryBoundary)
{
    const CoreParams &params = GetParam().params;
    for (const Input &in : inputs()) {
        Rig<CoreModel> fast(in, params);
        Rig<test::ReferenceCoreModel> ref(in, params);
        VectorTraceSource fast_src(in.ops);
        VectorTraceSource ref_src(in.ops);
        fast.core.beginSession();
        for (const uint64_t b : boundaries(in.ops.size())) {
            const std::string where = in.name + " at op " + std::to_string(b);
            ASSERT_TRUE(fast.core.runSession(fast_src, fast.frontend,
                                             UINT64_MAX, b))
                << where;
            ASSERT_TRUE(ref.core.runSession(ref_src, ref.frontend,
                                            UINT64_MAX, b))
                << where;
            ASSERT_EQ(fast.coreBytes(), ref.coreBytes()) << where;
        }
        fast.core.runSession(fast_src, fast.frontend, UINT64_MAX, UINT64_MAX);
        ref.core.runSession(ref_src, ref.frontend, UINT64_MAX, UINT64_MAX);
        EXPECT_EQ(fast.coreBytes(), ref.coreBytes()) << in.name << " end";
        expectSameResult(
            fast.core.endSession(fast.frontend.stats(), false),
            ref.core.result(ref.frontend), in.name);
    }
}

TEST_P(CoreDifferential, StopsAtMaxInstrsLikeReference)
{
    const CoreParams &params = GetParam().params;
    const Input in = inputs().front();
    for (const uint64_t max_instrs : {1u, 100u, 4321u}) {
        Rig<CoreModel> fast(in, params);
        Rig<test::ReferenceCoreModel> ref(in, params);
        VectorTraceSource fast_src(in.ops);
        VectorTraceSource ref_src(in.ops);
        fast.core.beginSession();
        fast.core.runSession(fast_src, fast.frontend, max_instrs, UINT64_MAX);
        ref.core.runSession(ref_src, ref.frontend, max_instrs, UINT64_MAX);
        EXPECT_EQ(fast.coreBytes(), ref.coreBytes()) << max_instrs;
    }
}

/**
 * A reference checkpoint carries no wake-up state; restoring it must
 * rebuild the wake-up lists, ready set and timers so the run continues
 * exactly as the reference does.
 */
TEST_P(CoreDifferential, ContinuesFromReferenceCheckpoints)
{
    const CoreParams &params = GetParam().params;
    for (const Input &in : inputs()) {
        Rig<test::ReferenceCoreModel> whole(in, params);
        VectorTraceSource whole_src(in.ops);
        whole.core.runSession(whole_src, whole.frontend, UINT64_MAX,
                              UINT64_MAX);
        const CoreResult want = whole.core.result(whole.frontend);

        for (const uint64_t b : boundaries(in.ops.size())) {
            const std::string where = in.name + " at op " + std::to_string(b);
            Rig<test::ReferenceCoreModel> head(in, params);
            VectorTraceSource head_src(in.ops);
            ASSERT_TRUE(head.core.runSession(head_src, head.frontend,
                                             UINT64_MAX, b));

            Rig<CoreModel> tail(in, params);
            const std::vector<uint8_t> bytes = head.coreBytes();
            StateReader r(bytes);
            tail.core.restoreState(r);
            r.expectEnd();
            tail.restoreFrontend(head.frontendBytes());
            const std::vector<MicroOp> rest(
                in.ops.begin() + static_cast<ptrdiff_t>(b), in.ops.end());
            VectorTraceSource rest_src(rest);
            tail.core.runSession(rest_src, tail.frontend, UINT64_MAX,
                                 UINT64_MAX);
            expectSameResult(
                tail.core.endSession(tail.frontend.stats(), false), want,
                where);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Machines, CoreDifferential,
                         ::testing::ValuesIn(machines()),
                         [](const auto &info) {
                             std::string name = info.param.name;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(CoreEventDriven, ForkEqualsSaveRestoreRoundTrip)
{
    const Input in = inputs()[2];  // gcc
    const CoreParams params;
    Rig<CoreModel> lead(in, params);
    VectorTraceSource lead_src(in.ops);
    lead.core.beginSession();
    ASSERT_TRUE(lead.core.runSession(lead_src, lead.frontend, UINT64_MAX,
                                     in.ops.size() / 2));

    Rig<CoreModel> forked(in, params);
    forked.core.forkFrom(lead.core);
    Rig<CoreModel> restored(in, params);
    const std::vector<uint8_t> bytes = lead.coreBytes();
    StateReader r(bytes);
    restored.core.restoreState(r);
    EXPECT_EQ(forked.coreBytes(), restored.coreBytes());

    const std::vector<uint8_t> fe = lead.frontendBytes();
    forked.restoreFrontend(fe);
    restored.restoreFrontend(fe);
    const std::vector<MicroOp> rest(
        in.ops.begin() + static_cast<ptrdiff_t>(in.ops.size() / 2),
        in.ops.end());
    VectorTraceSource a(rest), b(rest);
    forked.core.runSession(a, forked.frontend, UINT64_MAX, UINT64_MAX);
    restored.core.runSession(b, restored.frontend, UINT64_MAX, UINT64_MAX);
    EXPECT_EQ(forked.coreBytes(), restored.coreBytes());
}

/** A divide chain idles seven cycles in eight; they are skipped. */
TEST(CoreEventDriven, SkipsIdleCyclesAndCountsThem)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 500; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4, InstClass::Div);
        op.srcRegs = {10, kNoReg};
        op.dstReg = 10;
        ops.push_back(op);
    }
    const auto skipped_counter = [] {
        const auto snap = obs::globalMetrics().snapshot();
        const auto it = snap.runtime.find("core.idle_cycles_skipped");
        return it == snap.runtime.end() ? uint64_t{0} : it->second;
    };
    const uint64_t before = skipped_counter();

    VectorTraceSource trace(ops);
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel core{CoreParams{}};
    const CoreResult result = core.run(trace, frontend, UINT64_MAX);
    EXPECT_EQ(result.instructions, 500u);
    EXPECT_GT(core.idleCyclesSkipped(), result.cycles * 3 / 4);
    EXPECT_LT(core.idleCyclesSkipped(), result.cycles);
    EXPECT_EQ(skipped_counter() - before, core.idleCyclesSkipped());

    VectorTraceSource again(ops);
    FrontendPredictor ref_frontend{FrontendConfig{}};
    test::ReferenceCoreModel ref{CoreParams{}};
    ref.runSession(again, ref_frontend, UINT64_MAX, UINT64_MAX);
    EXPECT_EQ(result.cycles, ref.result(ref_frontend).cycles);
}

TEST(CoreEventDriven, RejectsZeroMachineParameters)
{
    CoreParams p;
    p.width = 0;
    EXPECT_THROW(CoreModel{p}, std::invalid_argument);
    p = CoreParams{};
    p.window = 0;
    EXPECT_THROW(CoreModel{p}, std::invalid_argument);
    p = CoreParams{};
    p.fuCount = 0;
    EXPECT_THROW(CoreModel{p}, std::invalid_argument);
}

TEST(CoreEventDriven, RejectsCheckpointLargerThanWindow)
{
    // A dependent divide chain fills the 128-entry window.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 400; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4, InstClass::Div);
        op.srcRegs = {10, kNoReg};
        op.dstReg = 10;
        ops.push_back(op);
    }
    VectorTraceSource trace(ops);
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel big{CoreParams{}};
    big.beginSession();
    ASSERT_TRUE(big.runSession(trace, frontend, UINT64_MAX, 300));
    StateWriter w;
    big.saveState(w);

    CoreParams small_params;
    small_params.window = 32;
    CoreModel small{small_params};
    StateReader r(w.bytes());
    EXPECT_THROW(small.restoreState(r), StateFormatError);
}

} // namespace
} // namespace tpred
