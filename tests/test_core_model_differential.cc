/**
 * @file
 * The event-driven core model against the every-cycle reference
 * (reference_core_model.hh): the same cycles, stall attribution and
 * D-cache behaviour, and byte-identical checkpoints at every op
 * boundary tried, across machine shapes, random traces and workloads.
 * Plus the checks that are the event-driven engine's own: a reference
 * checkpoint restores into it (wake-up state rebuilt), forking equals
 * a save/restore round trip, a copy shifted by a cycle delta compares
 * equal up to that shift and finishes shifted while a perturbed one
 * does not compare equal, idle runs really are skipped, and bad
 * parameters or checkpoints fail loudly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
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
    // The wake-up wheel at its wrap boundary: a longest operand wait
    // of 2^6 - 1 cycles fills a 64-bucket wheel to its last bucket,
    // one of 2^6 takes the first wait that needs 128.
    CoreParams wheel_full;
    wheel_full.dcache.missLatency = 61;
    out.push_back({"wheel-63", wheel_full});
    CoreParams wheel_next;
    wheel_next.dcache.missLatency = 62;
    out.push_back({"wheel-64", wheel_next});
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

/**
 * A copy shifted by +delta or -delta cycles compares equal to the
 * original up to the shift and finishes with the original's result:
 * its cycles moved by the shift, the same stall breakdown, BTB-miss
 * stalls and D-cache stats.  -delta takes the copy back to the
 * original's first cycles, so past cycle values must not wrap.
 */
TEST_P(CoreDifferential, ShiftedCopyComparesEqualAndFinishesShifted)
{
    const CoreParams &params = GetParam().params;
    for (const Input &in : inputs()) {
        Rig<CoreModel> whole(in, params);
        VectorTraceSource whole_src(in.ops);
        whole.core.beginSession();
        whole.core.runSession(whole_src, whole.frontend, UINT64_MAX,
                              UINT64_MAX);
        const CoreResult want =
            whole.core.endSession(whole.frontend.stats(), false);

        const uint64_t mid = in.ops.size() / 2;
        Rig<CoreModel> orig(in, params);
        VectorTraceSource orig_src(in.ops);
        orig.core.beginSession();
        ASSERT_TRUE(orig.core.runSession(orig_src, orig.frontend,
                                         UINT64_MAX, mid));
        const auto delta = static_cast<int64_t>(orig.core.cycles());
        ASSERT_GT(delta, 0);
        const std::vector<MicroOp> rest(
            in.ops.begin() + static_cast<ptrdiff_t>(mid), in.ops.end());

        for (const int64_t shift : {delta, -delta}) {
            const std::string where =
                in.name + " shifted by " + std::to_string(shift);
            Rig<CoreModel> copy(in, params);
            copy.core.forkFrom(orig.core, shift);
            EXPECT_TRUE(copy.core.equalUpToShift(orig.core)) << where;
            EXPECT_TRUE(orig.core.equalUpToShift(copy.core)) << where;
            EXPECT_EQ(copy.core.cycles(),
                      orig.core.cycles() + static_cast<uint64_t>(shift))
                << where;

            copy.restoreFrontend(orig.frontendBytes());
            VectorTraceSource rest_src(rest);
            copy.core.runSession(rest_src, copy.frontend, UINT64_MAX,
                                 UINT64_MAX);
            CoreResult got =
                copy.core.endSession(copy.frontend.stats(), false);
            got.cycles -= static_cast<uint64_t>(shift);
            expectSameResult(got, want, where);
        }
    }
}

/** Where the fields the perturbation test edits sit in a checkpoint. */
struct CheckpointMap
{
    struct Line
    {
        bool valid;
        uint64_t lastUsed;
        size_t lastUsedAt;
    };
    struct Entry
    {
        bool issued;
        uint64_t doneCycle;
        size_t doneCycleAt;
    };
    std::vector<Line> lines;
    uint64_t cycle = 0;
    uint32_t fetched = 0;
    size_t fetchedAt = 0;
    size_t redirectPendingAt = 0;
    size_t stallKindAt = 0;
    size_t btbStallPendingAt = 0;
    std::vector<Entry> entries;
};

/** Walks CoreModel::saveState's layout (DCache's first). */
CheckpointMap
mapCheckpoint(const std::vector<uint8_t> &bytes, size_t dcache_lines)
{
    CheckpointMap map;
    StateReader r(bytes);
    const auto here = [&] { return bytes.size() - r.remaining(); };
    r.u64();  // LRU clock
    r.u64();  // hits
    r.u64();  // misses
    for (size_t i = 0; i < dcache_lines; ++i) {
        CheckpointMap::Line line{};
        line.valid = r.b();
        r.u64();  // tag
        line.lastUsedAt = here();
        line.lastUsed = r.u64();
        map.lines.push_back(line);
    }
    // Writer map, stall buckets, BTB-miss stalls, instructions.
    for (size_t i = 0; i < kNumArchRegs + 7 + 2; ++i)
        r.u64();
    map.cycle = r.u64();
    r.u64();  // next sequence number
    r.u64();  // fetch-resume cycle
    r.u64();  // ops fetched
    map.fetchedAt = here();
    map.fetched = r.u32();
    map.redirectPendingAt = here();
    r.b();
    r.b();  // inside a fetch group
    map.stallKindAt = here();
    r.u8();
    map.btbStallPendingAt = here();
    r.b();
    r.b();  // trace ended
    const uint64_t window = r.u64();
    for (uint64_t i = 0; i < window; ++i) {
        for (int f = 0; f < 5; ++f)
            r.u64();  // pc, nextPc, fallthrough, memAddr, selector
        r.u8();   // class
        r.u8();   // branch kind
        r.b();    // taken
        r.i16();  // destination
        r.i16();  // sources
        r.i16();
        r.u64();  // seq
        r.u64();  // producers
        r.u64();
        CheckpointMap::Entry entry{};
        entry.doneCycleAt = here();
        entry.doneCycle = r.u64();
        entry.issued = r.b();
        r.b();  // mispredicted
        map.entries.push_back(entry);
    }
    r.expectEnd();
    return map;
}

template <typename T>
void
poke(std::vector<uint8_t> &bytes, size_t at, T value)
{
    std::memcpy(bytes.data() + at, &value, sizeof(value));
}

/**
 * Perturbing one compared field of a suspended core's checkpoint —
 * an in-flight op's completion cycle, a fetch-group field, the LRU
 * order of one D-cache set — makes equalUpToShift fail both ways,
 * while the unperturbed checkpoint restores to an equal core.
 */
TEST_P(CoreDifferential, PerturbedCheckpointIsNotEqual)
{
    const CoreParams &params = GetParam().params;
    const unsigned ways = params.dcache.ways;
    ASSERT_GE(ways, 2u) << "an LRU order needs two ways";
    const size_t lines = size_t{params.dcache.sets()} * ways;
    for (const Input &in : inputs()) {
        bool perturbed_done_cycle = false;
        bool perturbed_lru = false;
        Rig<CoreModel> orig(in, params);
        VectorTraceSource src(in.ops);
        orig.core.beginSession();
        for (const uint64_t b : boundaries(in.ops.size())) {
            const std::string where = in.name + " at op " + std::to_string(b);
            ASSERT_TRUE(
                orig.core.runSession(src, orig.frontend, UINT64_MAX, b));
            const std::vector<uint8_t> bytes = orig.coreBytes();
            const CheckpointMap map = mapCheckpoint(bytes, lines);
            // 1: equal both ways, 0: unequal both ways, -1: asymmetric.
            const auto compare = [&](const std::vector<uint8_t> &edited) {
                CoreModel core(params);
                StateReader r(edited);
                core.restoreState(r);
                const bool there = core.equalUpToShift(orig.core);
                const bool back = orig.core.equalUpToShift(core);
                return there != back ? -1 : there ? 1 : 0;
            };
            ASSERT_EQ(compare(bytes), 1) << where;

            std::vector<std::pair<std::string, std::vector<uint8_t>>> edits;
            const auto edit = [&](const std::string &what) {
                edits.emplace_back(what, bytes);
                return &edits.back().second;
            };
            for (const CheckpointMap::Entry &e : map.entries) {
                if (!e.issued || e.doneCycle <= map.cycle)
                    continue;
                // Still in flight after the edit, and no further ahead
                // than the longest operand wait.
                const uint64_t moved = e.doneCycle > map.cycle + 1
                                           ? e.doneCycle - 1
                                           : e.doneCycle + 1;
                poke(*edit("completion cycle"), e.doneCycleAt, moved);
                perturbed_done_cycle = true;
                break;
            }
            poke(*edit("ops in fetch group"), map.fetchedAt,
                 map.fetched + 1);
            (*edit("redirect pending"))[map.redirectPendingAt] ^= 1;
            (*edit("stall kind"))[map.stallKindAt] ^= 1;
            (*edit("BTB-miss stall pending"))[map.btbStallPendingAt] ^= 1;
            for (size_t set = 0; set < lines; set += ways) {
                const CheckpointMap::Line &first = map.lines[set];
                const CheckpointMap::Line &last = map.lines[set + ways - 1];
                if (!first.valid || !last.valid)
                    continue;
                std::vector<uint8_t> *swapped = edit("LRU order");
                poke(*swapped, first.lastUsedAt, last.lastUsed);
                poke(*swapped, last.lastUsedAt, first.lastUsed);
                perturbed_lru = true;
                break;
            }
            for (const auto &[what, edited] : edits)
                EXPECT_EQ(compare(edited), 0) << where << ": " << what;
        }
        EXPECT_TRUE(perturbed_done_cycle) << in.name << ": nothing in flight";
        EXPECT_TRUE(perturbed_lru) << in.name << ": no full D-cache set";
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

/** The wheel-boundary machines sit exactly at their waits. */
TEST(CoreEventDriven, LongestOperandWaitSizesTheWheel)
{
    std::map<std::string, uint64_t> waits;
    for (const Machine &m : machines())
        waits[m.name] = longestOperandWait(m.params);
    EXPECT_EQ(waits.at("paper"), 22u);  // load: 1 + hit 1 + miss 20
    EXPECT_EQ(waits.at("slow-memory"), 152u);
    EXPECT_EQ(waits.at("wheel-63"), 63u);
    EXPECT_EQ(waits.at("wheel-64"), 64u);

    CoreParams p;
    p.dcache.missLatency = static_cast<unsigned>(kMaxOperandWait);
    EXPECT_THROW(CoreModel{p}, std::invalid_argument);
    p.dcache.missLatency = static_cast<unsigned>(kMaxOperandWait) - 2;
    EXPECT_NO_THROW(CoreModel{p});
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
