/**
 * @file
 * CompactTrace tests: lossless round-trip of arbitrary op sequences,
 * the differential suite asserting compact replay is op-for-op
 * identical to legacy vector replay across all 8 workloads x 2 seeds,
 * trace_io byte-identical file round-trips through the columnar form,
 * the branch-index invariant, and the compression-ratio floor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>

#include "harness/paper_tables.hh"
#include "trace/compact_trace.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace tpred
{
namespace
{

/** Field-by-field equality with a readable failure message. */
void
expectOpEq(const MicroOp &a, const MicroOp &b, size_t i)
{
    ASSERT_EQ(a.pc, b.pc) << "op " << i;
    ASSERT_EQ(a.nextPc, b.nextPc) << "op " << i;
    ASSERT_EQ(a.fallthrough, b.fallthrough) << "op " << i;
    ASSERT_EQ(a.memAddr, b.memAddr) << "op " << i;
    ASSERT_EQ(a.selector, b.selector) << "op " << i;
    ASSERT_EQ(a.cls, b.cls) << "op " << i;
    ASSERT_EQ(a.branch, b.branch) << "op " << i;
    ASSERT_EQ(a.taken, b.taken) << "op " << i;
    ASSERT_EQ(a.dstReg, b.dstReg) << "op " << i;
    ASSERT_EQ(a.srcRegs[0], b.srcRegs[0]) << "op " << i;
    ASSERT_EQ(a.srcRegs[1], b.srcRegs[1]) << "op " << i;
}

void
expectRoundTrip(const std::vector<MicroOp> &ops)
{
    const CompactTrace trace = CompactTrace::encode(ops);
    ASSERT_EQ(trace.size(), ops.size());
    const std::vector<MicroOp> decoded = trace.decodeAll();
    ASSERT_EQ(decoded.size(), ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        expectOpEq(decoded[i], ops[i], i);
}

TEST(CompactTrace, EmptyTrace)
{
    const CompactTrace trace = CompactTrace::encode({});
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_TRUE(trace.decodeAll().empty());
    EXPECT_TRUE(trace.branchPositions().empty());
    MicroOp buf[4];
    CompactTrace::Cursor cur = trace.cursor();
    EXPECT_EQ(cur.fill(buf, 4), 0u);
}

TEST(CompactTrace, RoundTripsCoherentStream)
{
    std::vector<MicroOp> ops;
    uint64_t pc = 0x1000;
    for (int i = 0; i < 1000; ++i) {
        MicroOp op;
        op.pc = pc;
        op.fallthrough = pc + 4;
        if (i % 7 == 3) {
            op.cls = InstClass::Branch;
            op.branch = BranchKind::CondDirect;
            op.taken = i % 2 == 0;
            op.nextPc = op.taken ? pc + 400 : op.fallthrough;
        } else if (i % 31 == 5) {
            op.cls = InstClass::Branch;
            op.branch = BranchKind::IndirectJump;
            op.taken = true;
            op.nextPc = 0x9000 + static_cast<uint64_t>(i % 3) * 64;
            op.selector = static_cast<uint64_t>(i % 3);
        } else {
            op.cls = i % 5 == 0 ? InstClass::Load : InstClass::Integer;
            op.nextPc = op.fallthrough;
            if (op.cls == InstClass::Load)
                op.memAddr = 0x200000 + static_cast<uint64_t>(i) * 8;
            op.dstReg = static_cast<RegIndex>(i % 64);
        }
        op.srcRegs[0] = static_cast<RegIndex>((i * 3) % 64);
        ops.push_back(op);
        pc = op.nextPc;
    }
    expectRoundTrip(ops);
}

TEST(CompactTrace, RoundTripsHostileOps)
{
    // Violate every invariant the encoder optimizes for: incoherent
    // pcs, fallthrough != pc+4, huge deltas, out-of-range registers,
    // memAddr on a non-memory op, selector on a non-branch.
    std::vector<MicroOp> ops;
    MicroOp a;
    a.pc = 0xfffffffffffffff0ull;
    a.nextPc = 8;  // wraps past 2^64
    a.fallthrough = 0x1234;
    a.memAddr = 0xdeadbeefcafeull;
    a.selector = UINT64_MAX;
    a.cls = InstClass::Div;
    a.branch = BranchKind::Return;
    a.taken = false;  // unusual for a CTI
    a.dstReg = -1;
    a.srcRegs = {static_cast<RegIndex>(-300),
                 static_cast<RegIndex>(32767)};
    ops.push_back(a);

    MicroOp b;  // pc does not chain from a.nextPc
    b.pc = 0x40;
    b.nextPc = 0x44;
    b.fallthrough = 0x44;
    b.dstReg = 254;  // escape boundary
    ops.push_back(b);

    MicroOp c;  // all defaults, pc 0 after nonzero stream
    ops.push_back(c);

    expectRoundTrip(ops);
}

TEST(CompactTrace, RegisterEscapeBoundaries)
{
    std::vector<MicroOp> ops;
    for (int reg : {-1, 0, 1, 63, 252, 253, 254, 255, -2, -32768}) {
        MicroOp op;
        op.pc = 0;
        op.nextPc = 4;
        op.fallthrough = 4;
        op.dstReg = static_cast<RegIndex>(reg);
        op.srcRegs[1] = static_cast<RegIndex>(-reg);
        ops.push_back(op);
    }
    expectRoundTrip(ops);
}

TEST(CompactTrace, BranchIndexMatchesOps)
{
    const SharedTrace trace = recordWorkload("perl", 30000);
    const std::vector<MicroOp> ops = trace.decodeOps();
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < ops.size(); ++i)
        if (ops[i].isBranch())
            expected.push_back(static_cast<uint32_t>(i));
    const std::span<const uint32_t> positions =
        trace.compact().branchPositions();
    EXPECT_TRUE(std::equal(positions.begin(), positions.end(),
                           expected.begin(), expected.end()));
}

TEST(CompactTrace, ForEachBranchVisitsExactlyTheBranches)
{
    const SharedTrace trace = recordWorkload("gcc", 25000);
    const std::vector<MicroOp> ops = trace.decodeOps();
    size_t idx = 0;
    trace.compact().forEachBranch([&](const MicroOp &op, size_t pos) {
        while (idx < ops.size() && !ops[idx].isBranch())
            ++idx;
        ASSERT_LT(idx, ops.size());
        ASSERT_EQ(pos, idx);
        expectOpEq(op, ops[idx], pos);
        ++idx;
    });
    while (idx < ops.size() && !ops[idx].isBranch())
        ++idx;
    EXPECT_EQ(idx, ops.size()) << "a branch was never visited";
}

/** forEachBranch must equal a decodeAll filter on any trace. */
void
expectBranchScanMatchesDecode(const std::vector<MicroOp> &ops)
{
    const CompactTrace trace = CompactTrace::encode(ops);
    const std::vector<MicroOp> decoded = trace.decodeAll();
    std::vector<size_t> expected;
    for (size_t i = 0; i < decoded.size(); ++i)
        if (decoded[i].isBranch())
            expected.push_back(i);
    size_t visit = 0;
    trace.forEachBranch([&](const MicroOp &op, size_t pos) {
        ASSERT_LT(visit, expected.size());
        ASSERT_EQ(pos, expected[visit]);
        expectOpEq(op, decoded[pos], pos);
        ++visit;
    });
    EXPECT_EQ(visit, expected.size());
}

TEST(CompactTrace, ForEachBranchFallsBackOnHostileTraces)
{
    // Each violates one precondition of the O(branches) fast scan,
    // forcing the block-decode fallback; results must be identical.
    std::vector<MicroOp> ops;
    uint64_t pc = 0x100;
    auto plain = [&]() {
        MicroOp op;
        op.pc = pc;
        op.nextPc = op.fallthrough = pc + 4;
        pc += 4;
        return op;
    };
    auto branch = [&](BranchKind kind, uint64_t target) {
        MicroOp op;
        op.pc = pc;
        op.fallthrough = pc + 4;
        op.cls = InstClass::Branch;
        op.branch = kind;
        op.taken = true;
        op.nextPc = target;
        pc = target;
        return op;
    };

    // (a) redirect on a non-branch op
    ops = {plain(), plain()};
    ops[0].nextPc = 0x9000;  // redirect, BranchKind::None
    ops[1].pc = 0x9000;
    ops[1].nextPc = ops[1].fallthrough = 0x9004;
    MicroOp tail;
    tail.pc = 0x9004;
    tail.fallthrough = 0x9008;
    tail.cls = InstClass::Branch;
    tail.branch = BranchKind::UncondDirect;
    tail.taken = true;
    tail.nextPc = 0x9100;
    ops.push_back(tail);
    expectBranchScanMatchesDecode(ops);

    // (b) memAddr on a branch
    pc = 0x100;
    ops = {plain(), branch(BranchKind::IndirectJump, 0x4000), plain()};
    ops[1].memAddr = 0xbeef;
    ops[1].selector = 3;
    ops[2].pc = 0x4000;
    ops[2].nextPc = ops[2].fallthrough = 0x4004;
    expectBranchScanMatchesDecode(ops);

    // (c) register escape
    pc = 0x100;
    ops = {plain(), branch(BranchKind::Return, 0x500), plain()};
    ops[0].dstReg = 300;
    ops[2].pc = 0x500;
    ops[2].nextPc = ops[2].fallthrough = 0x504;
    expectBranchScanMatchesDecode(ops);

    // (d) fallthrough override on a branch
    pc = 0x100;
    ops = {branch(BranchKind::CondDirect, 0x300), plain()};
    ops[0].fallthrough = 0x777;
    ops[1].pc = 0x300;
    ops[1].nextPc = ops[1].fallthrough = 0x304;
    expectBranchScanMatchesDecode(ops);

    // (e) fast-scan-eligible but with selector on a non-branch-free
    // mix and a mid-stream discontinuity: exercises the gap formula.
    pc = 0x100;
    ops.clear();
    for (int i = 0; i < 600; ++i)
        ops.push_back(plain());
    ops.push_back(branch(BranchKind::IndirectJump, 0x8000));
    ops.back().selector = 42;
    ops.push_back(plain());
    ops.back().pc = 0x8000;
    ops.back().nextPc = ops.back().fallthrough = 0x8004;
    MicroOp jump;  // discontinuity: pc does not chain
    jump.pc = 0x20000;
    jump.nextPc = jump.fallthrough = 0x20004;
    ops.push_back(jump);
    ops.push_back(branch(BranchKind::CondDirect, 0x20100));
    ops.back().pc = 0x20004;
    ops.back().fallthrough = 0x20008;
    expectBranchScanMatchesDecode(ops);
}

TEST(CompactTrace, CompactReplayMatchesDecodeAll)
{
    const SharedTrace trace = recordWorkload("xlisp", 20000);
    const std::vector<MicroOp> ops = trace.decodeOps();
    CompactReplay replay = trace.replay();
    MicroOp op;
    size_t i = 0;
    while (replay.next(op)) {
        ASSERT_LT(i, ops.size());
        expectOpEq(op, ops[i], i);
        ++i;
    }
    EXPECT_EQ(i, ops.size());
    EXPECT_FALSE(replay.next(op));
}

TEST(CompactTrace, CompressionRatioAtLeast4x)
{
    for (const auto &name : spec95Names()) {
        const SharedTrace trace = recordWorkload(name, 100000);
        const double ratio =
            static_cast<double>(
                CompactTrace::legacyBytes(trace.size())) /
            static_cast<double>(trace.compact().residentBytes());
        EXPECT_GE(ratio, 4.0) << name << " compresses only " << ratio
                              << "x";
    }
}

// --- Differential: compact replay vs legacy vector replay ----------

TEST(CompactDifferential, OpForOpIdenticalAcrossWorkloadsAndSeeds)
{
    constexpr size_t kOps = 20000;
    for (const auto &name : spec95Names()) {
        for (uint64_t seed : {1ull, 2ull}) {
            // Legacy ground truth: drain the generator directly into
            // a vector, bypassing CompactTrace entirely.
            auto workload = makeWorkload(name, seed);
            const std::vector<MicroOp> legacy =
                drainTrace(*workload, kOps);

            const SharedTrace trace = recordWorkload(name, kOps, seed);
            ASSERT_EQ(trace.size(), legacy.size())
                << name << " seed " << seed;

            // Via the block-replay source...
            CompactReplay replay = trace.replay();
            MicroOp op;
            size_t i = 0;
            while (replay.next(op)) {
                expectOpEq(op, legacy[i], i);
                ++i;
            }
            ASSERT_EQ(i, legacy.size()) << name << " seed " << seed;

            // ...and via the batch kernel.
            i = 0;
            trace.forEachOp([&](const MicroOp &batch_op) {
                expectOpEq(batch_op, legacy[i], i);
                ++i;
            });
            ASSERT_EQ(i, legacy.size()) << name << " seed " << seed;
        }
    }
}

TEST(CompactDifferential, AccuracyFastPathMatchesVirtualReplay)
{
    for (const auto &name : {"perl", "gcc", "cpp-virtual"}) {
        const SharedTrace trace = recordWorkload(name, 30000);
        for (const IndirectConfig &config :
             {baselineConfig(), taglessGshare(),
              taggedConfig(TaggedIndexScheme::HistoryXor, 4),
              ittageConfig()}) {
            // Ground truth: per-op virtual replay of the decoded ops.
            PredictorStack stack = buildStack(config);
            FrontendPredictor frontend(FrontendConfig{},
                                       stack.predictor.get(),
                                       stack.tracker.get());
            VectorTraceSource src(trace.decodeOps());
            TraceSource &virtual_src = src;
            MicroOp op;
            while (virtual_src.next(op))
                frontend.onInstruction(op);
            const FrontendStats legacy = frontend.stats();

            // Shipped branch-index fast path.
            const FrontendStats fast = runAccuracy(trace, config);
            EXPECT_EQ(fast.instructions, legacy.instructions);
            EXPECT_EQ(fast.allBranches.misses(),
                      legacy.allBranches.misses());
            EXPECT_EQ(fast.allBranches.total(),
                      legacy.allBranches.total());
            EXPECT_EQ(fast.indirectJumps.misses(),
                      legacy.indirectJumps.misses());
            EXPECT_EQ(fast.condDirection.misses(),
                      legacy.condDirection.misses());
            EXPECT_EQ(fast.returns.misses(), legacy.returns.misses());
            EXPECT_EQ(fast.btbHits.hits(), legacy.btbHits.hits());
        }
    }
}

TEST(CompactDifferential, TimingIdenticalThroughBlockReplay)
{
    const SharedTrace trace = recordWorkload("m88ksim", 20000);
    const IndirectConfig config = taglessGshare();

    PredictorStack stack = buildStack(config);
    FrontendPredictor frontend(FrontendConfig{}, stack.predictor.get(),
                               stack.tracker.get());
    CoreModel core({});
    VectorTraceSource src(trace.decodeOps());
    TraceSource &virtual_src = src;
    const CoreResult legacy =
        core.run(virtual_src, frontend, trace.size());

    const CoreResult block = runTiming(trace, config);
    EXPECT_EQ(block.cycles, legacy.cycles);
    EXPECT_EQ(block.instructions, legacy.instructions);
    EXPECT_EQ(block.frontend.allBranches.misses(),
              legacy.frontend.allBranches.misses());
    EXPECT_EQ(block.stallCyclesByKind, legacy.stallCyclesByKind);
}

// --- trace_io round-trips through the columnar form ----------------

TEST(CompactTraceIo, FileRoundTripIsByteIdentical)
{
    const SharedTrace trace = recordWorkload("vortex", 15000);

    // file bytes from the recorded trace...
    std::ostringstream first;
    writeTrace(first, trace.compact(), trace.name());

    // ...reload, decode, re-encode columnar, rewrite.
    std::istringstream in(first.str());
    std::string name;
    const CompactTrace loaded = readCompactTrace(in, name);
    EXPECT_EQ(name, trace.name());
    const CompactTrace compact = CompactTrace::encode(loaded.decodeAll());
    std::ostringstream second;
    writeTrace(second, compact, name);

    EXPECT_EQ(first.str(), second.str());
}

} // namespace
} // namespace tpred
