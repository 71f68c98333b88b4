/** @file Shared helpers for building MicroOps in unit tests. */

#ifndef TPRED_TESTS_TEST_UTIL_HH
#define TPRED_TESTS_TEST_UTIL_HH

#include <vector>

#include "common/rng.hh"
#include "trace/micro_op.hh"

namespace tpred::test
{

/** A plain non-branch op at @p pc. */
inline MicroOp
plainOp(uint64_t pc, InstClass cls = InstClass::Integer)
{
    MicroOp op;
    op.pc = pc;
    op.fallthrough = pc + 4;
    op.nextPc = pc + 4;
    op.cls = cls;
    return op;
}

/** A resolved branch of @p kind at @p pc. */
inline MicroOp
branchOp(uint64_t pc, BranchKind kind, uint64_t target, bool taken = true)
{
    MicroOp op;
    op.pc = pc;
    op.fallthrough = pc + 4;
    op.cls = InstClass::Branch;
    op.branch = kind;
    op.taken = taken;
    op.nextPc = taken ? target : op.fallthrough;
    return op;
}

/** An indirect jump at @p pc to @p target. */
inline MicroOp
indirectOp(uint64_t pc, uint64_t target, uint64_t selector = 0)
{
    MicroOp op = branchOp(pc, BranchKind::IndirectJump, target);
    op.selector = selector;
    return op;
}

/**
 * A well-formed random trace: 55% plain ops of random class with
 * random register sources/destinations and memory addresses, then
 * conditional branches, indirect jumps over 4K targets, and balanced
 * calls/returns.  Shapes no workload generator produces, for fuzzing
 * and differential tests of the timing model.
 */
inline std::vector<MicroOp>
randomTrace(uint64_t seed, size_t length)
{
    Rng rng(seed);
    std::vector<MicroOp> ops;
    ops.reserve(length);
    uint64_t pc = 0x1000;
    std::vector<uint64_t> call_stack;
    for (size_t i = 0; i < length; ++i) {
        const double draw = rng.uniform();
        if (draw < 0.55) {
            MicroOp op = plainOp(pc, static_cast<InstClass>(rng.below(7)));
            if (op.cls == InstClass::Load || op.cls == InstClass::Store)
                op.memAddr = rng.below(1 << 22);
            op.srcRegs[0] = static_cast<RegIndex>(rng.below(64));
            op.srcRegs[1] = rng.chance(0.5)
                                ? static_cast<RegIndex>(rng.below(64))
                                : kNoReg;
            if (op.cls != InstClass::Store)
                op.dstReg = static_cast<RegIndex>(rng.below(64));
            ops.push_back(op);
            pc += 4;
        } else if (draw < 0.75) {
            const bool taken = rng.chance(0.6);
            const uint64_t target = 0x1000 + rng.below(4096) * 4;
            ops.push_back(
                branchOp(pc, BranchKind::CondDirect, target, taken));
            pc = taken ? target : pc + 4;
        } else if (draw < 0.85) {
            const uint64_t target = 0x1000 + rng.below(4096) * 4;
            ops.push_back(indirectOp(pc, target, rng.below(16)));
            pc = target;
        } else if (draw < 0.93 || call_stack.empty()) {
            const uint64_t target = 0x1000 + rng.below(4096) * 4;
            ops.push_back(branchOp(pc, BranchKind::Call, target));
            call_stack.push_back(pc + 4);
            pc = target;
        } else {
            const uint64_t ret_to = call_stack.back();
            call_stack.pop_back();
            ops.push_back(branchOp(pc, BranchKind::Return, ret_to));
            pc = ret_to;
        }
    }
    return ops;
}

} // namespace tpred::test

#endif // TPRED_TESTS_TEST_UTIL_HH
