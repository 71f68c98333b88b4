#include "trace/compact_trace.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace tpred
{

namespace
{

/** Zigzag-maps a signed 64-bit delta to an unsigned varint payload. */
inline uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

inline int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/** LEB128 append. */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/**
 * LEB128 read; advances @p at.  Bits past the 64th wrap instead of
 * shifting out of range (only a damaged column has them).
 */
inline uint64_t
getVarint(std::span<const uint8_t> in, size_t &at)
{
    uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        const uint8_t byte = in[at++];
        v |= static_cast<uint64_t>(byte & 0x7F) << (shift & 63);
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

/** Which bytes countBytes() counts. */
enum class ByteTest
{
    TopBit,   ///< 0x80 set: a redirect flag, a varint continuation
    AllOnes,  ///< 0xFF: a register escape
};

/** Bytes of @p bytes that pass @p test, sixteen at a time. */
size_t
countBytes(std::span<const uint8_t> bytes, ByteTest test)
{
    const bool all_ones = test == ByteTest::AllOnes;
    using Lanes = int8_t __attribute__((vector_size(16)));
    using Counts = uint8_t __attribute__((vector_size(16)));
    size_t n = 0;
    size_t i = 0;
    const size_t whole = bytes.size() - bytes.size() % sizeof(Lanes);
    while (i < whole) {
        // A lane counts at most 255 hits before it is drained; a hit
        // compares as all ones, so subtracting it adds one.
        Counts hits{};
        const size_t end = std::min(whole, i + 255 * sizeof(Lanes));
        for (; i < end; i += sizeof(Lanes)) {
            Lanes v;
            std::memcpy(&v, bytes.data() + i, sizeof(v));
            hits -= static_cast<Counts>(all_ones ? (v == -1) : (v < 0));
        }
        for (size_t lane = 0; lane < sizeof(Lanes); ++lane)
            n += hits[lane];
    }
    for (; i < bytes.size(); ++i)
        n += all_ones ? bytes[i] == 0xFF : bytes[i] >> 7;
    return n;
}

/** True when @p pos ascends strictly; four comparisons at a time. */
bool
strictlyAscending(std::span<const uint32_t> pos)
{
    using Lanes = uint32_t __attribute__((vector_size(16)));
    Lanes descents{};
    size_t i = 1;
    for (; i + 4 <= pos.size(); i += 4) {
        Lanes prev;
        Lanes next;
        std::memcpy(&prev, pos.data() + i - 1, sizeof(prev));
        std::memcpy(&next, pos.data() + i, sizeof(next));
        descents |= static_cast<Lanes>(next <= prev);
    }
    bool ascending = true;
    for (size_t lane = 0; lane < 4; ++lane)
        ascending &= descents[lane] == 0;
    for (; i < pos.size(); ++i)
        ascending &= pos[i - 1] < pos[i];
    return ascending;
}

/**
 * Number of complete varints in @p in, or SIZE_MAX when the last one
 * is cut short.
 */
size_t
varintCount(std::span<const uint8_t> in)
{
    if (!in.empty() && (in.back() & 0x80) != 0)
        return SIZE_MAX;
    return in.size() - countBytes(in, ByteTest::TopBit);
}

/** Wrapping pc delta: decode must invert encode even across 2^64. */
inline uint64_t
wrapDelta(uint64_t value, uint64_t base)
{
    return value - base;  // mod 2^64
}

} // namespace

void
CompactTrace::bindOwned()
{
    const OwnedColumns &o = *owned_;
    flags_ = o.flags;
    regBytes_ = o.regBytes;
    regEscapes_ = o.regEscapes;
    targetDeltas_ = o.targetDeltas;
    discontPos_ = o.discontPos;
    discontPc_ = o.discontPc;
    memPos_ = o.memPos;
    memDeltas_ = o.memDeltas;
    selPos_ = o.selPos;
    selVals_ = o.selVals;
    fallPos_ = o.fallPos;
    fallVals_ = o.fallVals;
    branchPos_ = o.branchPos;
}

CompactTrace
CompactTrace::fromColumns(const CompactColumns &cols,
                          std::shared_ptr<const void> backing)
{
    CompactTrace t;
    t.count_ = cols.count;
    t.fastBranchScan_ = cols.fastBranchScan;
    t.flags_ = cols.flags;
    t.regBytes_ = cols.regBytes;
    t.regEscapes_ = cols.regEscapes;
    t.targetDeltas_ = cols.targetDeltas;
    t.discontPos_ = cols.discontPos;
    t.discontPc_ = cols.discontPc;
    t.memPos_ = cols.memPos;
    t.memDeltas_ = cols.memDeltas;
    t.selPos_ = cols.selPos;
    t.selVals_ = cols.selVals;
    t.fallPos_ = cols.fallPos;
    t.fallVals_ = cols.fallVals;
    t.branchPos_ = cols.branchPos;
    t.backing_ = std::move(backing);
    return t;
}

const char *
CompactTrace::columnDefect(const CompactColumns &c)
{
    if (c.flags.size() != c.count)
        return "flags column does not match the op count";
    if (c.regBytes.size() != 3 * c.count)
        return "register column does not match the op count";
    if (c.discontPos.size() != c.discontPc.size())
        return "discontinuity columns disagree in length";
    if (c.fallPos.size() != c.fallVals.size())
        return "fallthrough columns disagree in length";
    // forEachBranch indexes the dense columns by branch position, and
    // its block-decode path relies on ascending order.
    if (!strictlyAscending(c.branchPos) ||
        (!c.branchPos.empty() && c.branchPos.back() >= c.count))
        return "branch positions do not ascend below the op count";
    static_assert(kRegEscape == 0xFF && kRedirectBit == 0x80);
    if (countBytes(c.regBytes, ByteTest::AllOnes) !=
        c.regEscapes.size())
        return "register escapes do not match the escape column";
    if (varintCount(c.targetDeltas) !=
        countBytes(c.flags, ByteTest::TopBit))
        return "redirect flags do not match the target-delta column";
    if (varintCount(c.memDeltas) != c.memPos.size())
        return "memory positions do not match the memory-delta column";
    if (varintCount(c.selVals) != c.selPos.size())
        return "selector positions do not match the selector column";
    return nullptr;
}

CompactColumns
CompactTrace::columns() const
{
    CompactColumns cols;
    cols.count = count_;
    cols.fastBranchScan = fastBranchScan_;
    cols.flags = flags_;
    cols.regBytes = regBytes_;
    cols.regEscapes = regEscapes_;
    cols.targetDeltas = targetDeltas_;
    cols.discontPos = discontPos_;
    cols.discontPc = discontPc_;
    cols.memPos = memPos_;
    cols.memDeltas = memDeltas_;
    cols.selPos = selPos_;
    cols.selVals = selVals_;
    cols.fallPos = fallPos_;
    cols.fallVals = fallVals_;
    cols.branchPos = branchPos_;
    return cols;
}

CompactTrace
CompactTrace::encode(const std::vector<MicroOp> &ops)
{
    if (ops.size() >= UINT32_MAX)
        throw std::length_error("CompactTrace: trace too long");

    CompactTrace t;
    t.count_ = ops.size();
    t.owned_ = std::make_unique<OwnedColumns>();
    OwnedColumns &o = *t.owned_;
    o.flags.reserve(ops.size());
    o.regBytes.reserve(ops.size() * 3);

    uint64_t expected_pc = 0;
    uint64_t prev_mem = 0;
    // forEachBranch O(branches) preconditions, disproven as we go.
    bool redirect_off_branch = false;
    bool mem_at_branch = false;
    auto reg_byte = [&o](RegIndex reg) -> uint8_t {
        const int32_t biased = static_cast<int32_t>(reg) + 1;
        if (biased >= 0 && biased < kRegEscape)
            return static_cast<uint8_t>(biased);
        o.regEscapes.push_back(reg);
        return kRegEscape;
    };

    for (size_t i = 0; i < ops.size(); ++i) {
        const MicroOp &op = ops[i];
        const uint32_t pos = static_cast<uint32_t>(i);

        uint8_t flags =
            static_cast<uint8_t>(
                (static_cast<uint8_t>(op.cls) << kClsShift)) |
            static_cast<uint8_t>(
                (static_cast<uint8_t>(op.branch) << kBranchShift));
        if (op.taken)
            flags |= kTakenBit;

        if (op.pc != expected_pc) {
            o.discontPos.push_back(pos);
            o.discontPc.push_back(op.pc);
        }
        const uint64_t fall = op.pc + 4;
        if (op.nextPc != fall) {
            flags |= kRedirectBit;
            putVarint(o.targetDeltas,
                      zigzagEncode(static_cast<int64_t>(
                          wrapDelta(op.nextPc, fall))));
            if (op.branch == BranchKind::None)
                redirect_off_branch = true;
        }
        if (op.fallthrough != fall) {
            o.fallPos.push_back(pos);
            o.fallVals.push_back(op.fallthrough);
        }
        if (op.memAddr != 0) {
            o.memPos.push_back(pos);
            putVarint(o.memDeltas,
                      zigzagEncode(static_cast<int64_t>(
                          wrapDelta(op.memAddr, prev_mem))));
            prev_mem = op.memAddr;
            if (op.branch != BranchKind::None)
                mem_at_branch = true;
        }
        if (op.selector != 0) {
            o.selPos.push_back(pos);
            putVarint(o.selVals, op.selector);
        }
        if (op.branch != BranchKind::None)
            o.branchPos.push_back(pos);

        o.flags.push_back(flags);
        o.regBytes.push_back(reg_byte(op.dstReg));
        o.regBytes.push_back(reg_byte(op.srcRegs[0]));
        o.regBytes.push_back(reg_byte(op.srcRegs[1]));

        expected_pc = op.nextPc;
    }

    o.flags.shrink_to_fit();
    o.regBytes.shrink_to_fit();
    o.regEscapes.shrink_to_fit();
    o.targetDeltas.shrink_to_fit();
    o.memDeltas.shrink_to_fit();
    o.selVals.shrink_to_fit();
    o.branchPos.shrink_to_fit();
    t.fastBranchScan_ = !redirect_off_branch && !mem_at_branch &&
                        o.regEscapes.empty() && o.fallPos.empty();
    t.bindOwned();
    return t;
}

void
CompactTrace::forEachBranchImpl(BranchFn fn, void *ctx) const
{
    if (!fastBranchScan_) {
        // General path: block-decode every op and pick the branches.
        MicroOp buf[kReplayBlock];
        Cursor cur = cursor();
        size_t branch_idx = 0;
        size_t base = 0;
        size_t n;
        while ((n = cur.fill(buf, kReplayBlock)) != 0) {
            const size_t end = base + n;
            while (branch_idx < branchPos_.size() &&
                   branchPos_[branch_idx] < end) {
                const size_t pos = branchPos_[branch_idx];
                fn(ctx, buf[pos - base], pos);
                ++branch_idx;
            }
            base = end;
        }
        return;
    }

    // O(branches) scan.  Invariants established by encode(): every
    // redirect sits at a branch position, so a gap of g ops between
    // branches advances the pc chain by exactly 4g (reset by the
    // sparse discontinuity column); no branch carries a memAddr, so
    // the memory-delta stream is never consumed; there are no
    // register escapes or fallthrough overrides, so flags_ and
    // regBytes_ are pure position-indexed lookups.
    const size_t num_discont = discontPos_.size();
    const size_t num_sel = selPos_.size();
    uint64_t chain_pc = 0;  ///< pc of op `chain_at` if no discont since
    size_t chain_at = 0;
    size_t target_byte = 0;
    size_t discont_idx = 0;
    size_t sel_idx = 0;
    size_t sel_byte = 0;
    MicroOp op;

    for (const uint32_t pos : branchPos_) {
        while (discont_idx < num_discont &&
               discontPos_[discont_idx] <= pos) {
            chain_pc = discontPc_[discont_idx];
            chain_at = discontPos_[discont_idx];
            ++discont_idx;
        }
        const uint64_t pc = chain_pc + 4 * (uint64_t{pos} - chain_at);
        const uint64_t fall = pc + 4;
        const uint8_t flags = flags_[pos];

        uint64_t next_pc = fall;
        if (flags & kRedirectBit) {
            next_pc = fall + static_cast<uint64_t>(zigzagDecode(
                                 getVarint(targetDeltas_, target_byte)));
        }

        // Selector entries between branches (possible only for
        // hand-built coherent traces) are skipped byte-wise; the
        // values are absolute, so nothing needs decoding.
        while (sel_idx < num_sel && selPos_[sel_idx] < pos) {
            while (selVals_[sel_byte] & 0x80)
                ++sel_byte;
            ++sel_byte;
            ++sel_idx;
        }
        op.selector = 0;
        if (sel_idx < num_sel && selPos_[sel_idx] == pos) {
            op.selector = getVarint(selVals_, sel_byte);
            ++sel_idx;
        }

        op.pc = pc;
        op.nextPc = next_pc;
        op.fallthrough = fall;
        op.memAddr = 0;
        op.cls = static_cast<InstClass>((flags >> kClsShift) & 0x7);
        op.branch =
            static_cast<BranchKind>((flags >> kBranchShift) & 0x7);
        op.taken = (flags & kTakenBit) != 0;
        const uint8_t *regs = &regBytes_[size_t{pos} * 3];
        op.dstReg =
            static_cast<RegIndex>(static_cast<int32_t>(regs[0]) - 1);
        op.srcRegs[0] =
            static_cast<RegIndex>(static_cast<int32_t>(regs[1]) - 1);
        op.srcRegs[1] =
            static_cast<RegIndex>(static_cast<int32_t>(regs[2]) - 1);

        fn(ctx, op, pos);

        chain_pc = next_pc;
        chain_at = size_t{pos} + 1;
    }
}

size_t
CompactTrace::Cursor::fill(MicroOp *buf, size_t cap)
{
    const CompactTrace &t = *trace_;
    const size_t end = std::min(t.count_, pos_ + cap);
    size_t produced = 0;

    for (; pos_ < end; ++pos_, ++produced) {
        const uint8_t flags = t.flags_[pos_];
        MicroOp &op = buf[produced];

        uint64_t pc = expectedPc_;
        if (discontIdx_ < t.discontPos_.size() &&
            t.discontPos_[discontIdx_] == pos_) {
            pc = t.discontPc_[discontIdx_++];
        }
        const uint64_t fall = pc + 4;

        uint64_t next_pc = fall;
        if (flags & kRedirectBit) {
            next_pc = fall + static_cast<uint64_t>(zigzagDecode(
                                 getVarint(t.targetDeltas_,
                                           targetByte_)));
        }

        op.pc = pc;
        op.nextPc = next_pc;
        op.fallthrough = fall;
        if (fallIdx_ < t.fallPos_.size() &&
            t.fallPos_[fallIdx_] == pos_) {
            op.fallthrough = t.fallVals_[fallIdx_++];
        }

        op.memAddr = 0;
        if (memIdx_ < t.memPos_.size() && t.memPos_[memIdx_] == pos_) {
            prevMemAddr_ += static_cast<uint64_t>(
                zigzagDecode(getVarint(t.memDeltas_, memByte_)));
            op.memAddr = prevMemAddr_;
            ++memIdx_;
        }

        op.selector = 0;
        if (selIdx_ < t.selPos_.size() && t.selPos_[selIdx_] == pos_) {
            op.selector = getVarint(t.selVals_, selByte_);
            ++selIdx_;
        }

        op.cls = static_cast<InstClass>((flags >> kClsShift) & 0x7);
        op.branch =
            static_cast<BranchKind>((flags >> kBranchShift) & 0x7);
        op.taken = (flags & kTakenBit) != 0;

        const uint8_t *regs = &t.regBytes_[pos_ * 3];
        auto decode_reg = [&](uint8_t byte) -> RegIndex {
            if (byte == kRegEscape)
                return t.regEscapes_[escIdx_++];
            return static_cast<RegIndex>(static_cast<int32_t>(byte) - 1);
        };
        op.dstReg = decode_reg(regs[0]);
        op.srcRegs[0] = decode_reg(regs[1]);
        op.srcRegs[1] = decode_reg(regs[2]);

        expectedPc_ = next_pc;
    }
    return produced;
}

std::vector<MicroOp>
CompactTrace::decodeAll() const
{
    std::vector<MicroOp> ops(count_);
    Cursor cur = cursor();
    size_t at = 0;
    size_t n;
    while (at < count_ &&
           (n = cur.fill(ops.data() + at, count_ - at)) != 0) {
        at += n;
    }
    return ops;
}

const BranchStream &
CompactTrace::branchStream(const std::function<void()> &on_build) const
{
    StreamBox &box = *streamBox_;
    std::call_once(box.once, [&] {
        box.stream = BranchStream::extract(*this);
        box.built.store(true, std::memory_order_release);
        if (on_build)
            on_build();
    });
    return box.stream;
}

bool
CompactTrace::adoptBranchStream(BranchStream stream) const
{
    StreamBox &box = *streamBox_;
    bool adopted = false;
    std::call_once(box.once, [&] {
        box.stream = std::move(stream);
        box.built.store(true, std::memory_order_release);
        adopted = true;
    });
    return adopted;
}

bool
CompactTrace::branchStreamBuilt() const
{
    return streamBox_->built.load(std::memory_order_acquire);
}

size_t
CompactTrace::residentBytes() const
{
    auto bytes = [](const auto &v) { return v.size_bytes(); };
    return sizeof(*this) + bytes(flags_) + bytes(regBytes_) +
           bytes(regEscapes_) + bytes(targetDeltas_) +
           bytes(discontPos_) + bytes(discontPc_) + bytes(memPos_) +
           bytes(memDeltas_) + bytes(selPos_) + bytes(selVals_) +
           bytes(fallPos_) + bytes(fallVals_) + bytes(branchPos_);
}

} // namespace tpred
