#include "uarch/core_model.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>

#include "common/state_io.hh"

namespace tpred
{

namespace
{

const CoreParams &
validated(const CoreParams &params)
{
    if (params.width == 0 || params.window == 0 || params.fuCount == 0)
        throw std::invalid_argument(
            "CoreParams: width, window and fuCount must be nonzero");
    if (longestOperandWait(params) > kMaxOperandWait)
        throw std::invalid_argument(
            "CoreParams: D-cache latencies make an operand wait longer "
            "than " + std::to_string(kMaxOperandWait) + " cycles");
    return params;
}

std::string
registerRangeMessage(uint64_t op_index, const MicroOp &op)
{
    const RegIndex regs[] = {op.dstReg, op.srcRegs[0], op.srcRegs[1]};
    const RegIndex bad = *std::find_if_not(std::begin(regs),
                                           std::end(regs),
                                           trackableRegister);
    return "op " + std::to_string(op_index) + " names register " +
           std::to_string(bad) + ", outside the core's [0, " +
           std::to_string(kNumArchRegs) + ")";
}

} // namespace

RegisterRangeError::RegisterRangeError(uint64_t op_index,
                                       const MicroOp &op)
    : std::out_of_range(registerRangeMessage(op_index, op)),
      opIndex_(op_index)
{
}

uint64_t
longestOperandWait(const CoreParams &params)
{
    const std::array<unsigned, kNumInstClasses> &latency = latencyTable();
    uint64_t longest = 0;
    for (size_t c = 0; c < latency.size(); ++c) {
        uint64_t wait = latency[c];
        const auto cls = static_cast<InstClass>(c);
        if (cls == InstClass::Load || cls == InstClass::Store)
            wait += uint64_t{params.dcache.hitLatency} +
                    params.dcache.missLatency;
        longest = std::max(longest, wait);
    }
    return longest;
}

CoreModel::CoreModel(const CoreParams &params)
    : params_(validated(params)),
      dcache_(params.dcache)
{
    // A power-of-two ring of at least 64 slots, so the ready set is
    // whole 64-bit words.
    const size_t slots = std::bit_ceil(std::max(params.window, 64u));
    ring_.resize(slots);
    mask_ = slots - 1;
    readyBits_.resize(slots / 64);
    const uint64_t buckets =
        std::bit_ceil(longestOperandWait(params) + 1);
    wheelMask_ = buckets - 1;
    wheel_.resize(buckets * readyBits_.size());
    wheelBusy_.resize((buckets + 63) / 64);
}

void
CoreModel::rebuildWakeups()
{
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    std::fill(wheel_.begin(), wheel_.end(), 0);
    std::fill(wheelBusy_.begin(), wheelBusy_.end(), 0);
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        InFlight &entry = at(seq);
        entry.waiters = kNoSlot;
        if (!entry.issued)
            linkSources(static_cast<uint32_t>(seq & mask_));
    }
}

void
CoreModel::beginSession()
{
    headSeq_ = 1;
    idleCyclesSkipped_ = 0;
    lastWriter_.fill(0);
    stallByKind_.fill(0);
    instructions_ = 0;
    cycle_ = 0;
    nextSeq_ = 1;
    fetchAllowed_ = 0;
    totalFetched_ = 0;
    fetched_ = 0;
    redirectPending_ = false;
    inFetch_ = false;
    stallKind_ = BranchKind::None;
    btbStallPending_ = false;
    btbMissStall_ = 0;
    traceEnded_ = false;
    rebuildWakeups();  // an empty window: clears the wake-up state
}

CoreResult
CoreModel::result() const
{
    CoreResult result;
    result.cycles = cycle_;
    result.instructions = instructions_;
    result.stallCyclesByKind = stallByKind_;
    result.btbMissStallCycles = btbMissStall_;
    result.dcache = dcache_.stats();
    return result;
}

CoreResult
CoreModel::endSession(const FrontendStats &frontend)
{
    CoreResult result = this->result();
    result.frontend = frontend;

    // Once per run, not per cycle — the simulation loop stays clean.
    static const obs::Counter cycles_simulated =
        obs::globalMetrics().counter("core.cycles_simulated");
    static const obs::Counter instructions_retired =
        obs::globalMetrics().counter("core.instructions_retired");
    static const obs::Counter idle_cycles_skipped =
        obs::globalMetrics().counter("core.idle_cycles_skipped",
                                     obs::MetricKind::Runtime);
    cycles_simulated.inc(result.cycles);
    instructions_retired.inc(result.instructions);
    idle_cycles_skipped.inc(idleCyclesSkipped_);
    return result;
}

void
CoreModel::saveState(StateWriter &w) const
{
    dcache_.saveState(w);
    for (uint64_t seq : lastWriter_)
        w.u64(seq);
    for (uint64_t cycles : stallByKind_)
        w.u64(cycles);
    w.u64(btbMissStall_);
    w.u64(instructions_);
    w.u64(cycle_);
    w.u64(nextSeq_);
    w.u64(fetchAllowed_);
    w.u64(totalFetched_);
    w.u32(fetched_);
    w.b(redirectPending_);
    w.b(inFetch_);
    w.u8(static_cast<uint8_t>(stallKind_));
    w.b(btbStallPending_);
    w.b(traceEnded_);
    w.u64(nextSeq_ - headSeq_);
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const InFlight &entry = at(seq);
        w.u64(entry.memAddr);
        w.u8(static_cast<uint8_t>(entry.cls));
        w.i16(entry.dstReg);
        w.u64(entry.srcSeq[0]);
        w.u64(entry.srcSeq[1]);
        w.u64(entry.doneCycle);
        w.b(entry.issued);
        w.b(entry.mispredicted);
    }
}

void
CoreModel::restoreState(StateReader &r)
{
    dcache_.restoreState(r);
    for (uint64_t &seq : lastWriter_)
        seq = r.u64();
    for (uint64_t &cycles : stallByKind_)
        cycles = r.u64();
    btbMissStall_ = r.u64();
    instructions_ = r.u64();
    cycle_ = r.u64();
    nextSeq_ = r.u64();
    fetchAllowed_ = r.u64();
    totalFetched_ = r.u64();
    fetched_ = r.u32();
    redirectPending_ = r.b();
    inFetch_ = r.b();
    stallKind_ = static_cast<BranchKind>(r.u8());
    btbStallPending_ = r.b();
    traceEnded_ = r.b();
    const uint64_t window_size = r.u64();
    if (window_size > params_.window)
        throw StateFormatError("core checkpoint holds " +
                               std::to_string(window_size) +
                               " in-flight ops; the window is " +
                               std::to_string(params_.window));
    headSeq_ = nextSeq_ - window_size;
    const uint64_t longest_wait = longestOperandWait(params_);
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        InFlight &entry = at(seq);
        entry.memAddr = r.u64();
        entry.cls = static_cast<InstClass>(r.u8());
        entry.dstReg = r.i16();
        entry.srcSeq[0] = r.u64();
        entry.srcSeq[1] = r.u64();
        entry.doneCycle = r.u64();
        entry.issued = r.b();
        entry.mispredicted = r.b();
        if (entry.srcSeq[0] >= seq || entry.srcSeq[1] >= seq)
            throw StateFormatError(
                "core checkpoint holds an op whose producer does not "
                "precede it");
        if (entry.issued && entry.doneCycle > cycle_ &&
            entry.doneCycle - cycle_ > longest_wait)
            throw StateFormatError(
                "core checkpoint holds an op completing further ahead "
                "than the longest operand wait");
    }
    rebuildWakeups();
    idleCyclesSkipped_ = 0;
}

void
CoreModel::forkFrom(const CoreModel &other, int64_t shift)
{
    *this = other;
    idleCyclesSkipped_ = 0;  // the lead credits its own
    if (shift == 0)
        return;
    assert(shift > 0 || other.cycle_ >= static_cast<uint64_t>(-shift));
    const uint64_t then = other.cycle_;
    cycle_ = then + static_cast<uint64_t>(shift);
    const auto moved = [&](uint64_t c) {
        return c > then ? c + static_cast<uint64_t>(shift) : cycle_;
    };
    fetchAllowed_ = moved(fetchAllowed_);
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        InFlight &entry = at(seq);
        if (entry.issued)
            entry.doneCycle = moved(entry.doneCycle);
    }
    rebuildWakeups();  // the wheel is indexed by absolute cycle
}

bool
CoreModel::equalUpToShift(const CoreModel &other) const
{
    assert(ring_.size() == other.ring_.size());
    // A cycle value relative to its core's current cycle; every value
    // at or before it behaves the same.
    const auto ahead = [](uint64_t c, uint64_t now) {
        return c > now ? c - now : 0;
    };
    if (headSeq_ != other.headSeq_ || nextSeq_ != other.nextSeq_ ||
        totalFetched_ != other.totalFetched_ ||
        instructions_ != other.instructions_ ||
        fetched_ != other.fetched_ || inFetch_ != other.inFetch_ ||
        redirectPending_ != other.redirectPending_ ||
        stallKind_ != other.stallKind_ ||
        btbStallPending_ != other.btbStallPending_ ||
        traceEnded_ != other.traceEnded_ ||
        ahead(fetchAllowed_, cycle_) !=
            ahead(other.fetchAllowed_, other.cycle_) ||
        lastWriter_ != other.lastWriter_)
        return false;

    // Both windows hold the same trace ops under the same sequence
    // numbers.  An issued op is read only for its completion cycle; an
    // unissued one for its producers (a retired producer is as good as
    // none) and its misprediction flag.
    const auto producer = [&](uint64_t src) {
        return src >= headSeq_ ? src : 0;
    };
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const InFlight &a = at(seq);
        const InFlight &b = other.at(seq);
        if (a.issued != b.issued)
            return false;
        if (a.issued) {
            if (ahead(a.doneCycle, cycle_) != ahead(b.doneCycle, other.cycle_))
                return false;
        } else if (a.mispredicted != b.mispredicted ||
                   producer(a.srcSeq[0]) != producer(b.srcSeq[0]) ||
                   producer(a.srcSeq[1]) != producer(b.srcSeq[1])) {
            return false;
        }
    }
    return dcache_.sameLines(other.dcache_);
}

} // namespace tpred
