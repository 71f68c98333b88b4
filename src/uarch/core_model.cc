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

/** True for a register the writer map can index, or kNoReg. */
bool
trackable(RegIndex reg)
{
    return static_cast<unsigned>(reg + 1) <= kNumArchRegs;
}

std::string
registerRangeMessage(uint64_t op_index, const MicroOp &op)
{
    const RegIndex regs[] = {op.dstReg, op.srcRegs[0], op.srcRegs[1]};
    const RegIndex bad = *std::find_if_not(std::begin(regs),
                                           std::end(regs), trackable);
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
CoreModel::dispatch(const MicroOp &op, bool mispredicted)
{
    if (!trackable(op.dstReg) || !trackable(op.srcRegs[0]) ||
        !trackable(op.srcRegs[1])) [[unlikely]]
        throw RegisterRangeError(totalFetched_ - 1, op);
    const uint64_t seq = nextSeq_++;
    const auto slot = static_cast<uint32_t>(seq & mask_);
    InFlight &entry = ring_[slot];
    entry.op = op;
    entry.seq = seq;
    for (unsigned s = 0; s < 2; ++s) {
        const RegIndex reg = op.srcRegs[s];
        entry.srcSeq[s] = reg == kNoReg ? 0 : lastWriter_[reg];
    }
    if (op.dstReg != kNoReg)
        lastWriter_[op.dstReg] = seq;
    entry.doneCycle = 0;
    entry.issued = false;
    entry.mispredicted = mispredicted;
    linkSources(slot);
}

void
CoreModel::linkSources(uint32_t slot)
{
    InFlight &entry = ring_[slot];
    entry.pending = 0;
    entry.readyCycle = 0;
    entry.waiters = kNoSlot;
    for (unsigned s = 0; s < 2; ++s) {
        const uint64_t src = entry.srcSeq[s];
        if (src == 0 || src < headSeq_)
            continue;  // no producer, or the producer already retired
        InFlight &producer = at(src);
        if (producer.issued) {
            entry.readyCycle =
                std::max(entry.readyCycle, producer.doneCycle);
        } else {
            ++entry.pending;
            entry.nextWaiter[s] = producer.waiters;
            producer.waiters = slot * 2 + s;
        }
    }
    if (entry.pending == 0)
        markReady(slot);
}

void
CoreModel::markReady(uint32_t slot)
{
    const uint64_t ready = ring_[slot].readyCycle;
    const uint64_t bit = uint64_t{1} << (slot % 64);
    if (ready <= cycle_) {
        readyBits_[slot / 64] |= bit;
        return;
    }
    // ready - cycle_ <= longestOperandWait(), less than the bucket
    // count: the bucket holds no other cycle.
    const uint64_t bucket = ready & wheelMask_;
    wheel_[bucket * readyBits_.size() + slot / 64] |= bit;
    wheelBusy_[bucket / 64] |= uint64_t{1} << (bucket % 64);
}

void
CoreModel::wakeDue()
{
    const uint64_t bucket = cycle_ & wheelMask_;
    uint64_t &busy = wheelBusy_[bucket / 64];
    const uint64_t bit = uint64_t{1} << (bucket % 64);
    if ((busy & bit) == 0)
        return;
    busy &= ~bit;
    uint64_t *due = &wheel_[bucket * readyBits_.size()];
    for (size_t w = 0; w < readyBits_.size(); ++w) {
        readyBits_[w] |= due[w];
        due[w] = 0;
    }
}

uint64_t
CoreModel::nextWakeup() const
{
    // The first busy bucket in wheel order after this cycle's.  Every
    // pending wake-up lies within one turn of the wheel, so the
    // distance in buckets is the distance in cycles.
    const size_t words = wheelBusy_.size();
    const uint64_t from = (cycle_ + 1) & wheelMask_;
    size_t w = from / 64;
    uint64_t bits = wheelBusy_[w] & (~uint64_t{0} << (from % 64));
    for (size_t i = 0; i <= words; ++i) {
        if (bits != 0) {
            const uint64_t bucket = w * 64 + std::countr_zero(bits);
            return cycle_ + 1 + ((bucket - from) & wheelMask_);
        }
        w = w + 1 == words ? 0 : w + 1;
        bits = wheelBusy_[w];
    }
    return UINT64_MAX;
}

void
CoreModel::issueOldestReady()
{
    // Ring order from the head slot is age order: the head's word from
    // the head bit, the words after it, then the head's word again,
    // whose low bits are the youngest slots.  Every latency is >= 1,
    // so issue() readies nothing in this cycle and one pass over the
    // words sees every candidate.
    const size_t words = readyBits_.size();
    const size_t head = headSeq_ & mask_;
    size_t w = head / 64;
    uint64_t bits = readyBits_[w] & (~uint64_t{0} << (head % 64));
    unsigned issued = 0;
    for (size_t i = 0; i <= words; ++i) {
        for (; bits != 0; bits &= bits - 1) {
            if (issued == params_.fuCount)
                return;
            issue(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
            ++issued;
        }
        w = w + 1 == words ? 0 : w + 1;
        bits = readyBits_[w];
    }
}

void
CoreModel::issue(uint32_t slot)
{
    readyBits_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    InFlight &entry = ring_[slot];
    entry.issued = true;
    unsigned latency = executionLatency(entry.op.cls);
    if (entry.op.cls == InstClass::Load || entry.op.cls == InstClass::Store)
        latency += dcache_.access(entry.op.memAddr,
                                  entry.op.cls == InstClass::Store);
    entry.doneCycle = cycle_ + latency;
    if (entry.mispredicted) {
        // Checkpoint repair: correct-path fetch restarts the cycle
        // after the branch resolves.
        fetchAllowed_ = entry.doneCycle + 1;
        redirectPending_ = false;
    }
    // Every latency is >= 1, so a consumer woken here becomes issuable
    // in a later cycle, never in this one.
    for (uint32_t link = entry.waiters; link != kNoSlot;) {
        InFlight &consumer = ring_[link / 2];
        const uint32_t next = consumer.nextWaiter[link % 2];
        consumer.readyCycle =
            std::max(consumer.readyCycle, entry.doneCycle);
        if (--consumer.pending == 0)
            markReady(link / 2);
        link = next;
    }
    entry.waiters = kNoSlot;
}

void
CoreModel::chargeStall(uint64_t cycles)
{
    if (stallKind_ != BranchKind::None)
        stallByKind_[static_cast<size_t>(stallKind_)] += cycles;
    else if (btbStallPending_)
        btbMissStall_ += cycles;
}

void
CoreModel::skipIdleCycles()
{
    for (uint64_t word : readyBits_)
        if (word != 0)
            return;  // the next cycle issues

    // The earliest later cycle in which a stage can act: the head
    // completes, an operand arrives, or fetch unblocks (a full window
    // with fetch open waits for a retire instead).  Until then every
    // cycle would repeat this one's fetch verdict and change nothing
    // but the stall counters.
    uint64_t next = UINT64_MAX;
    if (headSeq_ != nextSeq_ && at(headSeq_).issued)
        next = at(headSeq_).doneCycle;
    next = std::min(next, nextWakeup());
    if (!traceEnded_ && !redirectPending_ &&
        (fetchAllowed_ > cycle_ || nextSeq_ - headSeq_ < params_.window))
        next = std::min(next, std::max(fetchAllowed_, cycle_ + 1));
    if (next == UINT64_MAX || next <= cycle_ + 1)
        return;

    const uint64_t skipped = next - cycle_ - 1;
    if (!traceEnded_) {
        if (redirectPending_ || cycle_ + 1 < fetchAllowed_)
            chargeStall(skipped);
        else
            fetched_ = 0;  // open fetch groups that find the window full
    }
    cycle_ += skipped;
    idleCyclesSkipped_ += skipped;
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

namespace
{

void
saveOp(StateWriter &w, const MicroOp &op)
{
    w.u64(op.pc);
    w.u64(op.nextPc);
    w.u64(op.fallthrough);
    w.u64(op.memAddr);
    w.u64(op.selector);
    w.u8(static_cast<uint8_t>(op.cls));
    w.u8(static_cast<uint8_t>(op.branch));
    w.b(op.taken);
    w.i16(op.dstReg);
    w.i16(op.srcRegs[0]);
    w.i16(op.srcRegs[1]);
}

MicroOp
restoreOp(StateReader &r)
{
    MicroOp op;
    op.pc = r.u64();
    op.nextPc = r.u64();
    op.fallthrough = r.u64();
    op.memAddr = r.u64();
    op.selector = r.u64();
    op.cls = static_cast<InstClass>(r.u8());
    op.branch = static_cast<BranchKind>(r.u8());
    op.taken = r.b();
    op.dstReg = r.i16();
    op.srcRegs[0] = r.i16();
    op.srcRegs[1] = r.i16();
    return op;
}

} // namespace

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
        saveOp(w, entry.op);
        w.u64(entry.seq);
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
        entry.op = restoreOp(r);
        entry.seq = r.u64();
        entry.srcSeq[0] = r.u64();
        entry.srcSeq[1] = r.u64();
        entry.doneCycle = r.u64();
        entry.issued = r.b();
        entry.mispredicted = r.b();
        if (entry.seq != seq || entry.srcSeq[0] >= seq ||
            entry.srcSeq[1] >= seq)
            throw StateFormatError(
                "core checkpoint window is not a run of consecutive "
                "ops ending at the next sequence number");
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
