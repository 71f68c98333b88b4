#include "uarch/core_model.hh"

#include <algorithm>
#include <bit>
#include <functional>
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
    return params;
}

} // namespace

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
    wakeups_.reserve(slots);
}

void
CoreModel::dispatch(const MicroOp &op, bool mispredicted)
{
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
    if (ready <= cycle_) {
        readyBits_[slot / 64] |= uint64_t{1} << (slot % 64);
    } else {
        wakeups_.push_back({ready, slot});
        std::push_heap(wakeups_.begin(), wakeups_.end(),
                       std::greater<>());
    }
}

void
CoreModel::wakeDue()
{
    while (!wakeups_.empty() && wakeups_.front().cycle <= cycle_) {
        const uint32_t slot = wakeups_.front().slot;
        readyBits_[slot / 64] |= uint64_t{1} << (slot % 64);
        std::pop_heap(wakeups_.begin(), wakeups_.end(), std::greater<>());
        wakeups_.pop_back();
    }
}

uint32_t
CoreModel::oldestReady() const
{
    // Ring order from the head slot is age order: scan the head's word
    // from the head bit, the words after it, and wrap back to the
    // head's word, whose low bits are then the youngest slots.
    const size_t words = readyBits_.size();
    const size_t head = headSeq_ & mask_;
    size_t w = head / 64;
    uint64_t bits = readyBits_[w] & (~uint64_t{0} << (head % 64));
    for (size_t i = 0; i <= words; ++i) {
        if (bits != 0)
            return static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        w = w + 1 == words ? 0 : w + 1;
        bits = readyBits_[w];
    }
    return kNoSlot;
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
    if (!wakeups_.empty())
        next = std::min(next, wakeups_.front().cycle);
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
    wakeups_.clear();
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
    std::fill(readyBits_.begin(), readyBits_.end(), 0);
    wakeups_.clear();
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
}

CoreResult
CoreModel::endSession(const FrontendStats &frontend, bool count_metrics)
{
    CoreResult result;
    result.cycles = cycle_;
    result.instructions = instructions_;
    result.stallCyclesByKind = stallByKind_;
    result.btbMissStallCycles = btbMissStall_;
    result.frontend = frontend;
    result.dcache = dcache_.stats();

    if (count_metrics) {
        // Once per run, not per cycle — the simulation loop stays
        // clean.
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
    }
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
    }
    rebuildWakeups();
    idleCyclesSkipped_ = 0;
}

void
CoreModel::forkFrom(const CoreModel &other)
{
    *this = other;
    idleCyclesSkipped_ = 0;  // the lead credits its own
}

} // namespace tpred
