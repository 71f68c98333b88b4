/**
 * @file
 * Wide-issue out-of-order timing model in the style of the paper's HPS
 * machine (section 4.1): Tomasulo-scheduled execution, checkpointing
 * per branch — "once a branch misprediction is determined, instructions
 * from the correct path are fetched in the next cycle" — a perfect
 * instruction cache, and a 16 KB data cache.
 *
 * The model is trace-driven: an outcome source is consulted for every
 * fetched instruction and a misprediction stalls fetch until the
 * branch executes (wrong-path instructions are never injected; their
 * cost is the fetch bubble, the first-order effect the paper
 * measures).  The core reads two things from each outcome: whether
 * it was correct and its BTB-miss fetch bubble.  The live
 * FrontendPredictor is one outcome source; the fused timing sweep
 * replays outcomes its predictor pass recorded earlier
 * (harness/sweep_kernel.cc).
 *
 * Two driving styles share one simulation body:
 *  - run(): simulate a whole trace in one call (the classic API);
 *  - beginSession() / runSession() / endSession(): a resumable
 *    session that can suspend at an exact fetched-op boundary and be
 *    continued with bit-identical results.  There its complete
 *    microarchitectural state can be serialized (saveState /
 *    restoreState): no production path checkpoints a core; the bytes
 *    are the core differential suite's oracle channel
 *    (tests/test_core_model_differential.cc).
 *
 * The issue stage is event-driven (docs/timing_model.md): the window
 * is a ring indexed by sequence number, an instruction waits on its
 * unissued producers' wake-up lists, becomes issuable at the cycle its
 * last operand completes (a timing wheel holds it until then), issue
 * takes the oldest issuable entries in one pass per cycle, and runs of
 * cycles in which nothing can retire, issue or fetch are skipped in
 * one step.  Cycle counts, stall attribution, D-cache access order and
 * checkpoint bytes are exactly those of stepping every cycle and
 * scanning the whole window.
 *
 * Every decision the core makes compares cycle values with each other,
 * so a suspended session can be compared with another up to a cycle
 * shift (equalUpToShift) and copied with one (forkFrom) — the
 * rejoin-on-reconvergence primitives of the fused timing sweep.
 */

#ifndef TPRED_UARCH_CORE_MODEL_HH
#define TPRED_UARCH_CORE_MODEL_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/frontend_predictor.hh"
#include "obs/metrics.hh"
#include "trace/compact_trace.hh"
#include "trace/trace_source.hh"
#include "uarch/dcache.hh"
#include "uarch/fu_pool.hh"

namespace tpred
{

class StateWriter;
class StateReader;

/**
 * Machine parameters (paper section 4.1 and DESIGN.md section 5).
 * width, window and fuCount must be nonzero (CoreModel throws
 * std::invalid_argument otherwise: a zero would never retire), the
 * D-cache geometry must be one DCache can index (DCacheConfig), and
 * its latencies must keep longestOperandWait() within kMaxOperandWait.
 */
struct CoreParams
{
    unsigned width = 8;     ///< fetch / issue / retire bandwidth
    unsigned window = 128;  ///< max instructions in flight
    unsigned fuCount = 8;   ///< universal functional units
    DCacheConfig dcache{};
};

/**
 * The longest time an issued op can take to complete: the largest
 * execution latency, with the D-cache hit and miss latencies added for
 * loads and stores.  No operand waits longer; it sizes the wake-up
 * wheel (CoreModel throws std::invalid_argument when it exceeds
 * kMaxOperandWait).
 */
uint64_t longestOperandWait(const CoreParams &params);

/** The longest operand wait a CoreModel accepts, in cycles. */
inline constexpr uint64_t kMaxOperandWait = 65535;

/** True for a register the core's writer map can index, or kNoReg. */
inline bool
trackableRegister(RegIndex reg)
{
    return static_cast<unsigned>(reg + 1) <= kNumArchRegs;
}

/**
 * A fetched op names a register the core cannot track: neither kNoReg
 * nor in [0, kNumArchRegs).  Trace containers carry any i16 register,
 * so a well-formed trace file can hold one; the core rejects it at
 * dispatch, naming the first such op, instead of indexing its writer
 * map out of bounds.  Every timing entry point reports it this way.
 */
class RegisterRangeError : public std::out_of_range
{
  public:
    RegisterRangeError(uint64_t op_index, const MicroOp &op);

    /** Trace position of the offending op. */
    uint64_t opIndex() const { return opIndex_; }

  private:
    uint64_t opIndex_;
};

/** Result of one timing run. */
struct CoreResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    FrontendStats frontend;
    DCacheStats dcache;

    /**
     * Fetch-stall cycles attributed to the mispredicted branch kind
     * that caused them (indexed by BranchKind) — the decomposition of
     * where execution time goes, and hence of what a better indirect
     * predictor can recover.
     */
    std::array<uint64_t, 7> stallCyclesByKind{};

    /**
     * Fetch-stall cycles from L1-BTB misses serviced by L2 — the
     * bubble a two-level hierarchy charges for a *correctly* predicted
     * but late redirect (bpred/btb_hierarchy.hh).  Disjoint from
     * stallCyclesByKind: a mispredicted branch's stall is always
     * attributed to its kind, never here (mispredict wins).
     */
    uint64_t btbMissStallCycles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Stall cycles caused by indirect (non-return) mispredictions. */
    uint64_t
    indirectStallCycles() const
    {
        return stallCyclesByKind[static_cast<size_t>(
                   BranchKind::IndirectJump)] +
               stallCyclesByKind[static_cast<size_t>(
                   BranchKind::IndirectCall)];
    }
};

/**
 * Cycle-driven core.  One instance runs one trace against one outcome
 * source; construct fresh per experiment (or forkFrom() another).
 */
class CoreModel
{
  public:
    explicit CoreModel(const CoreParams &params);

    /**
     * Simulates until @p max_instrs retire (or the trace ends) and
     * returns cycle/IPC/accuracy results: one whole session.
     * @p Source and @p Outcomes are any runSession() sources; the
     * outcome source also reports its accuracy through stats(), as
     * FrontendPredictor does.
     */
    template <typename Source, typename Outcomes>
    CoreResult
    run(Source &trace, Outcomes &outcomes, uint64_t max_instrs)
    {
        beginSession();
        runSession(trace, outcomes, max_instrs, UINT64_MAX);
        return endSession(outcomes.stats());
    }

    /** Resets all session state; call once before runSession(). */
    void beginSession();

    /**
     * Advances the simulation, fetching ops from @p trace, until one
     * of:
     *  - @p stop_after_fetched ops (counted across the whole session)
     *    have been fetched — returns true, the session is *suspended*
     *    mid-cycle at an exact op boundary and a later runSession()
     *    (after saveState()/restoreState(), with a Source positioned
     *    at op @p stop_after_fetched) continues bit-identically;
     *  - @p max_instrs instructions have retired, or the trace ended
     *    and the window drained — returns false, the session is
     *    complete and endSession() yields the result.
     *
     * @p Source needs only `bool next(MicroOp&)`, and @p Outcomes only
     * `PredictionOutcome onInstruction(const MicroOp &)`, called once
     * per fetched op in trace order.
     * @throws RegisterRangeError at the first fetched op whose
     *         registers the core cannot track.
     */
    template <typename Source, typename Outcomes>
    bool
    runSession(Source &trace, Outcomes &outcomes, uint64_t max_instrs,
               uint64_t stop_after_fetched)
    {
        static const obs::Timer phase =
            obs::globalMetrics().timer("phase.core_run");
        obs::ScopedTimer timed(phase);

        for (;;) {
            if (!inFetch_) {
                if (!running(max_instrs))
                    return false;

                // ---- Retire: in order, up to width per cycle. -------
                unsigned retired = 0;
                while (headSeq_ != nextSeq_ && retired < params_.width) {
                    const InFlight &head = at(headSeq_);
                    if (!head.issued || head.doneCycle > cycle_)
                        break;
                    // A retiring writer's value is ready by
                    // construction; drop its writer record if it is
                    // still the latest.
                    if (head.dstReg != kNoReg &&
                        lastWriter_[head.dstReg] == headSeq_) {
                        lastWriter_[head.dstReg] = 0;
                    }
                    ++headSeq_;
                    ++instructions_;
                    ++retired;
                }

                // ---- Issue/execute: oldest-first, <= fuCount/cycle. -
                wakeDue();
                issueOldestReady();

                const bool fetch_blocked =
                    redirectPending_ || cycle_ < fetchAllowed_;
                if (fetch_blocked && !traceEnded_)
                    chargeStall(1);
                if (!traceEnded_ && !fetch_blocked) {
                    stallKind_ = BranchKind::None;
                    btbStallPending_ = false;
                    fetched_ = 0;
                    inFetch_ = true;
                }
            }

            // ---- Fetch/dispatch: <= width, stopping at taken CTIs.
            // This stage is individually resumable: a suspension
            // leaves inFetch_/fetched_ set so the next runSession()
            // re-enters the same fetch group mid-cycle.
            if (inFetch_) {
                while (fetched_ < params_.width &&
                       nextSeq_ - headSeq_ < params_.window) {
                    if (totalFetched_ == stop_after_fetched)
                        return true;  // suspended at an op boundary
                    MicroOp op;
                    if (!trace.next(op)) {
                        traceEnded_ = true;
                        break;
                    }
                    ++totalFetched_;
                    const PredictionOutcome outcome =
                        outcomes.onInstruction(op);
                    const bool mispredicted =
                        op.isBranch() && !outcome.correct;
                    dispatch(op, mispredicted);
                    ++fetched_;

                    if (mispredicted) {
                        // Wrong-path fetch until this branch executes.
                        redirectPending_ = true;
                        stallKind_ = op.branch;
                        break;
                    }
                    if (outcome.fetchBubbleCycles > 0) {
                        // Correct but L2-supplied redirect: fetch
                        // resumes after the BTB-miss bubble.  The
                        // mispredict path above wins when both apply —
                        // its checkpoint repair dominates the bubble.
                        const uint64_t resume =
                            cycle_ + 1 + outcome.fetchBubbleCycles;
                        if (resume > fetchAllowed_)
                            fetchAllowed_ = resume;
                        btbStallPending_ = true;
                        break;
                    }
                    if (op.isBranch() && op.taken)
                        break;  // one taken control transfer per group
                }
                inFetch_ = false;
            }

            // ---- Jump over cycles in which no stage can act. --------
            if (running(max_instrs))
                skipIdleCycles();
            ++cycle_;
        }
    }

    /**
     * Finishes a session: packages cycles, stall breakdown and the
     * outcome source's accuracy @p frontend, and credits the global
     * core.cycles_simulated / core.instructions_retired counters and
     * the runtime core.idle_cycles_skipped counter.
     */
    CoreResult endSession(const FrontendStats &frontend);

    /**
     * The session's result so far — cycles, instructions, stall
     * breakdown, BTB-miss stalls and D-cache stats — with default
     * front-end stats and no metrics credited.
     */
    CoreResult result() const;

    /** Ops fetched from the source(s) so far in this session. */
    uint64_t totalFetched() const { return totalFetched_; }

    /** Cycles simulated so far in this session (fork accounting). */
    uint64_t cycles() const { return cycle_; }

    /**
     * Of cycles(), those the loop jumped over because nothing could
     * retire, issue or fetch in them — counted since this object last
     * began, restored or forked a session.
     */
    uint64_t idleCyclesSkipped() const { return idleCyclesSkipped_; }

    /**
     * Serializes the complete session state — cycle counters, window
     * contents, register writer map, fetch/stall flags and the data
     * cache.  The outcome source is checkpointed separately by the
     * caller.  No production path calls this or restoreState(): they
     * are the oracle channel of the core differential suite, which
     * compares these bytes with tests/reference_core_model.hh at op
     * boundaries and continues runs from the reference's checkpoints.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restores a saveState() snapshot; params must match.
     * @throws StateFormatError when the window does not fit this core
     *         or names a producer that does not precede its op.
     */
    void restoreState(StateReader &r);

    /**
     * Makes this core an exact copy of @p other mid-session, running
     * @p shift cycles later (earlier when negative) — the fork entry
     * point of the fused timing sweep (harness/sweep_kernel.cc).  With
     * no shift it is a saveState() / restoreState() round trip without
     * the serialization.  A shift moves every cycle value the core
     * will read: the current cycle, the fetch-resume cycle and each
     * issued op's completion cycle.  A value at or before the current
     * cycle behaves like any other such value, so those map to the new
     * current cycle, which keeps a negative shift from wrapping.  The
     * result counters (stall breakdown, BTB-miss stalls, D-cache
     * stats) are copied as they are, so the copy finishes with
     * @p other's result, its cycles moved by @p shift.
     * Requires other.cycles() + @p shift >= 0.
     */
    void forkFrom(const CoreModel &other, int64_t shift = 0);

    /**
     * True when this suspended session and @p other's, on the same
     * trace and machine and at the same op boundary, fed the same
     * outcomes, will make the same decisions from here on, this one
     * cycles() - other.cycles() cycles later: every future retire,
     * issue, fetch and D-cache verdict matches, so both add the same
     * amounts to their result counters from here.  Compared: the
     * sequence and fetch counters, the fetch-group state, the writer
     * map, each in-flight op's completion cycle (issued) or producers
     * and misprediction flag (unissued), the fetch-resume cycle —
     * cycles relative to each core's own current cycle, any value at
     * or before it counting alike — and the D-cache lines with their
     * LRU order per set.  Not compared: absolute cycles; the result
     * counters and LRU clock values, which nothing reads (only the
     * clocks' order within a set); and the wake-up state, which is
     * derived from what is compared.
     */
    bool equalUpToShift(const CoreModel &other) const;

  private:
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /**
     * One window entry, one cache line: only what the core reads after
     * dispatch (its sequence number is its position in the window).
     * memAddr through mispredicted are the serialized state; the
     * rest is the wake-up bookkeeping restoreState() rebuilds from
     * them.
     */
    struct alignas(64) InFlight
    {
        uint64_t memAddr = 0;
        uint64_t srcSeq[2] = {0, 0};  ///< producing seq, 0 = ready
        uint64_t doneCycle = 0;
        RegIndex dstReg = kNoReg;
        InstClass cls = InstClass::Integer;
        bool issued = false;
        bool mispredicted = false;

        uint8_t pending = 0;      ///< producers not yet issued
        uint64_t readyCycle = 0;  ///< when the issued producers finish
        /// Consumers waiting on this entry, as slot * 2 + operand.
        uint32_t waiters = kNoSlot;
        /// Next link of operand s's entry in its producer's list.
        uint32_t nextWaiter[2] = {kNoSlot, kNoSlot};
    };
    static_assert(sizeof(InFlight) == 64);

    InFlight &at(uint64_t seq) { return ring_[seq & mask_]; }
    const InFlight &at(uint64_t seq) const { return ring_[seq & mask_]; }

    /** The loop's continuation test, checked at the top of a cycle. */
    bool
    running(uint64_t max_instrs) const
    {
        return instructions_ < max_instrs &&
               (!traceEnded_ || headSeq_ != nextSeq_);
    }

    void dispatch(const MicroOp &op, bool mispredicted);
    void linkSources(uint32_t slot);
    void markReady(uint32_t slot);
    void wakeDue();
    uint64_t nextWakeup() const;
    void issueOldestReady();
    void issue(uint32_t slot);
    void chargeStall(uint64_t cycles);
    void skipIdleCycles();
    void rebuildWakeups();

    CoreParams params_;
    DCache dcache_;

    // ---- Window: ring of in-flight entries, slot = seq & mask_ -------
    std::vector<InFlight> ring_;
    uint64_t mask_ = 0;
    uint64_t headSeq_ = 1;  ///< oldest in-flight seq (== nextSeq_: empty)
    /// Issuable entries, one bit per ring slot.
    std::vector<uint64_t> readyBits_;
    /// Timing wheel of entries waiting only for an operand's latency:
    /// bucket c & wheelMask_ holds, as a readyBits_-shaped slot set,
    /// the entries issuable from cycle c.  More buckets than the
    /// longest operand wait, so a bucket never holds two cycles.
    std::vector<uint64_t> wheel_;
    uint64_t wheelMask_ = 0;
    /// One bit per wheel bucket: the bucket holds an entry.
    std::vector<uint64_t> wheelBusy_;
    uint64_t idleCyclesSkipped_ = 0;

    // ---- Resumable session state ------------------------------------
    /// Sequence number of the last writer of each register; 0 = value
    /// available since before the window.
    std::array<uint64_t, kNumArchRegs> lastWriter_{};
    std::array<uint64_t, 7> stallByKind_{};
    uint64_t instructions_ = 0;  ///< retired so far
    uint64_t cycle_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t fetchAllowed_ = 0;    ///< earliest cycle fetch may resume
    uint64_t totalFetched_ = 0;    ///< ops consumed from the source(s)
    unsigned fetched_ = 0;         ///< ops fetched in the current group
    bool redirectPending_ = false; ///< unresolved mispredicted branch
    bool inFetch_ = false;         ///< suspended inside a fetch group
    BranchKind stallKind_ = BranchKind::None; ///< who blocked fetch
    bool btbStallPending_ = false; ///< blocked by a BTB-miss bubble
    uint64_t btbMissStall_ = 0;    ///< cycles lost to BTB-miss bubbles
    bool traceEnded_ = false;
};

// ---- The per-op and per-cycle steps of runSession(), inline --------

inline void
CoreModel::dispatch(const MicroOp &op, bool mispredicted)
{
    if (!trackableRegister(op.dstReg) ||
        !trackableRegister(op.srcRegs[0]) ||
        !trackableRegister(op.srcRegs[1])) [[unlikely]]
        throw RegisterRangeError(totalFetched_ - 1, op);
    const uint64_t seq = nextSeq_++;
    const auto slot = static_cast<uint32_t>(seq & mask_);
    InFlight &entry = ring_[slot];
    entry.memAddr = op.memAddr;
    entry.dstReg = op.dstReg;
    entry.cls = op.cls;
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

inline void
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

inline void
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

inline void
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

inline uint64_t
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

inline void
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

inline void
CoreModel::issue(uint32_t slot)
{
    readyBits_[slot / 64] &= ~(uint64_t{1} << (slot % 64));
    InFlight &entry = ring_[slot];
    entry.issued = true;
    unsigned latency = executionLatency(entry.cls);
    if (entry.cls == InstClass::Load || entry.cls == InstClass::Store)
        latency += dcache_.access(entry.memAddr,
                                  entry.cls == InstClass::Store);
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

inline void
CoreModel::chargeStall(uint64_t cycles)
{
    if (stallKind_ != BranchKind::None)
        stallByKind_[static_cast<size_t>(stallKind_)] += cycles;
    else if (btbStallPending_)
        btbMissStall_ += cycles;
}

inline void
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

} // namespace tpred

#endif // TPRED_UARCH_CORE_MODEL_HH
