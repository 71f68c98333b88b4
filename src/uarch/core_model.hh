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
 *    session that can suspend at an exact fetched-op boundary, have
 *    its complete microarchitectural state serialized (saveState /
 *    restoreState), and be continued — possibly in another thread
 *    from another windowed view of the same trace — with bit-identical
 *    results.  This is the timing-model half of the sharded-replay
 *    checkpoints (docs/parallelism.md).
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

#include <array>
#include <cstdint>
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
 * std::invalid_argument otherwise: a zero would never retire), and
 * the D-cache latencies must keep longestOperandWait() within
 * kMaxOperandWait.
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
 * source; construct fresh per experiment (or restoreState() into it).
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
                    if (head.op.dstReg != kNoReg &&
                        lastWriter_[head.op.dstReg] == headSeq_) {
                        lastWriter_[head.op.dstReg] = 0;
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
     * outcome source's accuracy @p frontend.
     * @p count_metrics gates the global core.cycles_simulated /
     * core.instructions_retired counters — sharded-replay warm-up and
     * verification passes pass false so the deterministic counters
     * stay identical to a continuous run.  It also gates the runtime
     * core.idle_cycles_skipped counter.
     */
    CoreResult endSession(const FrontendStats &frontend,
                          bool count_metrics = true);

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
     * caller.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restores a saveState() snapshot; params must match.
     * @throws StateFormatError when the window does not fit this core
     *         or its sequence numbers are not consecutive.
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
     * One window entry.  The first six fields are the serialized
     * state; the rest is the wake-up bookkeeping restoreState()
     * rebuilds from them.
     */
    struct InFlight
    {
        MicroOp op;
        uint64_t seq = 0;
        uint64_t srcSeq[2] = {0, 0};  ///< producing seq, 0 = ready
        uint64_t doneCycle = 0;
        bool issued = false;
        bool mispredicted = false;

        uint8_t pending = 0;      ///< producers not yet issued
        uint64_t readyCycle = 0;  ///< when the issued producers finish
        /// Consumers waiting on this entry, as slot * 2 + operand.
        uint32_t waiters = kNoSlot;
        /// Next link of operand s's entry in its producer's list.
        uint32_t nextWaiter[2] = {kNoSlot, kNoSlot};
    };

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

} // namespace tpred

#endif // TPRED_UARCH_CORE_MODEL_HH
