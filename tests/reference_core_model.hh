/**
 * @file
 * Test-only reference for the timing model: the cycle loop of
 * uarch/core_model.hh written the direct way — a deque window scanned
 * oldest-first every cycle, no wake-up lists, every cycle stepped.  It
 * is slow and obviously faithful to docs/timing_model.md, which is
 * what makes it the differential anchor for CoreModel's event-driven
 * issue stage.  Its saveState() writes CoreModel's checkpoint layout,
 * so the two can be compared byte for byte at any op boundary.
 */

#ifndef TPRED_TESTS_REFERENCE_CORE_MODEL_HH
#define TPRED_TESTS_REFERENCE_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <deque>

#include "common/state_io.hh"
#include "core/frontend_predictor.hh"
#include "uarch/core_model.hh"
#include "uarch/dcache.hh"
#include "uarch/fu_pool.hh"

namespace tpred::test
{

class ReferenceCoreModel
{
  public:
    explicit ReferenceCoreModel(const CoreParams &params)
        : params_(params), dcache_(params.dcache)
    {
    }

    /** Same contract as CoreModel::runSession. */
    template <typename Source>
    bool
    runSession(Source &trace, FrontendPredictor &frontend,
               uint64_t max_instrs, uint64_t stop_after_fetched)
    {
        for (;;) {
            if (!inFetch_) {
                if (!(instructions_ < max_instrs &&
                      (!traceEnded_ || !window_.empty())))
                    return false;

                unsigned retired = 0;
                while (!window_.empty() && retired < params_.width) {
                    const Entry &head = window_.front();
                    if (!head.issued || head.doneCycle > cycle_)
                        break;
                    if (head.op.dstReg != kNoReg &&
                        lastWriter_[head.op.dstReg] == head.seq)
                        lastWriter_[head.op.dstReg] = 0;
                    window_.pop_front();
                    ++instructions_;
                    ++retired;
                }

                unsigned issued = 0;
                for (Entry &entry : window_) {
                    if (issued >= params_.fuCount)
                        break;
                    if (entry.issued || !sourcesReady(entry))
                        continue;
                    entry.issued = true;
                    unsigned latency = executionLatency(entry.op.cls);
                    if (entry.op.cls == InstClass::Load ||
                        entry.op.cls == InstClass::Store)
                        latency += dcache_.access(
                            entry.op.memAddr,
                            entry.op.cls == InstClass::Store);
                    entry.doneCycle = cycle_ + latency;
                    ++issued;
                    if (entry.mispredicted) {
                        fetchAllowed_ = entry.doneCycle + 1;
                        redirectPending_ = false;
                    }
                }

                const bool blocked =
                    redirectPending_ || cycle_ < fetchAllowed_;
                if (blocked && !traceEnded_) {
                    if (stallKind_ != BranchKind::None)
                        ++stallByKind_[static_cast<size_t>(stallKind_)];
                    else if (btbStallPending_)
                        ++btbMissStall_;
                }
                if (!traceEnded_ && !blocked) {
                    stallKind_ = BranchKind::None;
                    btbStallPending_ = false;
                    fetched_ = 0;
                    inFetch_ = true;
                }
            }

            if (inFetch_) {
                while (fetched_ < params_.width &&
                       window_.size() < params_.window) {
                    if (totalFetched_ == stop_after_fetched)
                        return true;
                    MicroOp op;
                    if (!trace.next(op)) {
                        traceEnded_ = true;
                        break;
                    }
                    ++totalFetched_;
                    const PredictionOutcome outcome =
                        frontend.onInstruction(op);
                    Entry entry;
                    entry.op = op;
                    entry.seq = nextSeq_++;
                    for (unsigned s = 0; s < 2; ++s)
                        entry.srcSeq[s] = op.srcRegs[s] == kNoReg
                                              ? 0
                                              : lastWriter_[op.srcRegs[s]];
                    if (op.dstReg != kNoReg)
                        lastWriter_[op.dstReg] = entry.seq;
                    entry.mispredicted = op.isBranch() && !outcome.correct;
                    window_.push_back(entry);
                    ++fetched_;
                    if (entry.mispredicted) {
                        redirectPending_ = true;
                        stallKind_ = op.branch;
                        break;
                    }
                    if (outcome.fetchBubbleCycles > 0) {
                        const uint64_t resume =
                            cycle_ + 1 + outcome.fetchBubbleCycles;
                        if (resume > fetchAllowed_)
                            fetchAllowed_ = resume;
                        btbStallPending_ = true;
                        break;
                    }
                    if (op.isBranch() && op.taken)
                        break;
                }
                inFetch_ = false;
            }
            ++cycle_;
        }
    }

    CoreResult
    result(const FrontendPredictor &frontend) const
    {
        CoreResult r;
        r.cycles = cycle_;
        r.instructions = instructions_;
        r.stallCyclesByKind = stallByKind_;
        r.btbMissStallCycles = btbMissStall_;
        r.frontend = frontend.stats();
        r.dcache = dcache_.stats();
        return r;
    }

    /** CoreModel::saveState's layout, field for field. */
    void
    saveState(StateWriter &w) const
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
        w.u64(window_.size());
        for (const Entry &e : window_) {
            w.u64(e.op.memAddr);
            w.u8(static_cast<uint8_t>(e.op.cls));
            w.i16(e.op.dstReg);
            w.u64(e.srcSeq[0]);
            w.u64(e.srcSeq[1]);
            w.u64(e.doneCycle);
            w.b(e.issued);
            w.b(e.mispredicted);
        }
    }

  private:
    struct Entry
    {
        MicroOp op;
        uint64_t seq = 0;
        uint64_t srcSeq[2] = {0, 0};
        uint64_t doneCycle = 0;
        bool issued = false;
        bool mispredicted = false;
    };

    /** Every producer still in the window has completed by now. */
    bool
    sourcesReady(const Entry &entry) const
    {
        const uint64_t base = window_.front().seq;
        for (uint64_t src : entry.srcSeq) {
            if (src == 0 || src < base)
                continue;
            const Entry &producer = window_[src - base];
            if (!producer.issued || producer.doneCycle > cycle_)
                return false;
        }
        return true;
    }

    CoreParams params_;
    DCache dcache_;
    std::deque<Entry> window_;
    std::array<uint64_t, kNumArchRegs> lastWriter_{};
    std::array<uint64_t, 7> stallByKind_{};
    uint64_t instructions_ = 0;
    uint64_t cycle_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t fetchAllowed_ = 0;
    uint64_t totalFetched_ = 0;
    unsigned fetched_ = 0;
    bool redirectPending_ = false;
    bool inFetch_ = false;
    BranchKind stallKind_ = BranchKind::None;
    bool btbStallPending_ = false;
    uint64_t btbMissStall_ = 0;
    bool traceEnded_ = false;
};

} // namespace tpred::test

#endif // TPRED_TESTS_REFERENCE_CORE_MODEL_HH
