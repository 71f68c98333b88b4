/**
 * @file
 * Composite fetch-stage predictor: gshare direction prediction, BTB
 * target/kind detection, return address stack, and an optional indirect
 * target predictor (the target cache) consulted exactly as the paper
 * describes — "during instruction fetch, the BTB and the target cache
 * are examined concurrently; if the BTB detects an indirect branch, the
 * selected target cache entry is used for target prediction".
 */

#ifndef TPRED_CORE_FRONTEND_PREDICTOR_HH
#define TPRED_CORE_FRONTEND_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "bpred/btb_hierarchy.hh"
#include "bpred/gshare.hh"
#include "bpred/tournament.hh"
#include "bpred/history.hh"
#include "bpred/ras.hh"
#include "common/stats.hh"
#include "core/indirect_predictor.hh"
#include "trace/compact_trace.hh"

namespace tpred
{

/** Conditional-branch direction scheme of the front end. */
enum class DirectionScheme : uint8_t
{
    GShare,      ///< single gshare PHT (the default machine)
    Tournament,  ///< McFarling combining predictor (ablation)
};

/** Front-end structure sizes. */
struct FrontendConfig
{
    /** BTB hierarchy; default = the paper's single-level 1K BTB. */
    BtbHierarchyConfig btb{};
    DirectionScheme direction = DirectionScheme::GShare;
    unsigned gshareIndexBits = 12;
    unsigned gshareHistoryBits = 12;
    TournamentConfig tournament{};
    unsigned rasDepth = 16;
};

/** Prediction-accuracy accumulators, split by branch class. */
struct FrontendStats
{
    uint64_t instructions = 0;
    RatioStat allBranches;    ///< next-PC correct, any control instr.
    RatioStat condDirection;  ///< direction only, conditional branches
    RatioStat condBranches;   ///< next-PC correct, conditional branches
    RatioStat uncondDirect;   ///< next-PC correct, jumps + direct calls
    RatioStat indirectJumps;  ///< next-PC correct, indirect non-return
    RatioStat returns;        ///< next-PC correct, returns
    RatioStat btbHits;        ///< BTB hit rate over all branches

    /** Mispredictions per 1000 instructions (all branch classes). */
    double
    mpki() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(allBranches.misses()) /
                         static_cast<double>(instructions)
                   : 0.0;
    }
};

/**
 * What the front end decided for one instruction.  The core model
 * reads only correct and fetchBubbleCycles.
 */
struct PredictionOutcome
{
    uint64_t predictedNext = 0;
    bool correct = true;
    /**
     * Cycles the fetch redirect arrives late because the BTB probe was
     * satisfied from L2 (bpred/btb_hierarchy.hh).  Only ever nonzero
     * for a two-level hierarchy, and only when the branch actually
     * consumed the probe (a not-taken-predicted conditional does not).
     * Depends solely on batch-shared front-end state, never on a batch
     * member's predicted target — so the fused timing sweep's outcome
     * tape records it once per branch for the whole batch.
     */
    unsigned fetchBubbleCycles = 0;
};

/**
 * Trace-driven front end.
 *
 * onInstruction() performs the fetch-time prediction, compares it with
 * the architectural outcome carried by the MicroOp, trains every
 * structure, and reports whether fetch would have been redirected.
 * History registers are trained with architectural outcomes, modelling
 * the checkpoint-repaired history of the paper's HPS machine.
 *
 * The per-branch step is written once, templated on its *indirect
 * stage*: whatever predicts indirect jumps and calls, spoken to
 * through BatchedPredictors' per-branch protocol (predictAll,
 * prediction, recordOutcomes, updateAll, observeTrackers).  The live
 * stage adapts the borrowed IndirectPredictor and HistoryTracker, not
 * owned, so one experiment can share them across machine instances;
 * the fused sweep passes a whole batch (harness/sweep_kernel.cc).
 */
class FrontendPredictor
{
  public:
    /**
     * @param config Structure sizes.
     * @param indirect Optional target predictor; nullptr = BTB-only
     *        baseline (the paper's Table 1 machine).
     * @param tracker History source for @p indirect; required when
     *        @p indirect is non-null.
     */
    FrontendPredictor(const FrontendConfig &config,
                      IndirectPredictor *indirect = nullptr,
                      HistoryTracker *tracker = nullptr);

    /** Predicts, scores and trains on one instruction. */
    PredictionOutcome
    onInstruction(const MicroOp &op)
    {
        return onInstruction(op, live_);
    }

    /**
     * The same step with @p stage predicting the indirect branches.
     * At an indirect branch the outcome is member 0's; the stage
     * keeps every member's prediction and indirect statistics.
     */
    template <typename Stage>
    PredictionOutcome onInstruction(const MicroOp &op, Stage &stage);

    /**
     * Accounts @p count non-control instructions without replaying
     * them.  Exactly equivalent to @p count onInstruction() calls on
     * ops with BranchKind::None, which touch nothing but the
     * instruction counter — the contract behind the branch-index
     * fast path (CompactTrace::forEachBranch).
     */
    void skipNonBranches(uint64_t count) { shared_.instructions += count; }

    /**
     * Replays all of @p trace through onInstruction() by its branch
     * index: only the branches are decoded, and the ops between them
     * go to skipNonBranches().  @p visit(op, outcome) sees each branch.
     */
    template <typename Visit>
    void
    replayBranches(const CompactTrace &trace, Visit &&visit)
    {
        size_t consumed = 0;
        trace.forEachBranch([&](const MicroOp &op, size_t pos) {
            skipNonBranches(pos - consumed);
            consumed = pos + 1;
            visit(op, onInstruction(op));
        });
        skipNonBranches(trace.size() - consumed);
    }

    /** Accuracy so far, with the live stage's indirect outcomes. */
    FrontendStats stats() const { return statsWith(live_.stat); }

    /**
     * The shared classes plus @p indirect: allBranches is the shared
     * non-indirect branches merged with @p indirect (RatioStat::merge
     * is counter addition, so this equals interleaved recording).
     */
    FrontendStats statsWith(const RatioStat &indirect) const;

    void
    resetStats()
    {
        shared_ = FrontendStats{};
        live_.stat.reset();
    }

    const BtbHierarchy &btb() const { return btb_; }

    /**
     * Serializes the owned structures (BTB, direction predictors, GHR,
     * RAS) and the accuracy stats.  The borrowed indirect predictor
     * and history tracker are NOT included — the owner checkpoints
     * them alongside (see harness/shard_replay.hh).
     */
    void saveState(StateWriter &w) const;

    /** Restores a saveState() snapshot; config must match. */
    void restoreState(StateReader &r);

  private:
    /** The live indirect stage: a batch of one borrowed predictor. */
    struct LiveStage
    {
        LiveStage(IndirectPredictor *p, HistoryTracker *t)
            : predictor(p), tracker(t)
        {
        }

        IndirectPredictor *predictor;  ///< nullptr = BTB-only
        HistoryTracker *tracker;
        uint64_t pc = 0;
        uint64_t history = 0;  ///< fetch-time history, the update index
        uint64_t predicted = 0;
        RatioStat stat;

        void
        predictAll(const MicroOp &op, bool btb_hit, uint64_t btb_target)
        {
            pc = op.pc;
            predicted = btb_hit ? btb_target : op.fallthrough;
            if (!predictor)
                return;
            // The fetch-time history value is also the training index,
            // so capture it even when the BTB fails to detect the
            // branch.
            history = tracker->valueFor(op.pc);
            if (btb_hit) {
                // The BTB detected the indirect branch; a hitting target
                // cache entry overrides its last-computed target.
                predictor->prime(op);
                predicted = predictor->predict(op.pc, history)
                                .value_or(btb_target);
            }
        }

        uint64_t prediction(size_t) const { return predicted; }

        void
        recordOutcomes(uint64_t next_pc)
        {
            stat.record(predicted == next_pc);
        }

        void
        updateAll(uint64_t next_pc)
        {
            // Train with the same index the fetch-time probe used.
            if (predictor)
                predictor->update(pc, history, next_pc);
        }

        void
        observeTrackers(const MicroOp &op)
        {
            if (tracker)
                tracker->observe(op);
        }
    };

    FrontendConfig config_;
    BtbHierarchy btb_;
    GShare gshare_;
    TournamentPredictor tournament_;
    PatternHistory ghr_;
    ReturnAddressStack ras_;
    LiveStage live_;
    /// Every class but the indirect one, which each stage keeps per
    /// member: indirectJumps stays empty and allBranches counts the
    /// non-indirect branches only (statsWith() composes).
    FrontendStats shared_;
};

template <typename Stage>
PredictionOutcome
FrontendPredictor::onInstruction(const MicroOp &op, Stage &stage)
{
    ++shared_.instructions;
    if (!op.isBranch())
        return {op.fallthrough, true};

    // --- Fetch-time prediction and scoring --------------------------
    const BtbProbe probe = btb_.lookup(op.pc);
    const std::optional<BtbPrediction> &btb_pred = probe.pred;
    shared_.btbHits.record(btb_pred.has_value());

    // An L2-supplied probe delays the fetch redirect — but only when
    // the branch consumed the probe: a conditional predicted not-taken
    // falls through regardless of what the BTB knew.  The condition
    // depends only on batch-shared state (shared hierarchy, shared
    // direction predictor), never on a member's predicted target.
    unsigned bubble = probe.bubbleCycles;
    uint64_t predicted = op.fallthrough;

    // One dispatch on the branch kind predicts and scores; indirect
    // outcomes are per member, so the stage keeps them.
    switch (op.branch) {
      case BranchKind::CondDirect: {
        const bool dir =
            config_.direction == DirectionScheme::Tournament
                ? tournament_.predict(op.pc, ghr_.value())
                : gshare_.predict(op.pc, ghr_.value());
        // A taken prediction needs the BTB for the target address.
        if (dir && btb_pred)
            predicted = btb_pred->target;
        if (!dir)
            bubble = 0;
        shared_.condDirection.record(dir == op.taken);
        shared_.condBranches.record(predicted == op.nextPc);
        shared_.allBranches.record(predicted == op.nextPc);
        break;
      }

      case BranchKind::UncondDirect:
      case BranchKind::Call:
        predicted = btb_pred ? btb_pred->target : op.fallthrough;
        shared_.uncondDirect.record(predicted == op.nextPc);
        shared_.allBranches.record(predicted == op.nextPc);
        break;

      case BranchKind::Return:
        predicted = ras_.pop();
        shared_.returns.record(predicted == op.nextPc);
        shared_.allBranches.record(predicted == op.nextPc);
        break;

      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
        // The BTB and the target cache are examined concurrently; the
        // stage consults its predictors only on a BTB hit.
        stage.predictAll(op, btb_pred.has_value(),
                         btb_pred ? btb_pred->target : 0);
        stage.recordOutcomes(op.nextPc);
        predicted = stage.prediction(0);
        break;

      case BranchKind::None:
        break;
    }

    // RAS maintenance follows the architectural path.
    if (op.branch == BranchKind::Call ||
        op.branch == BranchKind::IndirectCall) {
        ras_.push(op.fallthrough);
    }

    // --- Training ----------------------------------------------------
    if (op.branch == BranchKind::CondDirect) {
        if (config_.direction == DirectionScheme::Tournament)
            tournament_.update(op.pc, ghr_.value(), op.taken);
        else
            gshare_.update(op.pc, ghr_.value(), op.taken);
        ghr_.update(op.taken);
    }
    btb_.update(op);
    if (isIndirectNonReturn(op.branch))
        stage.updateAll(op.nextPc);
    stage.observeTrackers(op);

    return {predicted, predicted == op.nextPc, bubble};
}

} // namespace tpred

#endif // TPRED_CORE_FRONTEND_PREDICTOR_HH
