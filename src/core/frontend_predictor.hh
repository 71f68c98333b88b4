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

#include <cstdint>
#include <memory>

#include "bpred/btb_hierarchy.hh"
#include "bpred/gshare.hh"
#include "bpred/tournament.hh"
#include "bpred/history.hh"
#include "bpred/ras.hh"
#include "common/stats.hh"
#include "core/indirect_predictor.hh"

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
 * The indirect predictor and its history tracker are borrowed, not
 * owned, so one experiment can share them across machine instances.
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
    PredictionOutcome onInstruction(const MicroOp &op);

    /**
     * Accounts @p count non-control instructions without replaying
     * them.  Exactly equivalent to @p count onInstruction() calls on
     * ops with BranchKind::None, which touch nothing but the
     * instruction counter — the contract behind the branch-index
     * fast path (CompactTrace::forEachBranch).
     */
    void skipNonBranches(uint64_t count) { stats_.instructions += count; }

    const FrontendStats &stats() const { return stats_; }
    void resetStats() { stats_ = FrontendStats{}; }

    const BtbHierarchy &btb() const { return *btb_; }
    IndirectPredictor *indirect() const { return indirect_; }

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
    FrontendConfig config_;
    std::unique_ptr<BtbHierarchy> btb_;
    GShare gshare_;
    TournamentPredictor tournament_;
    PatternHistory ghr_;
    ReturnAddressStack ras_;
    IndirectPredictor *indirect_;
    HistoryTracker *tracker_;
    FrontendStats stats_;
};

} // namespace tpred

#endif // TPRED_CORE_FRONTEND_PREDICTOR_HH
