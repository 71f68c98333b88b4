/**
 * @file
 * Cascaded (staged) indirect predictor — the post-paper direction taken
 * by Driesen & Hölzle, included as the DESIGN.md "future work" extension.
 *
 * Stage 1 is a per-branch last-target table that captures monomorphic
 * jumps cheaply; stage 2 is a history-indexed tagged target cache that
 * is only *allocated* when stage 1 mispredicts, reserving its capacity
 * for genuinely polymorphic jumps.
 */

#ifndef TPRED_CORE_CASCADED_HH
#define TPRED_CORE_CASCADED_HH

#include <cstdint>
#include <unordered_map>

#include "common/bits.hh"
#include "core/indirect_predictor.hh"
#include "core/tagged_target_cache.hh"

namespace tpred
{

/** Cascaded predictor configuration. */
struct CascadedConfig
{
    /** Entries of the stage-1 last-target table. */
    unsigned stage1Entries = 128;
    /** Stage-2 tagged target cache. */
    TaggedConfig stage2{};
};

/**
 * The stage-1 slot index, as an inline free function over the geometry
 * so the scalar predictor and the batched sweep kernel
 * (harness/batched_predictors.cc) share one definition.  @p stage1_bits
 * is floorLog2(config.stage1Entries), precomputed by the caller.
 */
inline uint64_t
cascadedStage1IndexOf(unsigned stage1_bits, uint64_t pc)
{
    return bits(pc >> 2, 0, stage1_bits);
}

/**
 * Two-stage cascaded predictor with misprediction-filtered allocation.
 */
class CascadedPredictor : public IndirectPredictor
{
  public:
    explicit CascadedPredictor(const CascadedConfig &config);

    std::optional<uint64_t> predict(uint64_t pc, uint64_t history)
        override;
    void update(uint64_t pc, uint64_t history, uint64_t target) override;
    std::string describe() const override;
    uint64_t costBits() const override;

    /** Fraction of predictions served by stage 2 (diagnostics). */
    double stage2Share() const;

    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

  private:
    struct Stage1Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
    };

    Stage1Entry &stage1Slot(uint64_t pc);

    CascadedConfig config_;
    unsigned stage1Bits_;
    std::vector<Stage1Entry> stage1_;
    TaggedTargetCache stage2_;
    uint64_t stage2Hits_ = 0;
    uint64_t probes_ = 0;
};

} // namespace tpred

#endif // TPRED_CORE_CASCADED_HH
