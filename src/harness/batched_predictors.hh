/**
 * @file
 * SoA-batched indirect-predictor state for the fused sweep kernels.
 *
 * PR 5's runSweep() shares one architectural front end per batch but
 * still routes every member's predict()/update() through a virtual
 * call on a unique_ptr<IndirectPredictor> — one dispatch per member
 * per indirect branch, each landing in a separately heap-allocated
 * table.  BatchedPredictors restructures that state as
 * structure-of-arrays, grouped by predictor family:
 *
 *  - **tagless** members share one contiguous target column,
 *    `[member][entry]`;
 *  - **tagged** members share one bank of parallel
 *    valid/tag/target/lastUsed columns, `[member][set][way]`;
 *  - **cascaded** members share stage-1 valid/tag/target columns plus
 *    a second tagged bank for their stage-2 caches;
 *  - **ITTAGE and oracle** members stay scalar behind the same
 *    interface (their predict() is inherently stateful, and runs in
 *    place exactly as in a per-config front end);
 *  - **BTB-only** members carry no table at all.
 *
 * Lookups and updates then run as tight, devirtualized loops over the
 * family groups, sharing one history computation per distinct
 * HistorySpec per branch.  The per-branch loops walk dense *hot
 * columns* — parallel arrays holding exactly the fields the loop
 * reads (member, tracker, table base, geometry) — and the tagged
 * banks' way scans (tag compare, LRU victim) go through the
 * order-exact loops in common/simd.hh.  The index math is the *same
 * code* the scalar predictors run — taglessIndexOf / taggedIndexOf /
 * cascadedStage1IndexOf are free functions over the geometry — so the
 * two paths cannot drift apart.
 *
 * The per-branch protocol is the scalar front end's, member-wise:
 *
 *   predictAll()      — fetch-time histories, predictions, and the
 *                       probe-time side effects (tagged LRU refresh,
 *                       cascaded stage-2 refresh, scalar prime());
 *   recordOutcomes()  — predicted-vs-resolved per member;
 *   updateAll()       — resolution-time training with the cached
 *                       fetch-time histories;
 *   observeTrackers() — history advance, once per branch.
 *
 * Both sweep kernels drive one BatchedPredictors through the same
 * pass (harness/sweep_kernel.cc); timing sweeps read each member's
 * prediction() there to record an outcome tape.
 */

#ifndef TPRED_HARNESS_BATCHED_PREDICTORS_HH
#define TPRED_HARNESS_BATCHED_PREDICTORS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

/**
 * Appends @p spec to @p specs unless an equal spec is already present.
 * @return The index of the (found or appended) spec.
 *
 * The one HistorySpec dedup scan shared by groupByHistory() and the
 * batch constructor — previously two hand-rolled O(n^2) loops that had
 * to be kept in sync.
 */
size_t findOrAppendHistorySpec(std::vector<HistorySpec> &specs,
                               const HistorySpec &spec);

/**
 * One batch of indirect predictors in SoA layout.
 *
 * Member indices are batch positions (the order of the configs span
 * given to the constructor).  Histories are deduplicated: one
 * HistoryTracker per distinct HistorySpec among the predictor-carrying
 * members, advanced once per branch.
 */
class BatchedPredictors
{
  public:
    explicit BatchedPredictors(std::span<const IndirectConfig> configs);

    /** Number of members in the batch. */
    size_t size() const { return members_; }

    /** Number of deduplicated history trackers. */
    size_t trackerCount() const { return trackers_.size(); }

    // --- Per-indirect-branch protocol --------------------------------

    /**
     * Computes every member's fetch-time history and predicted target
     * for indirect branch @p op, applying the probe-time side effects
     * the scalar predict() makes.  @p btb_hit / @p btb_target describe
     * the shared front end's BTB probe; as in the per-config path,
     * predictors are consulted only on a BTB hit, but histories are
     * captured regardless because they index the update.
     */
    void predictAll(const MicroOp &op, bool btb_hit, uint64_t btb_target);

    /** Member @p m's predicted target from predictAll(). */
    uint64_t prediction(size_t m) const { return predicted_[m]; }

    /** Records predicted-vs-resolved for every member. */
    void recordOutcomes(uint64_t next_pc);

    /**
     * Training phase: update(pc, history, target) for every member,
     * with the fetch-time histories cached by predictAll().
     */
    void updateAll(uint64_t next_pc);

    /** Advances every deduplicated tracker; call once per branch. */
    void observeTrackers(const MicroOp &op);

    /** Member @p m's accumulated indirect-branch outcomes. */
    const RatioStat &indirectStats(size_t m) const
    {
        return indirect_[m];
    }

  private:
    static constexpr size_t kMiss = SIZE_MAX;

    /** One member's geometry within a TaggedBank. */
    struct TaggedGeom
    {
        TaggedConfig config{};
        unsigned setBits = 0;
        size_t base = 0;  ///< first entry in the bank columns
    };

    /**
     * A bank of tagged target caches in SoA layout — parallel
     * valid/tag/target/lastUsed columns over all slots, per-slot LRU
     * clocks.  Used for the tagged family and again for the cascaded
     * members' stage-2 caches.
     */
    struct TaggedBank
    {
        std::vector<TaggedGeom> geom;
        std::vector<uint64_t> useClock;
        std::vector<uint8_t> valid;
        std::vector<uint64_t> tag;
        std::vector<uint64_t> target;
        std::vector<uint64_t> lastUsed;

        size_t addSlot(const TaggedConfig &config);
        /** Entry index of a tag hit, or kMiss; no side effects. */
        size_t probe(size_t slot, uint64_t pc, uint64_t history) const;
        /** The scalar predict()'s hit-time LRU refresh. */
        void touch(size_t slot, size_t entry)
        {
            lastUsed[entry] = ++useClock[slot];
        }
        void update(size_t slot, uint64_t pc, uint64_t history,
                    uint64_t tgt);
    };

    // Dense per-family hot columns: the fields the per-branch loops
    // touch, as parallel arrays walked by plain index — stride-1
    // loads instead of per-member struct chasing.

    struct TaglessHot
    {
        std::vector<size_t> member;
        std::vector<size_t> tracker;
        std::vector<size_t> base;  ///< first entry in the shared columns
        std::vector<TaglessConfig> config;

        size_t size() const { return member.size(); }
    };

    struct TaggedHot
    {
        std::vector<size_t> member;
        std::vector<size_t> tracker;
        std::vector<size_t> slot;

        size_t size() const { return member.size(); }
    };

    struct CascadedHot
    {
        std::vector<size_t> member;
        std::vector<size_t> tracker;
        std::vector<unsigned> stage1Bits;
        std::vector<size_t> stage1Base;
        std::vector<size_t> slot;  ///< stage-2 slot in cascadedStage2_

        size_t size() const { return member.size(); }
    };

    struct ScalarMember
    {
        size_t member = 0;
        size_t tracker = 0;
        std::unique_ptr<IndirectPredictor> predictor;
    };

    size_t members_ = 0;

    // Deduplicated histories.
    std::vector<HistorySpec> specs_;
    std::vector<std::unique_ptr<HistoryTracker>> trackers_;
    std::vector<uint64_t> trackerVal_;  ///< per-branch scratch

    // Family groups.
    TaglessHot taglessHot_;
    std::vector<uint64_t> taglessTargets_;

    TaggedBank tagged_;
    TaggedHot taggedHot_;

    CascadedHot cascadedHot_;
    std::vector<uint8_t> s1Valid_;
    std::vector<uint64_t> s1Tag_;
    std::vector<uint64_t> s1Target_;
    TaggedBank cascadedStage2_;

    std::vector<ScalarMember> scalar_;

    std::vector<size_t> none_;  ///< BTB-only member indices

    // Per-branch scratch, indexed by member.
    std::vector<uint64_t> hist_;
    std::vector<uint64_t> predicted_;
    std::vector<uint64_t> taglessIdx_;
    uint64_t pc_ = 0;

    std::vector<RatioStat> indirect_;
};

} // namespace tpred

#endif // TPRED_HARNESS_BATCHED_PREDICTORS_HH
