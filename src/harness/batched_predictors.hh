/**
 * @file
 * SoA-batched indirect-predictor state for the fused sweep kernels.
 *
 * Both sweep kernels (harness/sweep_kernel.cc) evaluate a batch of
 * IndirectConfigs in one pass over a trace.  BatchedPredictors holds
 * the batch's predictor state as structure-of-arrays, grouped by
 * predictor family, instead of one heap-allocated IndirectPredictor
 * per member behind a virtual call:
 *
 *  - **tagless** members share one contiguous target column,
 *    `[member][entry]`;
 *  - **tagged** members share one bank of ways, `[member][set][way]`,
 *    each way one `{tag, lastUsed, target}` record, so a set's ways
 *    sit together;
 *  - **cascaded** members share stage-1 valid/tag/target columns plus
 *    a second tagged bank for their stage-2 caches;
 *  - **ITTAGE and oracle** members stay scalar behind the same
 *    interface (their predict() is inherently stateful, and runs in
 *    place exactly as in a per-config front end);
 *  - **BTB-only** members carry no table at all.
 *
 * Per indirect branch the batch shares what its members allow:
 *
 *  - one history computation per distinct HistorySpec;
 *  - one (set, tag) derivation per distinct *index key* — tracker,
 *    scheme, set bits, tag bits and history bits — for every tagged
 *    member and cascaded stage-2 cache with that key, whatever its
 *    entry count and associativity (caches of equal set count share
 *    a key);
 *  - one set lookup per tagged member and per cascaded stage-2 cache,
 *    made by predictAll() on every indirect branch (the lookup has no
 *    side effects) and cached: the matching way, else the way a fill
 *    would take.  updateAll() fills from the cached lookup; nothing
 *    changes a bank between the two calls.
 *
 * The scalar caches also refresh a hit way's LRU clock when they
 * predict (and the cascaded update()'s presence probe does it again),
 * but update() stamps the same way with a newer clock right after,
 * and a set's clocks are only ever compared with each other.  So the
 * batch leaves those refreshes to the fill: its clocks count fewer
 * ticks, in the same order, and every lookup lands where the scalar
 * one does.
 *
 * A way whose lastUsed clock is 0 is invalid: a valid way's clock is
 * always at least 1, and an invalid way's tag (kNoTag) equals no real
 * tag, which is at most 32 bits wide.  The scalar cache's allocation
 * order — the first invalid way, else the first least recently used —
 * is then simply the first minimum clock, and one plain loop over a
 * set finds the match and the victim together.
 *
 * The index math is the *same code* the scalar predictors run —
 * taglessIndexOf / taggedIndexOf / cascadedStage1IndexOf are free
 * functions over the geometry — so the two paths cannot drift apart.
 *
 * The per-branch protocol is FrontendPredictor's stage protocol, member-wise:
 *
 *   predictAll()      — fetch-time histories, set lookups,
 *                       predictions, and the scalar members' prime();
 *   recordOutcomes()  — predicted-vs-resolved per member;
 *   updateAll()       — resolution-time training from the cached
 *                       lookups and fetch-time histories;
 *   observeTrackers() — history advance, once per branch.
 *
 * Timing sweeps read each member's prediction() in the same pass to
 * record an outcome tape.
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

/** Tag of an invalid TaggedWay; a real tag is at most 32 bits wide. */
inline constexpr uint64_t kNoTag = UINT64_MAX;

/**
 * One way of a set in the batched tagged banks.  lastUsed == 0 marks
 * the way invalid: a valid way's clock is always at least 1.
 */
struct TaggedWay
{
    uint64_t tag = kNoTag;
    uint64_t lastUsed = 0;
    uint64_t target = 0;
};

/** Where a lookup in one set lands. */
struct WayLookup
{
    size_t way = 0;  ///< the matching way, else the fill victim
    bool hit = false;
};

/**
 * Looks @p tag up in the ways of one set: the first way holding it
 * (a hit), else the first way with the minimum clock — the scalar
 * cache's allocation order, first invalid way, else true LRU.
 */
WayLookup lookupSet(std::span<const TaggedWay> set, uint64_t tag);

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
     * for indirect branch @p op.  @p btb_hit / @p btb_target describe
     * the shared front end's BTB probe; as in the per-config path,
     * predictors are consulted only on a BTB hit, but histories and
     * set lookups are captured regardless because they drive the
     * update.  updateAll() must follow for the same branch: it also
     * makes the tagged caches' hit-time LRU refresh.
     */
    void predictAll(const MicroOp &op, bool btb_hit, uint64_t btb_target);

    /** Member @p m's predicted target from predictAll(). */
    uint64_t prediction(size_t m) const { return predicted_[m]; }

    /** Records predicted-vs-resolved for every member. */
    void recordOutcomes(uint64_t next_pc);

    /**
     * Training phase: update(pc, history, target) for every member,
     * from the lookups and fetch-time histories predictAll() cached
     * for the same branch.
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
    /**
     * The inputs of one taggedIndexOf() call besides the pc: the
     * history tracker, the set bits, and the geometry fields the
     * derivation reads (scheme, tag bits, history bits).  Caches with
     * equal keys share one derivation per branch.
     */
    struct IndexKey
    {
        size_t tracker = 0;
        unsigned setBits = 0;
        TaggedConfig config{};  ///< entries and ways are not read

        bool
        sharesDerivation(const IndexKey &o) const
        {
            return tracker == o.tracker && setBits == o.setBits &&
                   config.scheme == o.config.scheme &&
                   config.tagBits == o.config.tagBits &&
                   config.historyBits == o.config.historyBits;
        }
    };

    /**
     * A bank of set-associative, true-LRU tagged caches: slot j per
     * member, its ways one contiguous `[set][way]` run.  Used for the
     * tagged family and again for the cascaded stage-2 caches.  The
     * per-slot columns hold exactly what the per-branch loops read,
     * walked stride-1 by slot.
     */
    struct TaggedBank
    {
        std::vector<size_t> member;
        std::vector<size_t> key;        ///< index into keys_
        std::vector<size_t> base;       ///< first way of the slot
        std::vector<unsigned> ways;
        std::vector<uint64_t> useClock;
        // The current branch's lookup, per slot (lookup()).
        std::vector<size_t> entry;      ///< matching way, else victim
        std::vector<uint8_t> hit;

        std::vector<TaggedWay> way;

        size_t size() const { return member.size(); }

        /** lookupSet() on slot @p j's set @p set, kept per slot. */
        void lookup(size_t j, uint64_t set, uint64_t tag);

        /** The scalar update(), into the looked-up way. */
        void
        fill(size_t j, uint64_t tag, uint64_t target)
        {
            TaggedWay &w = way[entry[j]];
            w.tag = tag;
            w.target = target;
            w.lastUsed = ++useClock[j];
        }
    };

    /** Adds member @p m's cache @p config, over @p tracker, to @p bank. */
    void addTaggedSlot(TaggedBank &bank, size_t m, size_t tracker,
                       const TaggedConfig &config);

    /** Cascaded slot @p j's stage-1 entry for the current pc. */
    size_t stage1Entry(size_t j) const;

    struct TaglessHot
    {
        std::vector<size_t> member;
        std::vector<size_t> tracker;
        std::vector<size_t> base;  ///< first entry in the shared columns
        std::vector<TaglessConfig> config;
        std::vector<size_t> index; ///< current branch's entry

        size_t size() const { return member.size(); }
    };

    struct ScalarMember
    {
        size_t member = 0;
        size_t tracker = 0;
        uint64_t history = 0;  ///< current branch's fetch-time history
        std::unique_ptr<IndirectPredictor> predictor;
    };

    size_t members_ = 0;

    // Deduplicated histories.
    std::vector<HistorySpec> specs_;
    std::vector<std::unique_ptr<HistoryTracker>> trackers_;
    std::vector<uint64_t> trackerVal_;  ///< per-branch scratch

    // Deduplicated (set, tag) derivations, with per-branch results.
    std::vector<IndexKey> keys_;
    std::vector<uint64_t> keySet_;
    std::vector<uint64_t> keyTag_;

    // Family groups.
    TaglessHot taglessHot_;
    std::vector<uint64_t> taglessTargets_;

    TaggedBank tagged_;

    TaggedBank cascaded_;  ///< stage 2; stage-1 columns by slot below
    std::vector<unsigned> s1Bits_;
    std::vector<size_t> s1Base_;
    std::vector<uint8_t> s1Valid_;
    std::vector<uint64_t> s1Tag_;
    std::vector<uint64_t> s1Target_;

    std::vector<ScalarMember> scalar_;

    std::vector<size_t> none_;  ///< BTB-only member indices

    // The current branch.
    std::vector<uint64_t> predicted_;  ///< by member
    uint64_t pc_ = 0;

    std::vector<RatioStat> indirect_;
};

} // namespace tpred

#endif // TPRED_HARNESS_BATCHED_PREDICTORS_HH
