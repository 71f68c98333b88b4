/**
 * @file
 * The fused predictor pass of both sweep kernels, member by member.
 *
 * Both sweep kernels (harness/sweep_kernel.cc) evaluate a batch of
 * IndirectConfigs over one front-end tape (core/frontend_predictor.hh).
 * Members differ only at the stream's indirect non-return branches, and
 * no member's state reads another's, so BatchedPredictors::run() takes
 * the batch one member at a time instead of one branch at a time:
 *
 *  1. **One history walk.**  The tape is replayed once through
 *     FrontendPredictor's stageStep(), with a stage that keeps, at each
 *     indirect non-return branch, where the branch sits, the BTB probe
 *     the tape hands over, and each deduplicated history tracker's
 *     fetch-time value (read before the tracker observes the branch,
 *     as in the live step).
 *  2. **One pass per member** over those indirect branches, reading the
 *     stream's columns in place, with that member's table hot:
 *       - a **tagless** member is one target column;
 *       - **tagged** members that share an *index key* — tracker,
 *         scheme, set bits, tag bits and history bits, so they differ
 *         only in ways — share one **LRU stack** per set, as deep as
 *         their largest ways, and one (set, tag) derivation per
 *         branch;
 *       - each **cascaded** member is a one-member stack with its
 *         stage-1 table and its filtered fill, run by the same code;
 *       - **ITTAGE and oracle** members run their scalar predictor;
 *       - **BTB-only** members predict the BTB's target.
 *
 * The walk hands the branches to the member passes kChunkBranches at a
 * time, so the pass's scratch stays a few kilobytes per tracker
 * whatever the stream's length, and the stream columns a chunk touches
 * stay in cache across the members' passes.
 *
 * A true-LRU W-way set holds exactly the W most recent distinct tags of
 * its access sequence (Mattson et al., IBM Sys. J. 1970), and every
 * access — hit or miss, BTB hit or not — writes the resolved target.
 * So a member with W ways holds a tag iff the tag's stack distance is
 * below W, and its target is the stack entry's: the one written at the
 * tag's latest access.  A cascaded stage 2 allocates only when stage 1
 * could not cover the jump, so its access sequence is its own, and it
 * never shares a stack (docs/sweep_kernel.md).
 *
 * The index math is the *same code* the scalar predictors run —
 * taglessIndexOf / taggedIndexOf / cascadedStage1IndexOf are inline
 * free functions over the geometry — so the two paths cannot drift
 * apart.
 */

#ifndef TPRED_HARNESS_BATCHED_PREDICTORS_HH
#define TPRED_HARNESS_BATCHED_PREDICTORS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

/**
 * One batch of indirect predictors, run member by member over a
 * front-end tape.
 *
 * Member indices are batch positions (the order of the configs span
 * given to the constructor).  Histories are deduplicated: one tracker
 * per distinct HistorySpec among the predictor-carrying members.
 */
class BatchedPredictors
{
  public:
    /** Indirect branches the history walk hands over at a time. */
    static constexpr size_t kChunkBranches = 1024;

    explicit BatchedPredictors(std::span<const IndirectConfig> configs);

    /** Number of members in the batch. */
    size_t size() const { return members_; }

    /** Number of deduplicated history trackers. */
    size_t trackerCount() const { return specs_.size(); }

    /**
     * LRU stacks run() simulates: one per index key of the tagged
     * members, one per cascaded member.
     */
    size_t stackCount() const { return stacks_.size(); }

    /** 64-bit words of one member's outcome row over @p tape. */
    static size_t
    rowWords(const FrontendTape &tape)
    {
        return (tape.indirectCount() + 63) / 64;
    }

    /**
     * Runs every member, from cold tables, over @p tape's indirect
     * non-return branches, exactly as FrontendPredictor's stage would
     * predict, score and train it; indirectStats() then holds each
     * member's outcomes.
     *
     * @param rows      Empty, or size() * rowWords(tape) zeroed words:
     *                  bit j of member m's row (words from
     *                  m * rowWords(tape)) is set iff m predicted the
     *                  tape's j-th indirect branch correctly.
     * @param predicted Empty, or size() * tape.indirectCount() slots:
     *                  member m's predicted target at the j-th indirect
     *                  branch goes to m * tape.indirectCount() + j.
     */
    void run(const FrontendTape &tape, std::span<uint64_t> rows = {},
             std::span<uint64_t> predicted = {});

    /** Member @p m's indirect-branch outcomes from the last run(). */
    const RatioStat &indirectStats(size_t m) const
    {
        return indirect_[m];
    }

  private:
    /**
     * Tagged caches that share one (set, tag) derivation per branch
     * and one LRU stack per set: a tagged index key's members, or one
     * cascaded member's stage 2 (stage1Entries > 0).
     */
    struct LruStack
    {
        size_t tracker = 0;
        unsigned setBits = 0;
        TaggedConfig config{};  ///< entries and ways are not read
        unsigned depth = 0;     ///< the members' largest ways
        std::vector<size_t> members;
        std::vector<unsigned> ways;  ///< by position in members
        unsigned stage1Entries = 0;  ///< cascaded only

        /** True iff tagged cache @p cache over @p t shares this key. */
        bool sharesKey(size_t t, const TaggedConfig &cache) const;
    };

    /** A member that runs alone: its position, tracker and config. */
    struct Member
    {
        size_t member = 0;
        size_t tracker = 0;
        IndirectConfig config;
    };

    /** One run()'s chunk, member state and verdicts (the .cc file). */
    struct Run;

    /** Runs every member over @p run's chunk, then empties it. */
    void runChunk(Run &run) const;

    size_t members_ = 0;
    std::vector<HistorySpec> specs_;  ///< deduplicated, by tracker
    std::vector<Member> tagless_;
    std::vector<LruStack> stacks_;
    std::vector<Member> scalar_;  ///< ITTAGE and oracle
    std::vector<size_t> none_;    ///< BTB-only member indices
    std::vector<RatioStat> indirect_;
};

} // namespace tpred

#endif // TPRED_HARNESS_BATCHED_PREDICTORS_HH
