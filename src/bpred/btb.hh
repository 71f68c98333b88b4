/**
 * @file
 * Branch target buffer (paper sections 1-2).
 *
 * The BTB stores, per branch, the taken target and fall-through address.
 * For indirect jumps the stored target is the last computed target, which
 * is exactly the baseline scheme the target cache improves upon.  The
 * Calder/Grunwald "2-bit" update strategy (related work, paper Table 2)
 * is implemented as an alternative target-update policy.
 */

#ifndef TPRED_BPRED_BTB_HH
#define TPRED_BPRED_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/micro_op.hh"

namespace tpred
{

class StateWriter;
class StateReader;

/** Target-address update policy for BTB entries. */
enum class BtbUpdateStrategy : uint8_t
{
    /** Replace the stored target on every misprediction. */
    Default,
    /**
     * Calder & Grunwald: replace the stored target only after two
     * consecutive mispredictions with that target.
     */
    TwoBit,
};

/** BTB geometry and policy. */
struct BtbConfig
{
    unsigned sets = 256;   ///< must be a power of two
    unsigned ways = 4;
    BtbUpdateStrategy strategy = BtbUpdateStrategy::Default;

    unsigned entries() const { return sets * ways; }
};

/** What a BTB hit tells the fetch stage. */
struct BtbPrediction
{
    uint64_t target = 0;       ///< predicted taken-target
    uint64_t fallthrough = 0;  ///< pc + 4
    BranchKind kind = BranchKind::None;
};

/**
 * A BTB entry outside its table: what an exclusive hierarchy moves
 * between levels (bpred/btb_hierarchy.hh).  The table keeps the folded
 * tag; an entry leaving it gets its pc rebuilt from tag and set, which
 * is exact for word-aligned pcs.
 */
struct BtbEntry
{
    uint64_t pc = 0;
    uint64_t target = 0;
    uint64_t fallthrough = 0;
    BranchKind kind = BranchKind::None;
    uint8_t missStreak = 0;

    /** The entry a resolved branch allocates on a BTB miss. */
    static BtbEntry
    allocate(const MicroOp &op)
    {
        // Only record a target when the branch actually produced one.
        return {op.pc, op.taken ? op.nextPc : 0, op.fallthrough,
                op.branch, 0};
    }
};

/**
 * Set-associative BTB with true-LRU replacement.
 *
 * lookup() is performed at fetch; update() at branch resolution with the
 * architectural outcome.  The structure is policy-free about *direction*:
 * a separate direction predictor decides taken/not-taken for conditional
 * branches, the BTB only supplies addresses and the branch kind.
 *
 * update() is train() else insert(): the primitives a two-level
 * hierarchy composes into exclusive promotion and demotion.
 */
class Btb
{
  public:
    explicit Btb(const BtbConfig &config);

    /**
     * Fetch-time probe.
     * @return The stored prediction, or nullopt on miss.  A hit
     *         refreshes the entry's LRU state.
     */
    std::optional<BtbPrediction> lookup(uint64_t pc);

    /**
     * Resolution-time update: allocates on miss, refreshes the kind and
     * fall-through, and applies the configured target-update strategy.
     * Conditional branches only update the target when taken.
     */
    void
    update(const MicroOp &op)
    {
        if (!train(op))
            insert(BtbEntry::allocate(op));  // the victim drops
    }

    /**
     * update()'s hit path: trains the entry for @p op's pc in place.
     * @return false, changing nothing, when no entry holds the pc.
     */
    bool train(const MicroOp &op);

    /** Removes the entry for @p pc from its set and returns it. */
    std::optional<BtbEntry> take(uint64_t pc);

    /**
     * Writes @p entry into its set's victim way (the first invalid
     * way, else the least recently used) with a fresh LRU stamp.
     * @return The valid entry it displaced, if any.
     */
    std::optional<BtbEntry> insert(const BtbEntry &entry);

    const BtbConfig &config() const { return config_; }

    /** Number of valid entries (for tests / occupancy reporting). */
    size_t validEntries() const;

    /** Serializes the full table + LRU clock (sharded replay). */
    void saveState(StateWriter &w) const;

    /** Restores a saveState() snapshot; geometry must match. */
    void restoreState(StateReader &r);

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
        uint64_t fallthrough = 0;
        BranchKind kind = BranchKind::None;
        /// Consecutive mispredicts of the stored target (TwoBit strategy).
        uint8_t missStreak = 0;
        uint64_t lastUsed = 0;
    };

    /// find()'s answer for a pc no entry holds.
    static constexpr size_t kAbsent = SIZE_MAX;

    uint64_t setIndex(uint64_t pc) const;
    uint64_t tagOf(uint64_t pc) const;
    /** The slot holding @p pc, or kAbsent. */
    size_t find(uint64_t pc);
    size_t victimSlot(uint64_t set) const;
    /** The entry in @p slot of @p set, its pc rebuilt. */
    BtbEntry entryAt(size_t slot, uint64_t set) const;

    BtbConfig config_;
    unsigned setBits_;
    std::vector<Entry> entries_;  ///< sets x ways, row-major
    uint64_t useClock_ = 0;

    // The front end probes lookup(pc) and then trains update(op) with
    // the same pc; remembering where the probe landed spares the
    // update a second set walk.  Every call that moves a pc in or out
    // of the table (insert, take, restoreState) rewrites or drops the
    // memo, so it is always exact, and it is a slot index, so a copied
    // table's memo points into the copy.
    std::optional<uint64_t> memoPc_;
    size_t memoSlot_ = kAbsent;
};

} // namespace tpred

#endif // TPRED_BPRED_BTB_HH
