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
 * Set-associative BTB with true-LRU replacement.
 *
 * lookup() is performed at fetch; update() at branch resolution with the
 * architectural outcome.  The structure is policy-free about *direction*:
 * a separate direction predictor decides taken/not-taken for conditional
 * branches, the BTB only supplies addresses and the branch kind.
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
    void update(const MicroOp &op);

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

    uint64_t setIndex(uint64_t pc) const;
    uint64_t tagOf(uint64_t pc) const;
    Entry *findEntry(uint64_t pc);
    Entry &victimEntry(uint64_t set);

    BtbConfig config_;
    unsigned setBits_;
    std::vector<Entry> entries_;  ///< sets x ways, row-major
    uint64_t useClock_ = 0;

    // The front end always probes lookup(pc) then trains update(op)
    // with the same pc and nothing in between; memoizing the probed
    // entry spares the update a second set walk.  lookup() never
    // alters the pc->entry mapping and update() consumes (and any
    // update invalidates) the memo, so behaviour is identical.
    uint64_t memoPc_ = 0;
    Entry *memoEntry_ = nullptr;
    bool memoValid_ = false;
};

} // namespace tpred

#endif // TPRED_BPRED_BTB_HH
