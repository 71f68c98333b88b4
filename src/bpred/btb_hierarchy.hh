/**
 * @file
 * BTB hierarchy: one fetch-time probe API over either the paper's
 * single monolithic BTB or a modern two-level front end.
 *
 * The paper models a single 1K-entry BTB (bpred/btb.hh).  Server front
 * ends (Micro BTB, arXiv 2106.04205; FDIP revisited, arXiv 2006.13547)
 * instead pair a tiny zero-bubble L1 BTB with a large second level:
 * an L1 miss that hits L2 still steers fetch, but the redirect arrives
 * a few cycles late — a fetch bubble charged even when the prediction
 * is *correct*.  The two-level shape here models that regime
 * with exclusive L2->L1 prefetch-on-miss and L1-victim movement into
 * L2, using the Arm BTB geometries reverse-engineered in arXiv
 * 2412.05413 as realistic defaults (a ~64-entry nano BTB in front of a
 * several-K-entry main BTB, ~2-cycle bubble on an L2-supplied target).
 *
 * Both shapes expose deterministic per-level counters through
 * the obs registry: btb.l1_hits, btb.l1_misses, btb.l2_hits,
 * btb.prefetches and btb.victims.  Probes accumulate in plain
 * per-instance stats (hstats) and the experiment layer credits them to
 * the registry once per counted run (creditBtbCounters), so the
 * per-branch hot path stays free of atomics and warm-up/verification
 * replays never distort the totals.
 */

#ifndef TPRED_BPRED_BTB_HIERARCHY_HH
#define TPRED_BPRED_BTB_HIERARCHY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "bpred/btb.hh"

namespace tpred
{

class StateWriter;
class StateReader;

/** Geometry of a one- or two-level BTB front end. */
struct BtbHierarchyConfig
{
    /** The only level when twoLevel is false; the nano BTB otherwise. */
    BtbConfig l1{};
    bool twoLevel = false;
    /** Second level; only used when twoLevel is true. */
    BtbConfig l2{1024, 8, BtbUpdateStrategy::Default};
    /** Fetch-bubble cycles charged when a probe is satisfied from L2. */
    unsigned missPenalty = 0;

    /** Stable human-readable tag, e.g. "btb256x4" or "l1-16x4+l2-1024x8p2". */
    std::string describe() const;

    /** Modeled storage cost of all levels (tune axis). */
    uint64_t storageBits() const;
};

/** What a hierarchy probe tells the fetch stage. */
struct BtbProbe
{
    std::optional<BtbPrediction> pred;
    /**
     * Cycles the fetch redirect arrives late because the prediction was
     * supplied by L2 rather than L1.  Always 0 on an L1 hit, a full
     * miss, or a single-level BTB.
     */
    unsigned bubbleCycles = 0;
};

/** Per-instance probe accounting (mirrors the btb.* obs counters). */
struct BtbHierarchyStats
{
    uint64_t l1Hits = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Hits = 0;      ///< L1 misses satisfied by L2
    uint64_t prefetches = 0;  ///< L2->L1 promotions (== l2Hits)
    uint64_t victims = 0;     ///< valid L1 victims moved into L2
};

/**
 * Fetch-time target/kind detection, one or two levels deep: an L1
 * `Btb` and, for a two-level shape, an L2 `Btb` kept exclusive of it.
 *
 * lookup() applies the one architectural LRU refresh or promotion;
 * update() trains wherever the entry currently lives and allocates
 * into L1 on a full miss.  A single-level hierarchy is exactly its
 * `Btb`, probe stream and checkpoint bytes included.
 */
class BtbHierarchy
{
  public:
    explicit BtbHierarchy(const BtbHierarchyConfig &config);

    /** Fetch-time probe; may move entries between levels. */
    BtbProbe
    lookup(uint64_t pc)
    {
        if (std::optional<BtbPrediction> hit = l1_.lookup(pc)) {
            ++hstats_.l1Hits;
            return {hit, 0};
        }
        return lookupMiss(pc);
    }

    /** Resolution-time training (see bpred/btb.hh for the policy). */
    void
    update(const MicroOp &op)
    {
        if (!l1_.train(op))
            updateMiss(op);
    }

    /** Valid entries summed over all levels. */
    size_t validEntries() const;

    /**
     * Serializes all levels (tables + LRU clocks).  Probe accounting
     * (hstats) is intentionally *not* serialized: the counters describe
     * work this instance performed, not architectural state, and a
     * restored fork must not re-report its parent's probes.
     */
    void saveState(StateWriter &w) const;

    /** Restores a saveState() snapshot; config must match. */
    void restoreState(StateReader &r);

    const BtbHierarchyConfig &config() const { return config_; }
    const BtbHierarchyStats &hstats() const { return hstats_; }

  private:
    // The L1-miss halves of lookup() and update(), out of line so the
    // L1-hit paths inline into the front end's step.
    BtbProbe lookupMiss(uint64_t pc);
    void updateMiss(const MicroOp &op);

    /** Moves an L1 victim, if any, into L2 (its L2 victim drops). */
    void demote(const std::optional<BtbEntry> &victim);

    BtbHierarchyConfig config_;
    Btb l1_;
    std::optional<Btb> l2_;  ///< present iff config_.twoLevel
    BtbHierarchyStats hstats_;
};

/**
 * Credits @p stats to the deterministic btb.* obs counters.  Called by
 * the experiment layer once per *counted* run: shard verification
 * replays and divergence forks never credit, so a sharded or fused
 * run stays counter-indistinguishable from a continuous one.
 */
void creditBtbCounters(const BtbHierarchyStats &stats);

} // namespace tpred

#endif // TPRED_BPRED_BTB_HIERARCHY_HH
