#include "bpred/btb_hierarchy.hh"

#include <cassert>
#include <sstream>

#include "common/bits.hh"
#include "common/state_io.hh"
#include "obs/metrics.hh"

namespace tpred
{

void
creditBtbCounters(const BtbHierarchyStats &s)
{
    static const obs::Counter l1_hits =
        obs::globalMetrics().counter("btb.l1_hits");
    static const obs::Counter l1_misses =
        obs::globalMetrics().counter("btb.l1_misses");
    static const obs::Counter l2_hits =
        obs::globalMetrics().counter("btb.l2_hits");
    static const obs::Counter prefetches =
        obs::globalMetrics().counter("btb.prefetches");
    static const obs::Counter victims =
        obs::globalMetrics().counter("btb.victims");
    l1_hits.inc(s.l1Hits);
    l1_misses.inc(s.l1Misses);
    l2_hits.inc(s.l2Hits);
    prefetches.inc(s.prefetches);
    victims.inc(s.victims);
}

namespace
{

uint64_t
levelStorageBits(const BtbConfig &cfg)
{
    // Modeled entry cost: tag (48-bit VA, word aligned, minus the set
    // index) + 32-bit target offset + kind + 2-bit strategy state +
    // true-LRU rank within the set.
    const unsigned set_bits = floorLog2(cfg.sets);
    const unsigned tag_bits = set_bits < 46 ? 46 - set_bits : 0;
    const unsigned lru_bits = cfg.ways > 1 ? floorLog2(cfg.ways) : 0;
    const uint64_t entry_bits = tag_bits + 32 + 3 + 2 + lru_bits + 1;
    return entry_bits * cfg.entries();
}

/** Single-level adapter: the paper's Btb behind the hierarchy API. */
class SingleLevelBtb final : public BtbHierarchy
{
  public:
    explicit SingleLevelBtb(const BtbHierarchyConfig &config)
        : BtbHierarchy(config),
          btb_(config.l1)
    {
    }

    BtbProbe
    lookup(uint64_t pc) override
    {
        BtbProbe probe{btb_.lookup(pc), 0};
        if (probe.pred)
            ++hstats_.l1Hits;
        else
            ++hstats_.l1Misses;
        return probe;
    }

    void update(const MicroOp &op) override { btb_.update(op); }

    size_t validEntries() const override { return btb_.validEntries(); }

    // Save format is exactly Btb's own: a single-level hierarchy
    // checkpoint is byte-for-byte what the pre-hierarchy front end
    // wrote.
    void saveState(StateWriter &w) const override { btb_.saveState(w); }
    void restoreState(StateReader &r) override { btb_.restoreState(r); }

  private:
    Btb btb_;
};

/**
 * Exclusive two-level BTB.  Entries carry their full pc so they can
 * migrate between levels with different set geometries.
 */
class TwoLevelBtb final : public BtbHierarchy
{
  public:
    explicit TwoLevelBtb(const BtbHierarchyConfig &config)
        : BtbHierarchy(config),
          l1_(config.l1),
          l2_(config.l2)
    {
    }

    BtbProbe
    lookup(uint64_t pc) override
    {
        if (Entry *hit = l1_.find(pc)) {
            hit->lastUsed = ++l1_.useClock;
            ++hstats_.l1Hits;
            return {predictionOf(*hit), 0};
        }
        ++hstats_.l1Misses;
        Entry *lower = l2_.find(pc);
        if (!lower)
            return {std::nullopt, 0};

        // L2 hit: prefetch the entry into L1 (the hierarchy is
        // exclusive, so the L2 copy is consumed) and move any valid L1
        // victim down.  The redirect still happens this fetch, just
        // missPenalty cycles late.
        ++hstats_.l2Hits;
        ++hstats_.prefetches;
        Entry promoted = *lower;
        lower->valid = false;
        Entry &slot = l1_.victim(l1_.setOf(pc));
        if (slot.valid)
            demote(slot);
        slot = promoted;
        slot.lastUsed = ++l1_.useClock;
        return {predictionOf(slot), config_.missPenalty};
    }

    void
    update(const MicroOp &op) override
    {
        assert(op.isBranch());
        // Train wherever the entry lives.  The fetch-time lookup for
        // this pc already promoted any L2-resident entry, so the L2
        // branch only fires for updates without a preceding probe.
        if (Entry *entry = l1_.find(op.pc)) {
            train(l1_, *entry, op);
            return;
        }
        if (Entry *entry = l2_.find(op.pc)) {
            train(l2_, *entry, op);
            return;
        }
        Entry &slot = l1_.victim(l1_.setOf(op.pc));
        if (slot.valid)
            demote(slot);
        slot.valid = true;
        slot.pc = op.pc;
        slot.kind = op.branch;
        slot.fallthrough = op.fallthrough;
        slot.missStreak = 0;
        slot.lastUsed = ++l1_.useClock;
        slot.target = op.taken ? op.nextPc : 0;
    }

    size_t
    validEntries() const override
    {
        return l1_.validEntries() + l2_.validEntries();
    }

    void
    saveState(StateWriter &w) const override
    {
        l1_.save(w);
        l2_.save(w);
    }

    void
    restoreState(StateReader &r) override
    {
        l1_.restore(r);
        l2_.restore(r);
    }

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t pc = 0;  ///< full pc; level tags derive from it
        uint64_t target = 0;
        uint64_t fallthrough = 0;
        BranchKind kind = BranchKind::None;
        uint8_t missStreak = 0;
        uint64_t lastUsed = 0;
    };

    struct Level
    {
        explicit Level(const BtbConfig &config)
            : cfg(config),
              setBits(floorLog2(config.sets)),
              entries(config.sets * config.ways)
        {
            assert(isPowerOfTwo(config.sets));
            assert(config.ways >= 1);
        }

        uint64_t setOf(uint64_t pc) const
        {
            return bits(pc >> 2, 0, setBits);
        }

        Entry *
        find(uint64_t pc)
        {
            Entry *base = &entries[setOf(pc) * cfg.ways];
            for (unsigned w = 0; w < cfg.ways; ++w) {
                if (base[w].valid && base[w].pc == pc)
                    return &base[w];
            }
            return nullptr;
        }

        Entry &
        victim(uint64_t set)
        {
            Entry *base = &entries[set * cfg.ways];
            Entry *victim = base;
            for (unsigned w = 0; w < cfg.ways; ++w) {
                if (!base[w].valid)
                    return base[w];
                if (base[w].lastUsed < victim->lastUsed)
                    victim = &base[w];
            }
            return *victim;
        }

        size_t
        validEntries() const
        {
            size_t n = 0;
            for (const Entry &e : entries)
                n += e.valid ? 1 : 0;
            return n;
        }

        void
        save(StateWriter &w) const
        {
            w.u64(useClock);
            for (const Entry &e : entries) {
                w.b(e.valid);
                w.u64(e.pc);
                w.u64(e.target);
                w.u64(e.fallthrough);
                w.u8(static_cast<uint8_t>(e.kind));
                w.u8(e.missStreak);
                w.u64(e.lastUsed);
            }
        }

        void
        restore(StateReader &r)
        {
            useClock = r.u64();
            for (Entry &e : entries) {
                e.valid = r.b();
                e.pc = r.u64();
                e.target = r.u64();
                e.fallthrough = r.u64();
                e.kind = static_cast<BranchKind>(r.u8());
                e.missStreak = r.u8();
                e.lastUsed = r.u64();
            }
        }

        BtbConfig cfg;
        unsigned setBits;
        std::vector<Entry> entries;
        uint64_t useClock = 0;
    };

    static BtbPrediction
    predictionOf(const Entry &e)
    {
        return {e.target, e.fallthrough, e.kind};
    }

    /** Moves a valid L1 victim down into L2 (its L2 victim drops). */
    void
    demote(const Entry &evicted)
    {
        ++hstats_.victims;
        Entry &slot = l2_.victim(l2_.setOf(evicted.pc));
        slot = evicted;
        slot.lastUsed = ++l2_.useClock;
    }

    /** Same training policy as Btb::update's hit path. */
    static void
    train(Level &level, Entry &entry, const MicroOp &op)
    {
        entry.kind = op.branch;
        entry.fallthrough = op.fallthrough;
        entry.lastUsed = ++level.useClock;
        if (!op.taken)
            return;  // not-taken conditional: keep the taken-target
        if (entry.target == op.nextPc) {
            entry.missStreak = 0;
            return;
        }
        switch (level.cfg.strategy) {
          case BtbUpdateStrategy::Default:
            entry.target = op.nextPc;
            entry.missStreak = 0;
            break;
          case BtbUpdateStrategy::TwoBit:
            if (++entry.missStreak >= 2) {
                entry.target = op.nextPc;
                entry.missStreak = 0;
            }
            break;
        }
    }

    Level l1_;
    Level l2_;
};

} // namespace

std::string
BtbHierarchyConfig::describe() const
{
    std::ostringstream out;
    if (!twoLevel) {
        out << "btb" << l1.sets << "x" << l1.ways;
        if (l1.strategy == BtbUpdateStrategy::TwoBit)
            out << "-2bit";
        return out.str();
    }
    out << "l1-" << l1.sets << "x" << l1.ways << "+l2-" << l2.sets << "x"
        << l2.ways << "p" << missPenalty;
    return out.str();
}

uint64_t
BtbHierarchyConfig::storageBits() const
{
    uint64_t total = levelStorageBits(l1);
    if (twoLevel)
        total += levelStorageBits(l2);
    return total;
}

std::unique_ptr<BtbHierarchy>
makeBtbHierarchy(const BtbHierarchyConfig &config)
{
    if (config.twoLevel)
        return std::make_unique<TwoLevelBtb>(config);
    return std::make_unique<SingleLevelBtb>(config);
}

} // namespace tpred
