#include "bpred/btb_hierarchy.hh"

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

BtbHierarchy::BtbHierarchy(const BtbHierarchyConfig &config)
    : config_(config), l1_(config.l1)
{
    if (config.twoLevel)
        l2_.emplace(config.l2);
}

BtbProbe
BtbHierarchy::lookupMiss(uint64_t pc)
{
    ++hstats_.l1Misses;
    const std::optional<BtbEntry> lower =
        l2_ ? l2_->take(pc) : std::nullopt;
    if (!lower)
        return {};

    // L2 hit: prefetch the entry into L1.  The hierarchy is exclusive,
    // so take() consumed the L2 copy first and the displaced L1 victim
    // may move into the way it freed; the promoted entry gets a fresh
    // L1 stamp.  The redirect still happens this fetch, just
    // missPenalty cycles late.
    ++hstats_.l2Hits;
    ++hstats_.prefetches;
    demote(l1_.insert(*lower));
    return {BtbPrediction{lower->target, lower->fallthrough, lower->kind},
            config_.missPenalty};
}

void
BtbHierarchy::updateMiss(const MicroOp &op)
{
    // Train wherever the entry lives.  The fetch-time lookup for this
    // pc already promoted any L2-resident entry, so L2 only trains on
    // updates without a preceding probe.
    if (l2_ && l2_->train(op))
        return;
    demote(l1_.insert(BtbEntry::allocate(op)));
}

void
BtbHierarchy::demote(const std::optional<BtbEntry> &victim)
{
    if (!victim || !l2_)
        return;  // nothing displaced, or a single level drops it
    ++hstats_.victims;
    l2_->insert(*victim);
}

size_t
BtbHierarchy::validEntries() const
{
    return l1_.validEntries() + (l2_ ? l2_->validEntries() : 0);
}

// A single-level checkpoint is byte-for-byte what the bare Btb writes.
void
BtbHierarchy::saveState(StateWriter &w) const
{
    l1_.saveState(w);
    if (l2_)
        l2_->saveState(w);
}

void
BtbHierarchy::restoreState(StateReader &r)
{
    l1_.restoreState(r);
    if (l2_)
        l2_->restoreState(r);
}

} // namespace tpred
