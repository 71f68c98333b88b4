/**
 * @file
 * BTB hierarchy tests: a single level's bit-identity with the raw
 * Btb, two-level prefetch/victim/exclusivity mechanics, the Btb memo
 * across promotions and copies, save/restore round-trips, and the
 * explicit counter-crediting discipline.
 */

#include <gtest/gtest.h>

#include "bpred/btb_hierarchy.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "obs/metrics.hh"
#include "test_util.hh"

namespace tpred
{
namespace
{

/** Tiny two-level geometry: 2x2 L1 in front of a 4x2 L2. */
BtbHierarchyConfig
tinyTwoLevel(unsigned penalty = 3)
{
    BtbHierarchyConfig config;
    config.l1 = {2, 2, BtbUpdateStrategy::Default};
    config.twoLevel = true;
    config.l2 = {4, 2, BtbUpdateStrategy::Default};
    config.missPenalty = penalty;
    return config;
}

TEST(BtbHierarchy, DescribeNamesBothShapes)
{
    EXPECT_EQ(BtbHierarchyConfig{}.describe(), "btb256x4");
    BtbHierarchyConfig two_bit;
    two_bit.l1.strategy = BtbUpdateStrategy::TwoBit;
    EXPECT_EQ(two_bit.describe(), "btb256x4-2bit");
    EXPECT_EQ(tinyTwoLevel().describe(), "l1-2x2+l2-4x2p3");
}

TEST(BtbHierarchy, StorageBitsSumsLevels)
{
    BtbHierarchyConfig single;
    const uint64_t one_level = single.storageBits();
    EXPECT_GT(one_level, 0u);
    BtbHierarchyConfig two = single;
    two.twoLevel = true;
    EXPECT_GT(two.storageBits(), one_level);
}

TEST(BtbHierarchy, ConfigSelectsShape)
{
    // Three branches in one 2-way L1 set: a single level drops the LRU
    // one, a second level keeps it.
    BtbHierarchyConfig single_config = tinyTwoLevel();
    single_config.twoLevel = false;
    BtbHierarchy single(single_config);
    BtbHierarchy two(tinyTwoLevel());
    for (uint64_t pc : {0x100ull, 0x108ull, 0x110ull}) {
        single.update(test::indirectOp(pc, 0x1000));
        two.update(test::indirectOp(pc, 0x1000));
    }
    EXPECT_EQ(single.validEntries(), 2u);
    EXPECT_EQ(two.validEntries(), 3u);
    EXPECT_EQ(single.hstats().victims, 0u);
    EXPECT_EQ(two.hstats().victims, 1u);
}

TEST(BtbHierarchy, SingleLevelMissHasNoBubble)
{
    BtbHierarchy btb({});
    const BtbProbe probe = btb.lookup(0x100);
    EXPECT_FALSE(probe.pred.has_value());
    EXPECT_EQ(probe.bubbleCycles, 0u);
    EXPECT_EQ(btb.hstats().l1Misses, 1u);
    EXPECT_EQ(btb.hstats().l1Hits, 0u);
}

/**
 * A single level is its Btb: same predictions on the same
 * probe/update stream as the raw Btb, and byte-identical checkpoints.
 */
TEST(BtbHierarchy, SingleLevelMatchesRawBtbBitForBit)
{
    BtbHierarchyConfig config;
    config.l1 = {8, 2, BtbUpdateStrategy::TwoBit};
    BtbHierarchy hier(config);
    Btb raw(config.l1);

    Rng rng(42);
    for (unsigned i = 0; i < 4000; ++i) {
        const uint64_t pc = 0x1000 + rng.below(256) * 4;
        const uint64_t target = 0x8000 + rng.below(16) * 0x40;
        const BtbProbe probe = hier.lookup(pc);
        const auto expect = raw.lookup(pc);
        ASSERT_EQ(probe.pred.has_value(), expect.has_value()) << i;
        if (expect) {
            EXPECT_EQ(probe.pred->target, expect->target);
            EXPECT_EQ(probe.pred->kind, expect->kind);
        }
        EXPECT_EQ(probe.bubbleCycles, 0u);
        const MicroOp op = test::indirectOp(pc, target);
        hier.update(op);
        raw.update(op);
    }
    EXPECT_EQ(hier.validEntries(), raw.validEntries());

    StateWriter hier_bytes, raw_bytes;
    hier.saveState(hier_bytes);
    raw.saveState(raw_bytes);
    EXPECT_EQ(hier_bytes.bytes(), raw_bytes.bytes());
}

TEST(BtbHierarchy, AllocationGoesToL1)
{
    BtbHierarchy btb(tinyTwoLevel());
    btb.update(test::indirectOp(0x100, 0x2000));
    const BtbProbe probe = btb.lookup(0x100);
    ASSERT_TRUE(probe.pred.has_value());
    EXPECT_EQ(probe.pred->target, 0x2000u);
    EXPECT_EQ(probe.bubbleCycles, 0u);  // L1 hit: no fetch bubble
    EXPECT_EQ(btb.hstats().l1Hits, 1u);
}

TEST(BtbHierarchy, VictimMovesToL2AndPrefetchesBack)
{
    // L1 set 0 holds 2 ways; pcs 0x100/0x108/0x110 all map to it
    // ((pc >> 2) & 1 == 0).
    BtbHierarchy btb(tinyTwoLevel());
    btb.update(test::indirectOp(0x100, 0x1000));
    btb.update(test::indirectOp(0x108, 0x2000));
    btb.update(test::indirectOp(0x110, 0x3000));  // evicts LRU 0x100
    EXPECT_EQ(btb.hstats().victims, 1u);
    EXPECT_EQ(btb.validEntries(), 3u);  // nothing was lost

    // The victim is still predictable — from L2, missPenalty late.
    const BtbProbe demoted = btb.lookup(0x100);
    ASSERT_TRUE(demoted.pred.has_value());
    EXPECT_EQ(demoted.pred->target, 0x1000u);
    EXPECT_EQ(demoted.bubbleCycles, 3u);
    EXPECT_EQ(btb.hstats().l2Hits, 1u);
    EXPECT_EQ(btb.hstats().prefetches, 1u);

    // The L2 hit promoted it: the re-probe is a zero-bubble L1 hit,
    // and the hierarchy stayed exclusive (still one copy per entry).
    const BtbProbe promoted = btb.lookup(0x100);
    ASSERT_TRUE(promoted.pred.has_value());
    EXPECT_EQ(promoted.bubbleCycles, 0u);
    EXPECT_EQ(btb.validEntries(), 3u);
}

TEST(BtbHierarchy, PromotionDemotesTheDisplacedL1Entry)
{
    BtbHierarchy btb(tinyTwoLevel());
    btb.update(test::indirectOp(0x100, 0x1000));
    btb.update(test::indirectOp(0x108, 0x2000));
    btb.update(test::indirectOp(0x110, 0x3000));  // 0x100 -> L2
    (void)btb.lookup(0x100);  // promote back; displaces an L1 entry
    EXPECT_EQ(btb.hstats().victims, 2u);
    // Every one of the three entries must still resolve somewhere.
    for (uint64_t pc : {0x100ull, 0x108ull, 0x110ull})
        EXPECT_TRUE(btb.lookup(pc).pred.has_value())
            << std::hex << pc;
    EXPECT_EQ(btb.validEntries(), 3u);
}

TEST(BtbHierarchy, UpdateTrainsInPlaceInL2)
{
    BtbHierarchy btb(tinyTwoLevel());
    btb.update(test::indirectOp(0x100, 0x1000));
    btb.update(test::indirectOp(0x108, 0x2000));
    btb.update(test::indirectOp(0x110, 0x3000));  // 0x100 -> L2
    // Resolution-time retrain without a fetch-time probe: the entry
    // must be updated where it lives, not duplicated into L1.
    btb.update(test::indirectOp(0x100, 0x4000));
    EXPECT_EQ(btb.validEntries(), 3u);
    const BtbProbe probe = btb.lookup(0x100);
    ASSERT_TRUE(probe.pred.has_value());
    EXPECT_EQ(probe.pred->target, 0x4000u);
    EXPECT_EQ(probe.bubbleCycles, 3u);  // it was still L2-resident
}

TEST(BtbHierarchy, PromotedEntryTrainsInL1)
{
    BtbHierarchy btb(tinyTwoLevel());
    btb.update(test::indirectOp(0x100, 0x1000));
    btb.update(test::indirectOp(0x108, 0x2000));
    btb.update(test::indirectOp(0x110, 0x3000));  // 0x100 -> L2
    // The probe promotes 0x100; its update must train that L1 copy,
    // not allocate a second one.
    ASSERT_EQ(btb.lookup(0x100).bubbleCycles, 3u);
    btb.update(test::indirectOp(0x100, 0x4000));
    EXPECT_EQ(btb.validEntries(), 3u);
    const BtbProbe probe = btb.lookup(0x100);
    ASSERT_TRUE(probe.pred.has_value());
    EXPECT_EQ(probe.pred->target, 0x4000u);
    EXPECT_EQ(probe.bubbleCycles, 0u);
}

TEST(BtbHierarchy, CopyTrainsItsOwnTables)
{
    BtbHierarchy btb(tinyTwoLevel());
    btb.update(test::indirectOp(0x100, 0x1000));
    (void)btb.lookup(0x100);
    // A copy taken between a probe and its update trains the copy's
    // entry; the original keeps its target.
    BtbHierarchy copy = btb;
    copy.update(test::indirectOp(0x100, 0x2000));
    EXPECT_EQ(copy.lookup(0x100).pred->target, 0x2000u);
    EXPECT_EQ(btb.lookup(0x100).pred->target, 0x1000u);
}

TEST(BtbHierarchy, TwoLevelSaveRestoreRoundTrips)
{
    BtbHierarchy btb(tinyTwoLevel());
    Rng rng(11);
    for (unsigned i = 0; i < 500; ++i) {
        const uint64_t pc = 0x100 + rng.below(24) * 4;
        (void)btb.lookup(pc);
        btb.update(test::indirectOp(pc, 0x8000 + rng.below(8) * 0x40));
    }
    StateWriter w;
    btb.saveState(w);
    const std::vector<uint8_t> bytes = w.bytes();

    BtbHierarchy restored(tinyTwoLevel());
    StateReader r(bytes);
    restored.restoreState(r);
    EXPECT_EQ(restored.validEntries(), btb.validEntries());
    // Lockstep probes: lookup() may promote and demote entries, but it
    // changes both copies identically, so every answer must agree.
    for (uint64_t pc = 0x100; pc < 0x100 + 24 * 4; pc += 4) {
        const BtbProbe a = btb.lookup(pc);
        const BtbProbe b = restored.lookup(pc);
        ASSERT_EQ(a.pred.has_value(), b.pred.has_value())
            << std::hex << pc;
        if (a.pred) {
            EXPECT_EQ(a.pred->target, b.pred->target);
            EXPECT_EQ(a.pred->kind, b.pred->kind);
        }
        EXPECT_EQ(a.bubbleCycles, b.bubbleCycles);
    }

    // The restored copy must also evolve identically.
    StateWriter w2, w3;
    btb.update(test::indirectOp(0x100, 0x9000));
    restored.update(test::indirectOp(0x100, 0x9000));
    btb.saveState(w2);
    restored.saveState(w3);
    EXPECT_EQ(w2.bytes(), w3.bytes());
}

TEST(BtbHierarchy, RestoreDoesNotInheritProbeAccounting)
{
    BtbHierarchy btb(tinyTwoLevel());
    (void)btb.lookup(0x100);
    StateWriter w;
    btb.saveState(w);
    BtbHierarchy restored(tinyTwoLevel());
    StateReader r(w.bytes());
    restored.restoreState(r);
    // hstats describe work done by *this* instance, not architectural
    // state: a restored fork must not re-report its parent's probes.
    EXPECT_EQ(restored.hstats().l1Misses, 0u);
    EXPECT_EQ(restored.hstats().l1Hits, 0u);
}

TEST(BtbHierarchy, CreditBtbCountersIsExplicitAndAdditive)
{
    BtbHierarchy btb(tinyTwoLevel());
    const obs::MetricsSnapshot before = obs::globalMetrics().snapshot();
    (void)btb.lookup(0x100);  // miss
    btb.update(test::indirectOp(0x100, 0x1000));
    (void)btb.lookup(0x100);  // hit
    // No registry traffic until the experiment layer credits.
    const obs::MetricsSnapshot mid = obs::globalMetrics().snapshot();
    EXPECT_EQ(obs::snapshotDelta(before, mid).counters.count("btb.l1_hits"),
              0u);
    creditBtbCounters(btb.hstats());
    const obs::MetricsSnapshot after = obs::globalMetrics().snapshot();
    const auto delta = obs::snapshotDelta(before, after).counters;
    EXPECT_EQ(delta.at("btb.l1_hits"), 1u);
    EXPECT_EQ(delta.at("btb.l1_misses"), 1u);
}

} // namespace
} // namespace tpred
