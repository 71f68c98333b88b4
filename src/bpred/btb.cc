#include "bpred/btb.hh"

#include <cassert>

#include "common/bits.hh"
#include "common/state_io.hh"

namespace tpred
{

Btb::Btb(const BtbConfig &config)
    : config_(config),
      setBits_(floorLog2(config.sets)),
      entries_(config.sets * config.ways)
{
    assert(isPowerOfTwo(config.sets));
    assert(config.ways >= 1);
}

uint64_t
Btb::setIndex(uint64_t pc) const
{
    // Instructions are word aligned; drop the two zero bits.
    return bits(pc >> 2, 0, setBits_);
}

uint64_t
Btb::tagOf(uint64_t pc) const
{
    return pc >> (2 + setBits_);
}

Btb::Entry *
Btb::findEntry(uint64_t pc)
{
    const uint64_t set = setIndex(pc);
    const uint64_t tag = tagOf(pc);
    Entry *base = &entries_[set * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

Btb::Entry &
Btb::victimEntry(uint64_t set)
{
    Entry *base = &entries_[set * config_.ways];
    Entry *victim = base;
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (!base[w].valid)
            return base[w];
        if (base[w].lastUsed < victim->lastUsed)
            victim = &base[w];
    }
    return *victim;
}

std::optional<BtbPrediction>
Btb::lookup(uint64_t pc)
{
    Entry *entry = findEntry(pc);
    memoPc_ = pc;
    memoEntry_ = entry;
    memoValid_ = true;
    if (!entry)
        return std::nullopt;
    entry->lastUsed = ++useClock_;
    return BtbPrediction{entry->target, entry->fallthrough, entry->kind};
}

void
Btb::update(const MicroOp &op)
{
    assert(op.isBranch());
    Entry *entry = memoValid_ && memoPc_ == op.pc ? memoEntry_
                                                  : findEntry(op.pc);
    memoValid_ = false;
    if (!entry) {
        Entry &victim = victimEntry(setIndex(op.pc));
        victim.valid = true;
        victim.tag = tagOf(op.pc);
        victim.kind = op.branch;
        victim.fallthrough = op.fallthrough;
        victim.missStreak = 0;
        victim.lastUsed = ++useClock_;
        // Only record a target when the branch actually produced one.
        victim.target = op.taken ? op.nextPc : 0;
        return;
    }

    entry->kind = op.branch;
    entry->fallthrough = op.fallthrough;
    entry->lastUsed = ++useClock_;

    if (!op.taken)
        return;  // not-taken conditional: keep the stored taken-target

    if (entry->target == op.nextPc) {
        entry->missStreak = 0;
        return;
    }

    switch (config_.strategy) {
      case BtbUpdateStrategy::Default:
        entry->target = op.nextPc;
        entry->missStreak = 0;
        break;
      case BtbUpdateStrategy::TwoBit:
        // Keep the old target until it mispredicts twice in a row.
        if (++entry->missStreak >= 2) {
            entry->target = op.nextPc;
            entry->missStreak = 0;
        }
        break;
    }
}

size_t
Btb::validEntries() const
{
    size_t n = 0;
    for (const auto &entry : entries_)
        n += entry.valid ? 1 : 0;
    return n;
}

void
Btb::saveState(StateWriter &w) const
{
    w.u64(useClock_);
    for (const Entry &e : entries_) {
        w.b(e.valid);
        w.u64(e.tag);
        w.u64(e.target);
        w.u64(e.fallthrough);
        w.u8(static_cast<uint8_t>(e.kind));
        w.u8(e.missStreak);
        w.u64(e.lastUsed);
    }
}

void
Btb::restoreState(StateReader &r)
{
    useClock_ = r.u64();
    for (Entry &e : entries_) {
        e.valid = r.b();
        e.tag = r.u64();
        e.target = r.u64();
        e.fallthrough = r.u64();
        e.kind = static_cast<BranchKind>(r.u8());
        e.missStreak = r.u8();
        e.lastUsed = r.u64();
    }
    // The memo is only valid between a lookup() and the matching
    // update(); a restore never lands in that window.
    memoValid_ = false;
    memoEntry_ = nullptr;
    memoPc_ = 0;
}

} // namespace tpred
