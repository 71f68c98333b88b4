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

size_t
Btb::find(uint64_t pc)
{
    if (memoPc_ == pc)
        return memoSlot_;
    const uint64_t tag = tagOf(pc);
    const size_t base = setIndex(pc) * config_.ways;
    memoPc_ = pc;
    memoSlot_ = kAbsent;
    for (size_t w = base; w < base + config_.ways; ++w) {
        if (entries_[w].valid && entries_[w].tag == tag) {
            memoSlot_ = w;
            break;
        }
    }
    return memoSlot_;
}

size_t
Btb::victimSlot(uint64_t set) const
{
    const size_t base = set * config_.ways;
    size_t victim = base;
    for (size_t w = base; w < base + config_.ways; ++w) {
        if (!entries_[w].valid)
            return w;
        if (entries_[w].lastUsed < entries_[victim].lastUsed)
            victim = w;
    }
    return victim;
}

std::optional<BtbPrediction>
Btb::lookup(uint64_t pc)
{
    const size_t slot = find(pc);
    if (slot == kAbsent)
        return std::nullopt;
    Entry &entry = entries_[slot];
    entry.lastUsed = ++useClock_;
    return BtbPrediction{entry.target, entry.fallthrough, entry.kind};
}

bool
Btb::train(const MicroOp &op)
{
    assert(op.isBranch());
    const size_t slot = find(op.pc);
    if (slot == kAbsent)
        return false;
    Entry &entry = entries_[slot];
    entry.kind = op.branch;
    entry.fallthrough = op.fallthrough;
    entry.lastUsed = ++useClock_;

    if (!op.taken)
        return true;  // not-taken conditional: keep the stored taken-target

    if (entry.target == op.nextPc) {
        entry.missStreak = 0;
        return true;
    }

    switch (config_.strategy) {
      case BtbUpdateStrategy::Default:
        entry.target = op.nextPc;
        entry.missStreak = 0;
        break;
      case BtbUpdateStrategy::TwoBit:
        // Keep the old target until it mispredicts twice in a row.
        if (++entry.missStreak >= 2) {
            entry.target = op.nextPc;
            entry.missStreak = 0;
        }
        break;
    }
    return true;
}

BtbEntry
Btb::entryAt(size_t slot, uint64_t set) const
{
    // pc >> 2 is tag << setBits | set.
    const Entry &e = entries_[slot];
    return {(e.tag << setBits_ | set) << 2, e.target, e.fallthrough,
            e.kind, e.missStreak};
}

std::optional<BtbEntry>
Btb::take(uint64_t pc)
{
    const size_t slot = find(pc);
    if (slot == kAbsent)
        return std::nullopt;
    entries_[slot].valid = false;
    memoSlot_ = kAbsent;  // find() just remembered pc
    return entryAt(slot, setIndex(pc));
}

std::optional<BtbEntry>
Btb::insert(const BtbEntry &entry)
{
    const uint64_t set = setIndex(entry.pc);
    const size_t slot = victimSlot(set);
    std::optional<BtbEntry> displaced;
    if (entries_[slot].valid)
        displaced = entryAt(slot, set);
    entries_[slot] = {true, tagOf(entry.pc), entry.target,
                      entry.fallthrough, entry.kind, entry.missStreak,
                      ++useClock_};
    memoPc_ = entry.pc;
    memoSlot_ = slot;
    return displaced;
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
    memoPc_.reset();
}

} // namespace tpred
