#include "core/tagged_target_cache.hh"

#include <cassert>

#include "common/bits.hh"
#include "common/state_io.hh"

namespace tpred
{

std::string_view
taggedIndexSchemeName(TaggedIndexScheme scheme)
{
    switch (scheme) {
      case TaggedIndexScheme::Address: return "addr";
      case TaggedIndexScheme::HistoryConcat: return "hist-concat";
      case TaggedIndexScheme::HistoryXor: return "hist-xor";
    }
    return "?";
}

TaggedTargetCache::TaggedTargetCache(const TaggedConfig &config)
    : config_(config),
      setBits_(config.sets() > 1 ? floorLog2(config.sets()) : 0),
      entries_(config.entries)
{
    assert(config.ways >= 1);
    assert(config.entries % config.ways == 0);
    assert(isPowerOfTwo(config.sets()));
    assert(config.tagBits >= 1 && config.tagBits <= 32);
}

std::pair<uint64_t, uint64_t>
TaggedTargetCache::indexOf(uint64_t pc, uint64_t history) const
{
    return taggedIndexOf(config_, setBits_, pc, history);
}

TaggedTargetCache::Entry *
TaggedTargetCache::findEntry(uint64_t set, uint64_t tag)
{
    Entry *base = &entries_[set * config_.ways];
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

std::optional<uint64_t>
TaggedTargetCache::predict(uint64_t pc, uint64_t history)
{
    auto [set, tag] = indexOf(pc, history);
    Entry *entry = findEntry(set, tag);
    if (!entry)
        return std::nullopt;
    entry->lastUsed = ++useClock_;
    return entry->target;
}

void
TaggedTargetCache::update(uint64_t pc, uint64_t history, uint64_t target)
{
    auto [set, tag] = indexOf(pc, history);
    Entry *entry = findEntry(set, tag);
    if (!entry) {
        Entry *base = &entries_[set * config_.ways];
        entry = base;
        for (unsigned w = 0; w < config_.ways; ++w) {
            if (!base[w].valid) {
                entry = &base[w];
                break;
            }
            if (base[w].lastUsed < entry->lastUsed)
                entry = &base[w];
        }
        if (entry->valid)
            ++conflictEvictions_;
        entry->valid = true;
        entry->tag = tag;
    }
    entry->target = target;
    entry->lastUsed = ++useClock_;
}

std::string
TaggedTargetCache::describe() const
{
    return "tagged-" + std::string(taggedIndexSchemeName(config_.scheme)) +
           "/" + std::to_string(config_.entries) + "e-" +
           std::to_string(config_.ways) + "w-h" +
           std::to_string(config_.historyBits);
}

size_t
TaggedTargetCache::validEntries() const
{
    size_t n = 0;
    for (const auto &entry : entries_)
        n += entry.valid ? 1 : 0;
    return n;
}

void
TaggedTargetCache::saveState(StateWriter &w) const
{
    w.u64(useClock_);
    w.u64(conflictEvictions_);
    for (const Entry &e : entries_) {
        w.b(e.valid);
        w.u64(e.tag);
        w.u64(e.target);
        w.u64(e.lastUsed);
    }
}

void
TaggedTargetCache::restoreState(StateReader &r)
{
    useClock_ = r.u64();
    conflictEvictions_ = r.u64();
    for (Entry &e : entries_) {
        e.valid = r.b();
        e.tag = r.u64();
        e.target = r.u64();
        e.lastUsed = r.u64();
    }
}

} // namespace tpred
