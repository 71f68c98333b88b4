#include "core/tagless_target_cache.hh"

#include <cassert>

#include "common/state_io.hh"

namespace tpred
{

std::string_view
taglessIndexSchemeName(TaglessIndexScheme scheme)
{
    switch (scheme) {
      case TaglessIndexScheme::GAg: return "GAg";
      case TaglessIndexScheme::GAs: return "GAs";
      case TaglessIndexScheme::Gshare: return "gshare";
    }
    return "?";
}

TaglessTargetCache::TaglessTargetCache(const TaglessConfig &config)
    : config_(config),
      targets_(config.entries(), 0),
      lastWriterPc_(config.entries(), 0)
{
    assert(config.entryBits >= 1 && config.entryBits <= 24);
    if (config.scheme == TaglessIndexScheme::GAs) {
        assert(config.historyBits + config.addrBits == config.entryBits);
    } else {
        assert(config.historyBits <= config.entryBits ||
               config.scheme == TaglessIndexScheme::Gshare);
    }
}

uint64_t
TaglessTargetCache::indexOf(uint64_t pc, uint64_t history) const
{
    return taglessIndexOf(config_, pc, history);
}

std::optional<uint64_t>
TaglessTargetCache::predict(uint64_t pc, uint64_t history)
{
    const uint64_t idx = indexOf(pc, history);
    ++stats_.probes;
    if (lastWriterPc_[idx] != 0 && lastWriterPc_[idx] != pc)
        ++stats_.crossBranchProbes;
    // A tagless cache always produces a prediction, interference or not.
    return targets_[idx];
}

void
TaglessTargetCache::update(uint64_t pc, uint64_t history, uint64_t target)
{
    const uint64_t idx = indexOf(pc, history);
    targets_[idx] = target;
    lastWriterPc_[idx] = pc;
}

std::string
TaglessTargetCache::describe() const
{
    std::string name(taglessIndexSchemeName(config_.scheme));
    if (config_.scheme == TaglessIndexScheme::GAs) {
        name += "(" + std::to_string(config_.historyBits) + "," +
                std::to_string(config_.addrBits) + ")";
    } else {
        name += "(" + std::to_string(config_.historyBits) + ")";
    }
    return "tagless-" + name + "/" + std::to_string(config_.entries());
}

void
TaglessTargetCache::saveState(StateWriter &w) const
{
    for (uint64_t t : targets_)
        w.u64(t);
    for (uint64_t pc : lastWriterPc_)
        w.u64(pc);
    w.u64(stats_.probes);
    w.u64(stats_.crossBranchProbes);
}

void
TaglessTargetCache::restoreState(StateReader &r)
{
    for (uint64_t &t : targets_)
        t = r.u64();
    for (uint64_t &pc : lastWriterPc_)
        pc = r.u64();
    stats_.probes = r.u64();
    stats_.crossBranchProbes = r.u64();
}

} // namespace tpred
