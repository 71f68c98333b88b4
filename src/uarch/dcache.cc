#include "uarch/dcache.hh"

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/state_io.hh"

namespace tpred
{

namespace
{

/** A geometry access() can index with bit fields, or a throw. */
const DCacheConfig &
indexable(const DCacheConfig &config)
{
    if (config.ways == 0)
        throw std::invalid_argument("D-cache: ways must be nonzero");
    if (!isPowerOfTwo(config.lineBytes))
        throw std::invalid_argument(
            "D-cache: lineBytes must be a power of two, not " +
            std::to_string(config.lineBytes));
    const uint64_t way_bytes = uint64_t{config.lineBytes} * config.ways;
    if (config.sizeBytes % way_bytes != 0 ||
        !isPowerOfTwo(config.sizeBytes / way_bytes))
        throw std::invalid_argument(
            "D-cache: sizeBytes must be lineBytes * ways (" +
            std::to_string(way_bytes) + ") times a power of two, not " +
            std::to_string(config.sizeBytes));
    return config;
}

} // namespace

DCache::DCache(const DCacheConfig &config)
    : config_(indexable(config)),
      setBits_(floorLog2(config.sets())),
      offsetBits_(floorLog2(config.lineBytes)),
      lines_(config.sets() * config.ways)
{
}

bool
DCache::sameLines(const DCache &other) const
{
    assert(lines_.size() == other.lines_.size());
    const unsigned ways = config_.ways;
    for (size_t base = 0; base < lines_.size(); base += ways) {
        const Line *a = &lines_[base];
        const Line *b = &other.lines_[base];
        for (unsigned i = 0; i < ways; ++i) {
            if (a[i].valid != b[i].valid || a[i].tag != b[i].tag)
                return false;
            // An invalid line was never used (lastUsed 0 in both), and
            // valid lines have distinct clocks: comparing each pair's
            // order compares the LRU order.
            for (unsigned j = 0; j < i; ++j) {
                if ((a[j].lastUsed < a[i].lastUsed) !=
                    (b[j].lastUsed < b[i].lastUsed))
                    return false;
            }
        }
    }
    return true;
}

void
DCache::saveState(StateWriter &w) const
{
    w.u64(useClock_);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    for (const Line &line : lines_) {
        w.b(line.valid);
        w.u64(line.tag);
        w.u64(line.lastUsed);
    }
}

void
DCache::restoreState(StateReader &r)
{
    useClock_ = r.u64();
    stats_.hits = r.u64();
    stats_.misses = r.u64();
    for (Line &line : lines_) {
        line.valid = r.b();
        line.tag = r.u64();
        line.lastUsed = r.u64();
    }
}

} // namespace tpred
