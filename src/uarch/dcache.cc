#include "uarch/dcache.hh"

#include <cassert>

#include "common/bits.hh"
#include "common/state_io.hh"

namespace tpred
{

DCache::DCache(const DCacheConfig &config)
    : config_(config),
      setBits_(floorLog2(config.sets())),
      offsetBits_(floorLog2(config.lineBytes)),
      lines_(config.sets() * config.ways)
{
    assert(isPowerOfTwo(config.sets()));
    assert(isPowerOfTwo(config.lineBytes));
}

unsigned
DCache::access(uint64_t addr, bool is_store)
{
    (void)is_store;  // write-allocate: stores behave like loads here
    const uint64_t set = bits(addr >> offsetBits_, 0, setBits_);
    const uint64_t tag = addr >> (offsetBits_ + setBits_);
    Line *base = &lines_[set * config_.ways];

    for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUsed = ++useClock_;
            ++stats_.hits;
            return config_.hitLatency;
        }
    }

    // Miss: fill the LRU way.
    Line *victim = base;
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUsed < victim->lastUsed)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUsed = ++useClock_;
    ++stats_.misses;
    return config_.hitLatency + config_.missLatency;
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
