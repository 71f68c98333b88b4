/**
 * @file
 * Data cache model: the paper's 16 KB D-cache with a 20-cycle memory
 * latency (section 4.1; the instruction cache is perfect and needs no
 * model).
 */

#ifndef TPRED_UARCH_DCACHE_HH
#define TPRED_UARCH_DCACHE_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"

namespace tpred
{

class StateWriter;
class StateReader;

/**
 * D-cache geometry and timing.  DCache indexes sets and line offsets
 * by bit fields, so it throws std::invalid_argument unless ways is
 * nonzero, lineBytes a power of two and sizeBytes lineBytes * ways
 * times a power of two.
 */
struct DCacheConfig
{
    unsigned sizeBytes = 16 * 1024;
    unsigned lineBytes = 32;
    unsigned ways = 4;
    unsigned hitLatency = 1;   ///< added on top of the FU latency
    unsigned missLatency = 20; ///< the paper's memory latency

    unsigned sets() const { return sizeBytes / (lineBytes * ways); }
};

/** Hit/miss counters. */
struct DCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;

    double
    missRate() const
    {
        const uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) / total : 0.0;
    }
};

/**
 * Set-associative, LRU, write-allocate data cache.  Returns access
 * latency; fills happen immediately (no MSHR model — the paper's
 * machine predates non-blocking-cache studies and the experiments are
 * about the front end).
 */
class DCache
{
  public:
    explicit DCache(const DCacheConfig &config);

    /** Performs one access and returns its latency in cycles. */
    unsigned access(uint64_t addr, bool is_store);

    const DCacheStats &stats() const { return stats_; }
    const DCacheConfig &config() const { return config_; }

    /**
     * True when @p other holds the same lines (valid bits and tags) in
     * the same LRU order within every set, so that every future access
     * hits, misses and evicts alike in both.  LRU clock values and the
     * hit/miss counters are not compared: only their order within a
     * set is ever read.  Geometry must match.
     */
    bool sameLines(const DCache &other) const;

    /**
     * Serializes lines, LRU clock and hit/miss counters.  With
     * restoreState() this has no production caller: it is the data
     * cache's part of the core differential suite's oracle channel
     * (CoreModel::saveState).
     */
    void saveState(StateWriter &w) const;

    /** Restores a saveState() snapshot; geometry must match. */
    void restoreState(StateReader &r);

  private:
    struct Line
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lastUsed = 0;
    };

    DCacheConfig config_;
    unsigned setBits_;
    unsigned offsetBits_;
    std::vector<Line> lines_;
    DCacheStats stats_;
    uint64_t useClock_ = 0;
};

// Inline: the core model calls it once per issued load or store.
inline unsigned
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

} // namespace tpred

#endif // TPRED_UARCH_DCACHE_HH
