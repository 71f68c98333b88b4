/**
 * @file
 * Tagged target cache (paper section 3.2, Figure 11).
 *
 * Tags eliminate the interference that plagues the tagless structure:
 * a probe only produces a prediction when its tag matches, otherwise
 * the front end falls back to the BTB.  Indexing schemes of paper
 * section 4.3.1: Address, History-Concatenate, History-XOR.
 */

#ifndef TPRED_CORE_TAGGED_TARGET_CACHE_HH
#define TPRED_CORE_TAGGED_TARGET_CACHE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "core/indirect_predictor.hh"

namespace tpred
{

/** Set-index / tag derivation scheme (paper 4.3.1). */
enum class TaggedIndexScheme : uint8_t
{
    /**
     * Lower address bits select the set; higher address bits XOR
     * history form the tag.  All targets of one jump land in one set,
     * so low associativity thrashes (paper Table 7, "Addr").
     */
    Address,
    /**
     * Lower history bits select the set; higher history bits
     * concatenated with address bits form the tag.
     */
    HistoryConcat,
    /**
     * Address XOR history: low bits select the set, high bits form the
     * tag.  The scheme the paper adopts.
     */
    HistoryXor,
};

std::string_view taggedIndexSchemeName(TaggedIndexScheme scheme);

/** Tagged target cache geometry. */
struct TaggedConfig
{
    TaggedIndexScheme scheme = TaggedIndexScheme::HistoryXor;
    unsigned entries = 256;  ///< total entries (paper's default)
    unsigned ways = 4;       ///< set associativity; entries % ways == 0
    unsigned historyBits = 9;
    unsigned tagBits = 16;

    unsigned sets() const { return entries / ways; }
};

/**
 * The (set, tag) derivation, as an inline free function over the
 * geometry so the scalar predictor and the batched sweep kernel
 * (harness/batched_predictors.cc) share one definition, and the
 * kernel's per-branch loop pays no call for it.  @p set_bits is
 * floorLog2(config.sets()) (0 for a single set), precomputed by the
 * caller.
 */
inline std::pair<uint64_t, uint64_t>
taggedIndexOf(const TaggedConfig &config, unsigned set_bits, uint64_t pc,
              uint64_t history)
{
    const uint64_t addr = pc >> 2;
    const uint64_t hist = history & mask(config.historyBits);
    uint64_t set = 0;
    uint64_t tag = 0;
    switch (config.scheme) {
      case TaggedIndexScheme::Address:
        set = bits(addr, 0, set_bits);
        // Higher address bits XOR the full history form the tag; the
        // address is XOR-folded so no identifying bit is discarded.
        tag = foldXor(addr >> set_bits, config.tagBits) ^
              (hist & mask(config.tagBits));
        break;
      case TaggedIndexScheme::HistoryConcat: {
        set = bits(hist, 0, set_bits);
        const unsigned hi_bits = config.historyBits > set_bits
                                     ? config.historyBits - set_bits
                                     : 0;
        const uint64_t hist_hi = hist >> set_bits;
        tag = (foldXor(addr, config.tagBits > hi_bits
                                 ? config.tagBits - hi_bits
                                 : 1)
               << hi_bits) | hist_hi;
        tag &= mask(config.tagBits);
        break;
      }
      case TaggedIndexScheme::HistoryXor: {
        const uint64_t x = addr ^ hist;
        set = bits(x, 0, set_bits);
        tag = foldXor(x >> set_bits, config.tagBits);
        break;
      }
    }
    return {set, tag};
}

/**
 * Set-associative, true-LRU tagged target cache.
 *
 * predict() returns nullopt on a tag miss; update() allocates the LRU
 * way of the indexed set.
 */
class TaggedTargetCache : public IndirectPredictor
{
  public:
    explicit TaggedTargetCache(const TaggedConfig &config);

    std::optional<uint64_t> predict(uint64_t pc, uint64_t history)
        override;
    void update(uint64_t pc, uint64_t history, uint64_t target) override;
    std::string describe() const override;

    /** Tag + 32-bit target per entry. */
    uint64_t
    costBits() const override
    {
        return static_cast<uint64_t>(config_.entries) *
               (32 + config_.tagBits);
    }

    const TaggedConfig &config() const { return config_; }

    /** (set, tag) derivation, exposed for unit tests. */
    std::pair<uint64_t, uint64_t> indexOf(uint64_t pc, uint64_t history)
        const;

    /** Valid-entry count (occupancy reporting). */
    size_t validEntries() const;

    /** Allocations that displaced a live entry (conflict pressure). */
    uint64_t conflictEvictions() const { return conflictEvictions_; }

    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

  private:
    struct Entry
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t target = 0;
        uint64_t lastUsed = 0;
    };

    Entry *findEntry(uint64_t set, uint64_t tag);

    TaggedConfig config_;
    unsigned setBits_;
    std::vector<Entry> entries_;
    uint64_t useClock_ = 0;
    uint64_t conflictEvictions_ = 0;
};

} // namespace tpred

#endif // TPRED_CORE_TAGGED_TARGET_CACHE_HH
