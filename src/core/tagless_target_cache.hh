/**
 * @file
 * Tagless target cache (paper section 3.2, Figure 10).
 *
 * Structurally the pattern history table of a 2-level predictor, except
 * each entry stores a branch *target* instead of a direction counter.
 * Index schemes studied in paper Table 4: GAg, GAs, gshare.
 */

#ifndef TPRED_CORE_TAGLESS_TARGET_CACHE_HH
#define TPRED_CORE_TAGLESS_TARGET_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"
#include "core/indirect_predictor.hh"

namespace tpred
{

/** Hashing scheme selecting the tagless cache entry (paper 4.2.1). */
enum class TaglessIndexScheme : uint8_t
{
    /** GAg(h): the h history bits alone select the entry. */
    GAg,
    /**
     * GAs(h,a): a address bits select a conceptual sub-table, h history
     * bits select the entry within it (h + a = log2 entries).
     */
    GAs,
    /** gshare: branch address XOR history selects the entry. */
    Gshare,
};

std::string_view taglessIndexSchemeName(TaglessIndexScheme scheme);

/** Tagless target cache geometry. */
struct TaglessConfig
{
    TaglessIndexScheme scheme = TaglessIndexScheme::Gshare;
    /** log2 of the entry count; the paper's default is 9 (512). */
    unsigned entryBits = 9;
    /** History bits consumed by the index (= entryBits for GAg/gshare;
     *  entryBits - addrBits for GAs). */
    unsigned historyBits = 9;
    /** Address bits consumed (GAs only). */
    unsigned addrBits = 0;

    size_t entries() const { return size_t{1} << entryBits; }
};

/**
 * The entry-index computation, as an inline free function over the
 * geometry so the scalar predictor and the batched sweep kernel
 * (harness/batched_predictors.cc) share one definition — the two paths
 * cannot drift apart.
 */
inline uint64_t
taglessIndexOf(const TaglessConfig &config, uint64_t pc, uint64_t history)
{
    const uint64_t addr = pc >> 2;  // word-aligned instructions
    switch (config.scheme) {
      case TaglessIndexScheme::GAg:
        return history & mask(config.entryBits);
      case TaglessIndexScheme::GAs:
        // Address bits pick the sub-table (high index bits), history
        // bits pick the entry within it.
        return ((bits(addr, 0, config.addrBits) << config.historyBits) |
                (history & mask(config.historyBits)))
               & mask(config.entryBits);
      case TaglessIndexScheme::Gshare:
        // Histories longer than the index are XOR-folded in rather
        // than truncated, so every history bit influences the index.
        return (addr ^ foldXor(history, config.entryBits)) &
               mask(config.entryBits);
    }
    return 0;
}

/** Interference accounting (simulation-side, costs no "hardware"). */
struct TaglessStats
{
    uint64_t probes = 0;
    /** Probes whose entry was last written by a different branch —
     *  the interference the paper's section 5 discusses. */
    uint64_t crossBranchProbes = 0;

    double
    interferenceRate() const
    {
        return probes ? static_cast<double>(crossBranchProbes) / probes
                      : 0.0;
    }
};

/**
 * The tagless target cache.
 *
 * Every probe "hits" — the selected entry's stored target is the
 * prediction, interference and all.  An entry that has never been
 * written predicts target 0, which can never match a real target (the
 * workloads lay code above address 0x1000), so cold entries always
 * mispredict, as in the paper.
 */
class TaglessTargetCache : public IndirectPredictor
{
  public:
    explicit TaglessTargetCache(const TaglessConfig &config);

    std::optional<uint64_t> predict(uint64_t pc, uint64_t history)
        override;
    void update(uint64_t pc, uint64_t history, uint64_t target) override;
    std::string describe() const override;

    /** 32 bits of target per entry (paper's cost equation, 4.2). */
    uint64_t costBits() const override { return 32 * config_.entries(); }

    const TaglessConfig &config() const { return config_; }

    /** Index computation, exposed for unit tests. */
    uint64_t indexOf(uint64_t pc, uint64_t history) const;

    /** Interference statistics over the probes made so far. */
    const TaglessStats &stats() const { return stats_; }

    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

  private:
    TaglessConfig config_;
    std::vector<uint64_t> targets_;
    std::vector<uint64_t> lastWriterPc_;
    TaglessStats stats_;
};

} // namespace tpred

#endif // TPRED_CORE_TAGLESS_TARGET_CACHE_HH
