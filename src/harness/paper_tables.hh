/**
 * @file
 * Preset configurations matching the paper's experiments, shared by
 * the bench binaries, examples and integration tests.
 */

#ifndef TPRED_HARNESS_PAPER_TABLES_HH
#define TPRED_HARNESS_PAPER_TABLES_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

/** BTB-only baseline (Table 1's machine). */
IndirectConfig baselineConfig();

/** BTB with the Calder/Grunwald 2-bit update strategy (Table 2). */
FrontendConfig twoBitBtbFrontend();

/** Nano-BTB-only front end: 16x4 = 64 entries, no second level. */
FrontendConfig smallBtbFrontend();

/**
 * Two-level BTB front end modeled on the Arm geometries of arXiv
 * 2412.05413: 64-entry L1 + 8K-entry L2, 2-cycle bubble on an
 * L2-supplied redirect (bpred/btb_hierarchy.hh).
 */
FrontendConfig twoLevelBtbFrontend();

/** Global pattern history of @p bits (sections 3.1, 4.2, 4.3). */
HistorySpec patternHistory(unsigned bits = 9);

/**
 * Global path history (section 3.1): @p filter selects which control
 * instructions are recorded, @p bits_per_target how many target bits
 * each contributes, @p addr_bit_offset which target bit the recording
 * starts at (Table 5's "address bit selection").
 */
HistorySpec pathGlobal(PathFilter filter, unsigned length_bits = 9,
                       unsigned bits_per_target = 1,
                       unsigned addr_bit_offset = 2);

/** Per-address path history (section 3.1). */
HistorySpec pathPerAddress(unsigned length_bits = 9,
                           unsigned bits_per_target = 1,
                           unsigned addr_bit_offset = 2);

/** 512-entry tagless target cache, GAg(h) indexing (Table 4). */
IndirectConfig taglessGAg(unsigned history_bits = 9);

/** 512-entry tagless target cache, GAs(h,a) indexing (Table 4). */
IndirectConfig taglessGAs(unsigned history_bits, unsigned addr_bits);

/**
 * 512-entry tagless target cache, gshare indexing — the scheme the
 * paper adopts for all subsequent tagless experiments.
 */
IndirectConfig taglessGshare(const HistorySpec &history = patternHistory(),
                             unsigned entry_bits = 9);

/**
 * 256-entry tagged target cache (Tables 7-9, Figures 12-13).
 * @param scheme Set-index/tag derivation.
 * @param ways Set associativity.
 * @param history History source and length.
 */
IndirectConfig taggedConfig(TaggedIndexScheme scheme, unsigned ways,
                            const HistorySpec &history = patternHistory(),
                            unsigned entries = 256);

/** Cascaded two-stage predictor (DESIGN.md extension). */
IndirectConfig cascadedConfig(unsigned stage1_entries = 128,
                              unsigned stage2_ways = 4);

/**
 * ITTAGE-style predictor (DESIGN.md extension): geometric history
 * lengths over a 32-bit global pattern history.
 */
IndirectConfig ittageConfig();

/** Oracle indirect predictor (upper bound). */
IndirectConfig oracleConfig();

/**
 * Exec-time reduction of @p config over the BTB-only baseline on the
 * same trace: the paper's headline timing metric.
 * @param baseline_cycles From a prior runTiming with baselineConfig().
 */
double reductionOver(uint64_t baseline_cycles, const SharedTrace &trace,
                     const IndirectConfig &config,
                     const CoreParams &params = {});

/** Options shared by every paper-table render function. */
struct TableOptions
{
    size_t ops = kDefaultAccuracyOps;   ///< instructions per trace
    unsigned threads = 0;  ///< 0 = defaultJobs(); 1 runs jobs inline
};

/** The paper's headline pair (sections 4.2-4.4 report these two). */
const std::vector<std::string> &headlineWorkloads();

/**
 * Paper-table drivers.  Each records its traces through the shared
 * trace cache, evaluates its (workload x config) grid through the
 * parallel runner — bit-identical output at any thread count, with
 * cells keyed by grid index — and returns the rendered text the
 * corresponding bench binary prints.
 */
std::string renderTable1(const TableOptions &opt);   ///< BTB baseline
std::string renderTable2(const TableOptions &opt);   ///< 2-bit strategy
std::string renderTable4(const TableOptions &opt);   ///< tagless pattern
std::string renderTable5(const TableOptions &opt);   ///< path addr bits
std::string renderTable6(const TableOptions &opt);   ///< bits per target
std::string renderTable7(const TableOptions &opt);   ///< tagged indexing
std::string renderTable8(const TableOptions &opt);   ///< tagged path
std::string renderTable9(const TableOptions &opt);   ///< history length
std::string renderFig1213(const TableOptions &opt);  ///< tagless v tagged

/** Workload axis of the BTB-pressure grid (SPEC-like vs server). */
const std::vector<std::string> &btbPressureWorkloads();

/**
 * BTB-pressure grid (hierarchy x workload): target-cache variants and
 * BTB-miss fetch stalls under the three hierarchy presets, across
 * SPECint95-like and server-shaped workloads.
 */
std::string renderBtbPressure(const TableOptions &opt);

} // namespace tpred

#endif // TPRED_HARNESS_PAPER_TABLES_HH
