#include "harness/paper_tables.hh"

#include <cstdio>
#include <functional>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness/parallel_runner.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "trace/trace_stats.hh"
#include "workloads/workload.hh"

namespace tpred
{

IndirectConfig
baselineConfig()
{
    return IndirectConfig{};
}

FrontendConfig
twoBitBtbFrontend()
{
    FrontendConfig fe;
    fe.btb.l1.strategy = BtbUpdateStrategy::TwoBit;
    return fe;
}

FrontendConfig
smallBtbFrontend()
{
    // Just the nano L1 on its own: 16 sets x 4 ways = 64 entries, the
    // first-level geometry arXiv 2412.05413 reverse-engineers out of
    // recent Arm cores.  No second level, so misses cost accuracy, not
    // bubbles.
    FrontendConfig fe;
    fe.btb.l1 = BtbConfig{16, 4, BtbUpdateStrategy::Default};
    return fe;
}

FrontendConfig
twoLevelBtbFrontend()
{
    // The same 64-entry nano BTB backed by an 8K-entry main BTB with a
    // 2-cycle bubble on an L2-supplied redirect (arXiv 2412.05413).
    FrontendConfig fe;
    fe.btb.l1 = BtbConfig{16, 4, BtbUpdateStrategy::Default};
    fe.btb.twoLevel = true;
    fe.btb.l2 = BtbConfig{1024, 8, BtbUpdateStrategy::Default};
    fe.btb.missPenalty = 2;
    return fe;
}

HistorySpec
patternHistory(unsigned bits)
{
    HistorySpec spec;
    spec.kind = HistoryKind::Pattern;
    spec.lengthBits = bits;
    return spec;
}

HistorySpec
pathGlobal(PathFilter filter, unsigned length_bits,
           unsigned bits_per_target, unsigned addr_bit_offset)
{
    HistorySpec spec;
    spec.kind = HistoryKind::PathGlobal;
    spec.lengthBits = length_bits;
    spec.filter = filter;
    spec.path.lengthBits = length_bits;
    spec.path.bitsPerTarget = bits_per_target;
    spec.path.addrBitOffset = addr_bit_offset;
    return spec;
}

HistorySpec
pathPerAddress(unsigned length_bits, unsigned bits_per_target,
               unsigned addr_bit_offset)
{
    HistorySpec spec;
    spec.kind = HistoryKind::PathPerAddress;
    spec.lengthBits = length_bits;
    spec.path.lengthBits = length_bits;
    spec.path.bitsPerTarget = bits_per_target;
    spec.path.addrBitOffset = addr_bit_offset;
    return spec;
}

IndirectConfig
taglessGAg(unsigned history_bits)
{
    IndirectConfig config;
    config.structure = IndirectStructure::Tagless;
    config.tagless.scheme = TaglessIndexScheme::GAg;
    config.tagless.entryBits = history_bits;
    config.tagless.historyBits = history_bits;
    config.history = patternHistory(history_bits);
    return config;
}

IndirectConfig
taglessGAs(unsigned history_bits, unsigned addr_bits)
{
    IndirectConfig config;
    config.structure = IndirectStructure::Tagless;
    config.tagless.scheme = TaglessIndexScheme::GAs;
    config.tagless.entryBits = history_bits + addr_bits;
    config.tagless.historyBits = history_bits;
    config.tagless.addrBits = addr_bits;
    config.history = patternHistory(history_bits);
    return config;
}

IndirectConfig
taglessGshare(const HistorySpec &history, unsigned entry_bits)
{
    IndirectConfig config;
    config.structure = IndirectStructure::Tagless;
    config.tagless.scheme = TaglessIndexScheme::Gshare;
    config.tagless.entryBits = entry_bits;
    config.tagless.historyBits = history.lengthBits;
    config.history = history;
    return config;
}

IndirectConfig
taggedConfig(TaggedIndexScheme scheme, unsigned ways,
             const HistorySpec &history, unsigned entries)
{
    IndirectConfig config;
    config.structure = IndirectStructure::Tagged;
    config.tagged.scheme = scheme;
    config.tagged.entries = entries;
    config.tagged.ways = ways;
    config.tagged.historyBits = history.lengthBits;
    config.history = history;
    return config;
}

IndirectConfig
cascadedConfig(unsigned stage1_entries, unsigned stage2_ways)
{
    IndirectConfig config;
    config.structure = IndirectStructure::Cascaded;
    config.cascaded.stage1Entries = stage1_entries;
    config.cascaded.stage2.ways = stage2_ways;
    config.history = patternHistory(9);
    return config;
}

IndirectConfig
ittageConfig()
{
    IndirectConfig config;
    config.structure = IndirectStructure::Ittage;
    // The longest component consumes 32 history bits.
    config.history = patternHistory(32);
    return config;
}

IndirectConfig
oracleConfig()
{
    IndirectConfig config;
    config.structure = IndirectStructure::Oracle;
    config.history = patternHistory(1);
    return config;
}

double
reductionOver(uint64_t baseline_cycles, const SharedTrace &trace,
              const IndirectConfig &config, const CoreParams &params)
{
    const CoreResult result = runTiming(trace, config, params);
    return execTimeReduction(baseline_cycles, result.cycles);
}

// --- Paper-table drivers -------------------------------------------
//
// Every driver follows the same shape: record traces through the
// shared cache, evaluate the experiment grid as index-keyed jobs on
// the runner (each job is a pure function of its index over immutable
// traces, so every thread count produces the same bits; one thread
// runs them inline, in index order), then format the cells in grid
// order.

namespace
{

/** Runs job(i) for i in [0, count) on opt.threads workers. */
template <typename T>
std::vector<T>
mapJobs(const TableOptions &opt, size_t count,
        const std::function<T(size_t)> &job)
{
    return ParallelRunner(opt.threads).map<T>(count, job);
}

/** One cached trace per workload name, at opt.ops instructions. */
std::vector<SharedTrace>
tracesFor(const TableOptions &opt, const std::vector<std::string> &names)
{
    return mapJobs<SharedTrace>(opt, names.size(), [&](size_t i) {
        return cachedTrace(names[i], opt.ops);
    });
}

/**
 * BTB-only baseline cycles per trace, for the timing tables: a batch
 * of one, so that every timing cell runs on the tape path.
 */
std::vector<uint64_t>
baseCyclesFor(const TableOptions &opt,
              const std::vector<SharedTrace> &traces)
{
    return mapJobs<uint64_t>(opt, traces.size(), [&](size_t i) {
        const std::vector<IndirectConfig> solo = {baselineConfig()};
        return runTimingSweep(traces[i], solo)[0].cycles;
    });
}

/** The five path-history variants Tables 5, 6 and 8 sweep. */
const std::vector<std::string> &
pathSchemeLabels()
{
    static const std::vector<std::string> labels = {
        "per-addr", "branch", "control", "ind jmp", "call/ret",
    };
    return labels;
}

/**
 * Fused cells: evaluates every (workload x config) pair as one
 * @p evaluate(w, batch) job per (workload x history-group) — it
 * returns one value per batch member — and scatters the values back
 * into (workload x config) grid order.
 */
std::vector<double>
sweepCells(const TableOptions &opt, size_t workloads,
           const std::vector<IndirectConfig> &configs,
           const std::function<std::vector<double>(
               size_t w, const std::vector<IndirectConfig> &batch)>
               &evaluate)
{
    const auto groups = groupByHistory(configs);
    const auto parts = mapJobs<std::vector<double>>(
        opt, workloads * groups.size(), [&](size_t j) {
            std::vector<IndirectConfig> batch;
            for (size_t c : groups[j % groups.size()])
                batch.push_back(configs[c]);
            return evaluate(j / groups.size(), batch);
        });

    std::vector<double> cells(workloads * configs.size());
    for (size_t w = 0; w < workloads; ++w)
        for (size_t g = 0; g < groups.size(); ++g)
            for (size_t k = 0; k < groups[g].size(); ++k)
                cells[w * configs.size() + groups[g][k]] =
                    parts[w * groups.size() + g][k];
    return cells;
}

/**
 * Fused accuracy cells: every (workload x config) pair's indirect
 * miss rate, one runSweep() per (workload x history-group) job.  Cell
 * values are bit-identical to per-config runAccuracy().
 */
std::vector<double>
sweepMissRates(const TableOptions &opt,
               const std::vector<SharedTrace> &traces,
               const std::vector<IndirectConfig> &configs,
               const FrontendConfig &fe = {})
{
    return sweepCells(opt, traces.size(), configs,
                      [&](size_t w, const auto &batch) {
                          std::vector<double> rates;
                          for (const FrontendStats &s :
                               runSweep(traces[w], batch, fe))
                              rates.push_back(
                                  s.indirectJumps.missRate());
                          return rates;
                      });
}

/**
 * Fused timing cells: every (workload x config) pair's execution-time
 * reduction over the BTB baseline, one runTimingSweep() per (workload
 * x history-group) job.  Cell values are bit-identical to per-config
 * runTiming() — the fusion shares one core trajectory and forks
 * members on divergence (docs/sweep_kernel.md).
 */
std::vector<double>
sweepReductions(const TableOptions &opt,
                const std::vector<SharedTrace> &traces,
                const std::vector<uint64_t> &bases,
                const std::vector<IndirectConfig> &configs)
{
    return sweepCells(opt, traces.size(), configs,
                      [&](size_t w, const auto &batch) {
                          std::vector<double> vals;
                          for (const CoreResult &r :
                               runTimingSweep(traces[w], batch))
                              vals.push_back(
                                  execTimeReduction(bases[w], r.cycles));
                          return vals;
                      });
}

HistorySpec
pathSchemeHistory(const std::string &scheme, unsigned bits_per_target,
                  unsigned addr_bit_offset)
{
    if (scheme == "per-addr")
        return pathPerAddress(9, bits_per_target, addr_bit_offset);
    if (scheme == "branch")
        return pathGlobal(PathFilter::Branch, 9, bits_per_target,
                          addr_bit_offset);
    if (scheme == "control")
        return pathGlobal(PathFilter::Control, 9, bits_per_target,
                          addr_bit_offset);
    if (scheme == "ind jmp")
        return pathGlobal(PathFilter::IndJmp, 9, bits_per_target,
                          addr_bit_offset);
    return pathGlobal(PathFilter::CallRet, 9, bits_per_target,
                      addr_bit_offset);
}

/**
 * Shared skeleton of the per-workload timing tables (5-9, Figs
 * 12-13): for each headline workload, a rows x cols grid of
 * execution-time reductions over the BTB baseline, flattened into
 * (workload x row x col)-indexed jobs.
 */
std::string
renderReductionGrid(const TableOptions &opt,
                    const std::vector<std::string> &header,
                    const std::vector<std::string> &row_labels,
                    const std::function<IndirectConfig(size_t row,
                                                       size_t col)>
                        &config_at)
{
    const auto &names = headlineWorkloads();
    const auto traces = tracesFor(opt, names);
    const auto bases = baseCyclesFor(opt, traces);

    const size_t rows = row_labels.size();
    const size_t cols = header.size() - 1;
    const size_t per_workload = rows * cols;

    // Fused timing cells via runTimingSweep: the parallelism unit
    // stays one job per (workload x history group), with the whole
    // group sharing one core trajectory inside the job, so every
    // thread count produces the same bits as the per-cell layout did.
    std::vector<IndirectConfig> configs;
    configs.reserve(per_workload);
    for (size_t row = 0; row < rows; ++row)
        for (size_t col = 0; col < cols; ++col)
            configs.push_back(config_at(row, col));
    const auto cells = sweepReductions(opt, traces, bases, configs);

    std::string out;
    for (size_t w = 0; w < names.size(); ++w) {
        Table table;
        table.setHeader(header);
        for (size_t row = 0; row < rows; ++row) {
            std::vector<std::string> cells_row = {row_labels[row]};
            for (size_t col = 0; col < cols; ++col)
                cells_row.push_back(formatPercent(
                    cells[w * per_workload + row * cols + col], 2));
            table.addRow(cells_row);
        }
        out += "[" + names[w] + "]\n" + table.render() + "\n";
    }
    return out;
}

} // namespace

const std::vector<std::string> &
headlineWorkloads()
{
    static const std::vector<std::string> names = {"gcc", "perl"};
    return names;
}

std::string
renderTable1(const TableOptions &opt)
{
    const auto &names = spec95Names();
    const auto traces = tracesFor(opt, names);
    const auto rows = mapJobs<std::vector<std::string>>(
        opt, names.size(), [&](size_t i) {
            TraceCounts counts;
            traces[i].forEachOp(
                [&counts](const MicroOp &op) { counts.observe(op); });
            const FrontendStats stats =
                runAccuracy(traces[i], baselineConfig());
            return std::vector<std::string>{
                names[i],
                formatCount(counts.instructions),
                formatCount(counts.branches),
                formatCount(counts.indirectJumps),
                formatPercent(stats.indirectJumps.missRate(), 1),
            };
        });

    Table table;
    table.setHeader({"Benchmark", "#Instructions", "#Branches",
                     "#Indirect Jumps", "Ind. Jump Mispred. Rate"});
    for (const auto &row : rows)
        table.addRow(row);
    return table.render();
}

std::string
renderTable2(const TableOptions &opt)
{
    const auto &names = spec95Names();
    const auto traces = tracesFor(opt, names);
    // A fused batch shares one FrontendConfig, so the 2-bit BTB
    // column runs as its own (degenerate, batch-of-one) sweep.
    const auto fused = sweepMissRates(
        opt, traces, {baselineConfig(), taglessGshare()});
    const auto two_bit = sweepMissRates(
        opt, traces, {baselineConfig()}, twoBitBtbFrontend());

    Table table;
    table.setHeader({"Benchmark", "BTB", "2-bit BTB",
                     "512-entry target cache"});
    for (size_t i = 0; i < names.size(); ++i) {
        table.addRow({names[i],
                      formatPercent(fused[i * 2 + 0], 1),
                      formatPercent(two_bit[i], 1),
                      formatPercent(fused[i * 2 + 1], 1)});
    }
    return table.render();
}

std::string
renderTable4(const TableOptions &opt)
{
    const auto &names = headlineWorkloads();
    const auto traces = tracesFor(opt, names);
    const std::vector<IndirectConfig> configs = {
        baselineConfig(),   taglessGAg(9),    taglessGAs(8, 1),
        taglessGAs(7, 2),   taglessGshare(),
    };
    const size_t cols = configs.size();
    const auto cells = sweepMissRates(opt, traces, configs);

    Table table;
    table.setHeader({"Benchmark", "BTB", "GAg(9)", "GAs(8,1)",
                     "GAs(7,2)", "gshare"});
    for (size_t i = 0; i < names.size(); ++i) {
        std::vector<std::string> row = {names[i]};
        for (size_t col = 0; col < cols; ++col)
            row.push_back(formatPercent(cells[i * cols + col], 1));
        table.addRow(row);
    }
    return table.render();
}

std::string
renderTable5(const TableOptions &opt)
{
    const std::vector<unsigned> offsets = {2, 4, 6, 8, 10};
    std::vector<std::string> row_labels;
    for (unsigned offset : offsets)
        row_labels.push_back("bit " + std::to_string(offset) +
                             (offset == 2 ? " (lowest)" : ""));
    return renderReductionGrid(
        opt,
        {"addr bit", "Per-addr", "Branch", "Control", "Ind jmp",
         "Call/ret"},
        row_labels, [&](size_t row, size_t col) {
            return taglessGshare(pathSchemeHistory(
                pathSchemeLabels()[col], 1, offsets[row]));
        });
}

std::string
renderTable6(const TableOptions &opt)
{
    std::vector<std::string> row_labels;
    for (unsigned bits = 1; bits <= 4; ++bits)
        row_labels.push_back(std::to_string(bits));
    return renderReductionGrid(
        opt,
        {"bits per addr", "Per-addr", "Branch", "Control", "Ind jmp",
         "Call/ret"},
        row_labels, [&](size_t row, size_t col) {
            return taglessGshare(pathSchemeHistory(
                pathSchemeLabels()[col],
                static_cast<unsigned>(row) + 1, 2));
        });
}

std::string
renderTable7(const TableOptions &opt)
{
    const std::vector<unsigned> assocs = {1, 2, 4, 8, 16};
    const std::vector<TaggedIndexScheme> schemes = {
        TaggedIndexScheme::Address,
        TaggedIndexScheme::HistoryConcat,
        TaggedIndexScheme::HistoryXor,
    };
    std::vector<std::string> row_labels;
    for (unsigned ways : assocs)
        row_labels.push_back(std::to_string(ways));
    return renderReductionGrid(
        opt, {"set-assoc.", "Addr", "History Conc", "History Xor"},
        row_labels, [&](size_t row, size_t col) {
            return taggedConfig(schemes[col], assocs[row]);
        });
}

std::string
renderTable8(const TableOptions &opt)
{
    const std::vector<unsigned> assocs = {1, 2, 4, 8, 16};
    std::vector<std::string> row_labels;
    for (unsigned ways : assocs)
        row_labels.push_back(std::to_string(ways));
    return renderReductionGrid(
        opt,
        {"set-assoc.", "Per-addr", "Branch", "Control", "Ind jmp",
         "Call/ret"},
        row_labels, [&](size_t row, size_t col) {
            return taggedConfig(
                TaggedIndexScheme::HistoryXor, assocs[row],
                pathSchemeHistory(pathSchemeLabels()[col], 1, 2));
        });
}

std::string
renderTable9(const TableOptions &opt)
{
    const std::vector<unsigned> assocs = {1, 2, 4, 8, 16};
    const std::vector<unsigned> history_bits = {9, 16};
    std::vector<std::string> row_labels;
    for (unsigned ways : assocs)
        row_labels.push_back(std::to_string(ways));
    return renderReductionGrid(
        opt, {"set-assoc.", "9 bits", "16 bits"}, row_labels,
        [&](size_t row, size_t col) {
            return taggedConfig(TaggedIndexScheme::HistoryXor,
                                assocs[row],
                                patternHistory(history_bits[col]));
        });
}

std::string
renderFig1213(const TableOptions &opt)
{
    const std::vector<unsigned> assocs = {1, 2, 4, 8, 16};
    const auto &names = headlineWorkloads();
    const auto traces = tracesFor(opt, names);
    const auto bases = baseCyclesFor(opt, traces);

    // Per workload: cell 0 is the tagless reference, cells 1..n the
    // tagged cache at each associativity; fused timing cells, one
    // runTimingSweep() per (workload x history-group) job.
    std::vector<IndirectConfig> configs = {taglessGshare()};
    for (unsigned ways : assocs)
        configs.push_back(
            taggedConfig(TaggedIndexScheme::HistoryXor, ways));
    const size_t per_workload = configs.size();
    const auto cells = sweepReductions(opt, traces, bases, configs);

    std::string out;
    for (size_t w = 0; w < names.size(); ++w) {
        const double tagless = cells[w * per_workload];
        Table table;
        table.setHeader({"set-assoc.", "w/ tags (256-entry)",
                         "w/o tags (512-entry)"});
        for (size_t k = 0; k < assocs.size(); ++k) {
            table.addRow({std::to_string(assocs[k]),
                          formatPercent(cells[w * per_workload + 1 + k],
                                        2),
                          formatPercent(tagless, 2)});
        }
        out += "[" + names[w] + "]\n" + table.render() + "\n";
    }
    return out;
}

namespace
{

std::string
formatStallRate(double cycles_per_kilo_instr)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", cycles_per_kilo_instr);
    return buf;
}

} // namespace

const std::vector<std::string> &
btbPressureWorkloads()
{
    // Two SPECint95-like generators against the object-heavy and the
    // server-shaped ones: the footprint axis of the BTB-pressure grid.
    static const std::vector<std::string> names = {
        "gcc", "perl", "cpp-virtual", "server-dispatch", "server-jit",
    };
    return names;
}

std::string
renderBtbPressure(const TableOptions &opt)
{
    struct Variant
    {
        const char *label;
        FrontendConfig fe;
    };
    const std::vector<Variant> variants = {
        {"1-level 1K", FrontendConfig{}},
        {"1-level 64", smallBtbFrontend()},
        {"2-level 64+8K", twoLevelBtbFrontend()},
    };
    const std::vector<IndirectConfig> configs = {
        baselineConfig(),
        taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
    };

    const auto &names = btbPressureWorkloads();
    const auto traces = tracesFor(opt, names);

    // Accuracy cells per hierarchy variant: a fused batch shares one
    // FrontendConfig, so each variant runs as its own sweep (the same
    // shape as Table 2's 2-bit column).
    std::vector<std::vector<double>> miss(variants.size());
    std::vector<std::vector<double>> btb_hit(variants.size());
    for (size_t v = 0; v < variants.size(); ++v) {
        miss[v] = sweepMissRates(opt, traces, configs, variants[v].fe);
        btb_hit[v] = mapJobs<double>(opt, names.size(), [&](size_t w) {
            const std::vector<IndirectConfig> solo = {baselineConfig()};
            const auto stats = runSweep(traces[w], solo, variants[v].fe);
            return 1.0 - stats[0].btbHits.missRate();
        });
    }

    // Timing cells: BTB-miss bubble cycles per 1000 instructions with
    // the tagless target cache in place — the stall a better hierarchy
    // (or a smaller code footprint) recovers.  Batches of one, on the
    // tape path.
    const auto stalls = mapJobs<double>(
        opt, variants.size() * names.size(), [&](size_t j) {
            const size_t v = j / names.size();
            const size_t w = j % names.size();
            const std::vector<IndirectConfig> solo = {taglessGshare()};
            const CoreResult r = runTimingSweep(traces[w], solo, CoreParams{},
                                                variants[v].fe)[0];
            return r.instructions ? 1000.0 *
                                        static_cast<double>(
                                            r.btbMissStallCycles) /
                                        static_cast<double>(r.instructions)
                                  : 0.0;
        });

    Table table;
    table.setHeader({"Benchmark", "BTB hierarchy", "BTB hits",
                     "BTB ind.miss", "tagless", "tagged",
                     "BTB-stall cyc/1K"});
    for (size_t w = 0; w < names.size(); ++w) {
        if (w)
            table.addRule();
        for (size_t v = 0; v < variants.size(); ++v) {
            const size_t base = w * configs.size();
            table.addRow({
                v == 0 ? names[w] : "",
                variants[v].label,
                formatPercent(btb_hit[v][w], 1),
                formatPercent(miss[v][base + 0], 1),
                formatPercent(miss[v][base + 1], 1),
                formatPercent(miss[v][base + 2], 1),
                formatStallRate(stalls[v * names.size() + w]),
            });
        }
    }
    return table.render();
}

} // namespace tpred
