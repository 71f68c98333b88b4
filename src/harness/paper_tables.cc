#include "harness/paper_tables.hh"

#include <cstdio>
#include <functional>
#include <span>

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
// shared cache, declare the experiment grid's columns and hand them to
// a SweepGrid over the traces, which batches the cells and returns
// them in (trace, column) order, then format the cells in grid order.
// Table 1, one config per trace, runs runAccuracy() on the runner
// instead.  Every job is a pure function of its index over immutable
// traces, so every job count produces the same bits.

namespace
{

/** One cached trace per workload name, at opt.ops instructions. */
std::vector<SharedTrace>
tracesFor(const TableOptions &opt, const std::vector<std::string> &names)
{
    return ParallelRunner().map<SharedTrace>(names.size(), [&](size_t i) {
        return cachedTrace(names[i], opt.ops);
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
 * Every (trace, column) cell's execution-time reduction over the
 * BTB-only baseline on the same trace, in grid order.  The baseline
 * runs first, as a column of its own.
 */
std::vector<double>
reductions(SweepGrid &grid, std::span<const SweepColumn> columns)
{
    const SweepColumn baseline[] = {{baselineConfig()}};
    const std::vector<CoreResult> base = grid.timing(baseline);
    const std::vector<CoreResult> cells = grid.timing(columns);
    std::vector<double> out(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        out[i] = execTimeReduction(base[i / columns.size()].cycles,
                                   cells[i].cycles);
    return out;
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
 * Shared skeleton of the accuracy tables (2, 4): one row per workload,
 * its indirect miss rate under each column.
 */
std::string
renderMissRates(const TableOptions &opt,
                const std::vector<std::string> &names,
                const std::vector<std::string> &header,
                std::span<const SweepColumn> columns)
{
    const auto cells = SweepGrid(tracesFor(opt, names)).accuracy(columns);
    Table table;
    table.setHeader(header);
    for (size_t i = 0; i < names.size(); ++i) {
        std::vector<std::string> row = {names[i]};
        for (size_t col = 0; col < columns.size(); ++col)
            row.push_back(formatPercent(
                cells[i * columns.size() + col].indirectJumps.missRate(), 1));
        table.addRow(row);
    }
    return table.render();
}

/**
 * Shared skeleton of the per-workload timing tables (5-9): for each
 * headline workload, a rows x cols table of execution-time reductions
 * over the BTB baseline, its cells the columns of one grid call.
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
    SweepGrid grid(tracesFor(opt, names));
    const size_t rows = row_labels.size();
    const size_t cols = header.size() - 1;
    const size_t per_workload = rows * cols;
    std::vector<SweepColumn> columns;
    columns.reserve(per_workload);
    for (size_t row = 0; row < rows; ++row)
        for (size_t col = 0; col < cols; ++col)
            columns.push_back({config_at(row, col)});
    const auto cells = reductions(grid, columns);

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
    const auto rows = ParallelRunner().map<std::vector<std::string>>(
        names.size(), [&](size_t i) {
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
    const SweepColumn columns[] = {
        {baselineConfig()},
        {baselineConfig(), twoBitBtbFrontend()},
        {taglessGshare()},
    };
    return renderMissRates(
        opt, spec95Names(),
        {"Benchmark", "BTB", "2-bit BTB", "512-entry target cache"},
        columns);
}

std::string
renderTable4(const TableOptions &opt)
{
    const SweepColumn columns[] = {
        {baselineConfig()},   {taglessGAg(9)},    {taglessGAs(8, 1)},
        {taglessGAs(7, 2)},   {taglessGshare()},
    };
    return renderMissRates(
        opt, headlineWorkloads(),
        {"Benchmark", "BTB", "GAg(9)", "GAs(8,1)", "GAs(7,2)", "gshare"},
        columns);
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
    SweepGrid grid(tracesFor(opt, names));

    // Per workload: cell 0 is the tagless reference, cells 1..n the
    // tagged cache at each associativity.
    std::vector<SweepColumn> columns = {{taglessGshare()}};
    for (unsigned ways : assocs)
        columns.push_back(
            {taggedConfig(TaggedIndexScheme::HistoryXor, ways)});
    const size_t per_workload = columns.size();
    const auto cells = reductions(grid, columns);

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

/** BTB-miss bubble cycles per 1000 instructions of @p r. */
std::string
formatStallRate(const CoreResult &r)
{
    const double rate =
        r.instructions ? 1000.0 * static_cast<double>(r.btbMissStallCycles) /
                             static_cast<double>(r.instructions)
                       : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", rate);
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
    SweepGrid grid(tracesFor(opt, names));

    // Per hierarchy variant: the accuracy cells, the BTB hit rate (a
    // baseline column of its own), and the timing cell — BTB-miss
    // bubble cycles per 1000 instructions with the tagless target
    // cache in place, the stall a better hierarchy (or a smaller code
    // footprint) recovers.  Every cell over one trace and hierarchy
    // replays one tape.
    std::vector<SweepColumn> miss_columns;
    std::vector<SweepColumn> btb_columns;
    std::vector<SweepColumn> stall_columns;
    for (const Variant &variant : variants) {
        for (const IndirectConfig &config : configs)
            miss_columns.push_back({config, variant.fe});
        btb_columns.push_back({baselineConfig(), variant.fe});
        stall_columns.push_back({taglessGshare(), variant.fe});
    }
    const auto miss = grid.accuracy(miss_columns);
    const auto btb = grid.accuracy(btb_columns);
    const auto stalls = grid.timing(stall_columns);

    Table table;
    table.setHeader({"Benchmark", "BTB hierarchy", "BTB hits",
                     "BTB ind.miss", "tagless", "tagged",
                     "BTB-stall cyc/1K"});
    for (size_t w = 0; w < names.size(); ++w) {
        if (w)
            table.addRule();
        for (size_t v = 0; v < variants.size(); ++v) {
            const size_t cell = w * variants.size() + v;
            const auto miss_rate = [&](size_t k) {
                return formatPercent(
                    miss[cell * configs.size() + k].indirectJumps.missRate(),
                    1);
            };
            table.addRow({
                v == 0 ? names[w] : "",
                variants[v].label,
                formatPercent(1.0 - btb[cell].btbHits.missRate(), 1),
                miss_rate(0),
                miss_rate(1),
                miss_rate(2),
                formatStallRate(stalls[cell]),
            });
        }
    }
    return table.render();
}

} // namespace tpred
