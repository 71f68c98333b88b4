/**
 * @file
 * Lineage bench: from the 1997 target cache to a modern ITTAGE-style
 * predictor.  The target cache fixed ONE history length per design;
 * ITTAGE (Seznec) keeps tagged components at geometric history lengths
 * and picks the longest match — the design that descends directly from
 * this paper's idea and ships in modern cores.
 *
 * Printed per benchmark: indirect misprediction rate for the BTB, the
 * paper's tagless and tagged caches, the cascaded two-stage predictor,
 * and ITTAGE, with storage budgets.
 */

#include "bench_util.hh"
#include "harness/sweep_kernel.hh"

using namespace tpred;

int
main(int argc, char **argv)
{
    const size_t ops =
        bench::setup(argc, argv, kDefaultAccuracyOps).ops;
    bench::heading("Lineage: target cache (1997) to ITTAGE "
                   "(indirect-jump misprediction rate)",
                   ops);

    const std::vector<std::pair<std::string, IndirectConfig>> configs = {
        {"BTB", baselineConfig()},
        {"tagless-512", taglessGshare()},
        {"tagged-4w", taggedConfig(TaggedIndexScheme::HistoryXor, 4)},
        {"tagged-16w-h16",
         taggedConfig(TaggedIndexScheme::HistoryXor, 16,
                      patternHistory(16))},
        {"cascaded", cascadedConfig()},
        {"ittage", ittageConfig()},
    };

    Table table;
    std::vector<std::string> header = {"Benchmark"};
    for (const auto &[label, config] : configs) {
        auto stack = buildStack(config);
        const uint64_t bytes =
            stack.predictor ? stack.predictor->costBits() / 8 : 0;
        header.push_back(label +
                         (bytes ? " (" + std::to_string(bytes) + "B)"
                                : ""));
    }
    table.setHeader(header);

    const auto &names = allWorkloadNames();
    std::vector<SweepColumn> columns;
    for (const auto &[label, config] : configs)
        columns.push_back({config});
    const auto cells =
        SweepGrid(bench::recordAll(names, ops)).accuracy(columns);
    for (size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row = {names[w]};
        for (size_t k = 0; k < configs.size(); ++k)
            row.push_back(formatPercent(
                cells[w * configs.size() + k].indirectJumps.missRate(), 1));
        table.addRow(row);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("ITTAGE's geometric history lengths cover both the "
                "monomorphic jumps (base table, like the BTB) and the "
                "deep-history interpreter dispatch the 1997 target "
                "cache was designed for.\n");
    return 0;
}
