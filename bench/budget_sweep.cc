/**
 * @file
 * Hardware-budget sweep (implied by the paper's §4.2 cost equations):
 * misprediction rate versus predictor storage for the tagless and
 * tagged organisations, at matched budgets.  The tagged cache pays
 * for tags with entry count — the trade the paper quantifies with its
 * "target cache(n) = 32 x n bits" accounting.
 *
 * The cell grid runs on the parallel experiment engine.  Pass "csv"
 * as the second argument for machine-readable output.
 */

#include <cstring>

#include "bench_util.hh"
#include "harness/sweep_kernel.hh"

using namespace tpred;

namespace
{

/** Matched-budget pairs: a tagged entry costs 48 bits vs the tagless
 *  32, so a 2^n tagless cache pairs with ~2/3 the tagged entries; we
 *  round to the nearest power-of-two-friendly count. */
struct Point
{
    unsigned taglessBits;   ///< log2 tagless entries
    unsigned taggedEntries; ///< same budget at 48 bits/entry
};

const std::vector<Point> kPoints = {
    {7, 84}, {8, 168}, {9, 340}, {10, 680}, {11, 1364},
};

IndirectConfig
taglessAt(const Point &point)
{
    return taglessGshare(patternHistory(9), point.taglessBits);
}

IndirectConfig
taggedAt(const Point &point)
{
    // Tagged entry counts must be a multiple of ways=4.
    return taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                        patternHistory(9),
                        point.taggedEntries / 4 * 4);
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t ops =
        bench::setup(argc, argv, kDefaultAccuracyOps).ops;
    // bench::setup() consumed the leading instruction count, so the
    // optional output selector is now argv[1].
    const bool csv = argc > 1 && std::strcmp(argv[1], "csv") == 0;
    if (!csv)
        bench::heading("Budget sweep: misprediction rate vs predictor "
                       "storage (tagless vs tagged 4-way)",
                       ops);

    const std::vector<std::string> names = bench::headlinePair();
    const std::vector<SharedTrace> traces = bench::recordAll(names, ops);

    // Columns: (point x {tagless, tagged}).  Every point shares
    // patternHistory(9), so each workload's cells are one fused sweep.
    const size_t per_workload = kPoints.size() * 2;
    std::vector<SweepColumn> columns;
    columns.reserve(per_workload);
    for (const Point &point : kPoints) {
        columns.push_back({taglessAt(point)});
        columns.push_back({taggedAt(point)});
    }
    const auto cells = SweepGrid(traces).accuracy(columns);

    for (size_t w = 0; w < names.size(); ++w) {
        Table table;
        table.setHeader({"budget (bytes)", "tagless entries",
                         "tagless miss", "tagged entries",
                         "tagged miss"});
        for (size_t p = 0; p < kPoints.size(); ++p) {
            const Point &point = kPoints[p];
            auto tagless_stack = buildStack(taglessAt(point));
            const uint64_t budget =
                tagless_stack.predictor->costBits() / 8;
            table.addRow({
                std::to_string(budget),
                std::to_string(1u << point.taglessBits),
                formatPercent(
                    cells[w * per_workload + p * 2].indirectJumps.missRate(),
                    1),
                std::to_string(point.taggedEntries / 4 * 4),
                formatPercent(cells[w * per_workload + p * 2 + 1]
                                  .indirectJumps.missRate(),
                              1),
            });
        }
        if (csv) {
            std::printf("# %s\n%s", names[w].c_str(),
                        table.renderCsv().c_str());
        } else {
            std::printf("[%s]\n%s\n", names[w].c_str(),
                        table.render().c_str());
        }
    }

    return 0;
}
