/**
 * @file
 * Ablations beyond the paper (DESIGN.md §6):
 *   1. history length sweep for the tagless gshare cache;
 *   2. equal-budget comparison: tagless vs tagged vs cascaded vs
 *      oracle, with storage cost printed;
 *   3. the C++ virtual-dispatch workload (the paper's future work);
 *   4. seed sensitivity of the headline result (mean ± stddev over
 *      independently generated workloads);
 *   5. interference in the tagless structure (the paper's §5
 *      motivation for adding tags);
 *   6. the direction predictor's influence (gshare vs McFarling
 *      tournament baseline machine).
 *
 * Every grid runs on the parallel experiment engine; traces are
 * shared across sections through the trace cache, and sections 1 and
 * 6 share one SweepGrid over the headline traces.
 */

#include "bench_util.hh"
#include "harness/multi_seed.hh"
#include "harness/sweep_kernel.hh"

using namespace tpred;

int
main(int argc, char **argv)
{
    const size_t ops =
        bench::setup(argc, argv, kDefaultAccuracyOps).ops;
    bench::heading("Ablations (indirect-jump misprediction rate)", ops);

    const ParallelRunner runner;
    const std::vector<std::string> headline = bench::headlinePair();
    const std::vector<SharedTrace> headline_traces =
        bench::recordAll(headline, ops);
    SweepGrid headline_grid(headline_traces);

    // --- 1. History length sweep --------------------------------
    {
        const std::vector<unsigned> lengths = {4, 6, 9, 12, 16};
        // Entry count fixed at 512; longer histories fold through
        // the XOR index.
        std::vector<SweepColumn> columns;
        for (unsigned length : lengths)
            columns.push_back({taglessGshare(patternHistory(length))});
        const auto cells = headline_grid.accuracy(columns);
        Table table;
        table.setHeader({"Benchmark", "h=4", "h=6", "h=9", "h=12",
                         "h=16"});
        for (size_t w = 0; w < headline.size(); ++w) {
            std::vector<std::string> row = {headline[w]};
            for (size_t k = 0; k < lengths.size(); ++k)
                row.push_back(formatPercent(
                    cells[w * lengths.size() + k].indirectJumps.missRate(),
                    1));
            table.addRow(row);
        }
        std::printf("[history length, tagless gshare 512]\n%s\n",
                    table.render().c_str());
    }

    // --- 2. Structures at comparable budget -----------------------
    {
        const std::vector<std::pair<std::string, IndirectConfig>>
            structures = {
                {"tagless-512", taglessGshare()},
                {"tagged-256x4w", taggedConfig(
                                      TaggedIndexScheme::HistoryXor, 4)},
                {"cascaded", cascadedConfig()},
                {"oracle", oracleConfig()},
            };
        Table table;
        std::vector<std::string> header = {"Benchmark"};
        for (const auto &[label, config] : structures) {
            auto stack = buildStack(config);
            const uint64_t cost =
                stack.predictor ? stack.predictor->costBits() : 0;
            header.push_back(label + " (" + std::to_string(cost / 8) +
                             " B)");
        }
        table.setHeader(header);

        const auto &names = spec95Names();
        std::vector<SweepColumn> columns;
        for (const auto &[label, config] : structures)
            columns.push_back({config});
        const auto cells =
            SweepGrid(bench::recordAll(names, ops)).accuracy(columns);
        for (size_t w = 0; w < names.size(); ++w) {
            std::vector<std::string> row = {names[w]};
            for (size_t k = 0; k < structures.size(); ++k)
                row.push_back(formatPercent(
                    cells[w * structures.size() + k]
                        .indirectJumps.missRate(),
                    1));
            table.addRow(row);
        }
        std::printf("[structures at comparable budget]\n%s\n",
                    table.render().c_str());
    }

    // --- 3. C++ virtual dispatch (paper §5 future work) ----------
    {
        const SharedTrace trace = cachedTrace("cpp-virtual", ops);
        const std::vector<std::pair<std::string, IndirectConfig>>
            configs = {
                {"BTB", baselineConfig()},
                {"tagless-512", taglessGshare()},
                {"tagged-256x8w-h16",
                 taggedConfig(TaggedIndexScheme::HistoryXor, 8,
                              patternHistory(16))},
                {"cascaded", cascadedConfig()},
            };
        std::vector<SweepColumn> columns;
        for (const auto &[label, config] : configs)
            columns.push_back({config});
        const auto cells = SweepGrid({trace}).accuracy(columns);
        Table table;
        table.setHeader({"Predictor", "Mispred. rate"});
        for (size_t k = 0; k < configs.size(); ++k)
            table.addRow({configs[k].first,
                          formatPercent(
                              cells[k].indirectJumps.missRate(), 1)});
        std::printf("[cpp-virtual workload]\n%s\n",
                    table.render().c_str());
    }

    // --- 4. Seed sensitivity --------------------------------------
    {
        Table table;
        table.setHeader({"Benchmark", "BTB (5 seeds)",
                         "tagless (5 seeds)"});
        const size_t seed_ops = std::min<size_t>(ops, 400000);
        for (const auto &name : headline) {
            // sweepSeeds shards its seeds across the runner itself.
            auto btb = sweepSeeds(name, seed_ops, 5,
                                  indirectMissMetric(baselineConfig()));
            auto tc = sweepSeeds(name, seed_ops, 5,
                                 indirectMissMetric(taglessGshare()));
            table.addRow({name, btb.renderPercent(),
                          tc.renderPercent()});
        }
        std::printf("[seed sensitivity]\n%s\n",
                    table.render().c_str());
    }

    // --- 5. Tagless interference ----------------------------------
    {
        const std::vector<TaglessIndexScheme> schemes = {
            TaglessIndexScheme::GAg, TaglessIndexScheme::Gshare};
        const auto cells = runner.map<double>(
            headline.size() * schemes.size(), [&](size_t j) {
                TaglessConfig config;
                config.scheme = schemes[j % schemes.size()];
                config.entryBits = 9;
                config.historyBits = 9;
                TaglessTargetCache cache(config);
                HistoryTracker tracker(patternHistory(9));
                FrontendPredictor fe{FrontendConfig{}, &cache,
                                     &tracker};
                headline_traces[j / schemes.size()].forEachOp(
                    [&fe](const MicroOp &op) {
                        fe.onInstruction(op);
                    });
                return cache.stats().interferenceRate();
            });
        Table table;
        table.setHeader({"Benchmark", "GAg(9) interference",
                         "gshare interference"});
        for (size_t w = 0; w < headline.size(); ++w) {
            table.addRow({headline[w],
                          formatPercent(cells[w * 2], 1),
                          formatPercent(cells[w * 2 + 1], 1)});
        }
        std::printf("[tagless cross-branch interference: fraction of "
                    "probes reading another branch's entry]\n%s\n",
                    table.render().c_str());
    }

    // --- 6. Direction predictor baseline --------------------------
    {
        FrontendConfig tourney;
        tourney.direction = DirectionScheme::Tournament;
        const SweepColumn columns[] = {{taglessGshare()},
                                       {taglessGshare(), tourney}};
        const auto stats = headline_grid.accuracy(columns);
        Table table;
        table.setHeader({"Benchmark", "gshare dir miss",
                         "tournament dir miss", "ind miss (gshare fe)",
                         "ind miss (tournament fe)"});
        for (size_t w = 0; w < headline.size(); ++w) {
            const FrontendStats &g = stats[w * 2];
            const FrontendStats &t = stats[w * 2 + 1];
            table.addRow({headline[w],
                          formatPercent(g.condDirection.missRate(), 1),
                          formatPercent(t.condDirection.missRate(), 1),
                          formatPercent(g.indirectJumps.missRate(), 1),
                          formatPercent(t.indirectJumps.missRate(),
                                        1)});
        }
        std::printf("[direction scheme: the target cache result is "
                    "robust to the conditional predictor]\n%s\n",
                    table.render().c_str());
    }
    return 0;
}
