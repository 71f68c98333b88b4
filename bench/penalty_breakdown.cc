/**
 * @file
 * Where does the time go?  Fetch-stall cycles attributed to the
 * mispredicted branch kind that caused them, per benchmark and
 * predictor — the decomposition behind the paper's execution-time
 * reductions: the target cache can only recover the indirect share.
 */

#include "bench_util.hh"
#include "harness/sweep_kernel.hh"
#include "workloads/workload.hh"

using namespace tpred;

namespace
{

std::string
pct(uint64_t part, uint64_t whole)
{
    return formatPercent(
        whole ? static_cast<double>(part) / static_cast<double>(whole)
              : 0.0,
        1);
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t ops =
        bench::setup(argc, argv, kDefaultTimingOps).ops;
    bench::heading("Misprediction-penalty breakdown (fetch-stall "
                   "cycles as % of total cycles)",
                   ops);

    const std::vector<std::pair<std::string, IndirectConfig>> configs = {
        {"BTB-only baseline", baselineConfig()},
        {"with 512-entry target cache", taglessGshare()},
    };
    const auto &names = spec95Names();
    // One fused timing sweep per workload: both configs share one
    // core trajectory until they diverge (harness/sweep_kernel.hh).
    std::vector<SweepColumn> columns;
    for (const auto &[label, config] : configs)
        columns.push_back({config});
    const auto results =
        SweepGrid(bench::recordAll(names, ops)).timing(columns);
    for (size_t c = 0; c < configs.size(); ++c) {
        Table table;
        table.setHeader({"Benchmark", "cond", "indirect", "return",
                         "uncond/call", "all stalls", "IPC"});
        for (size_t w = 0; w < names.size(); ++w) {
            const std::string &name = names[w];
            const CoreResult &r = results[w * configs.size() + c];
            const auto &s = r.stallCyclesByKind;
            const uint64_t cond =
                s[static_cast<size_t>(BranchKind::CondDirect)];
            const uint64_t ret =
                s[static_cast<size_t>(BranchKind::Return)];
            const uint64_t uncond =
                s[static_cast<size_t>(BranchKind::UncondDirect)] +
                s[static_cast<size_t>(BranchKind::Call)];
            uint64_t all = 0;
            for (uint64_t v : s)
                all += v;
            char ipc[16];
            std::snprintf(ipc, sizeof(ipc), "%.2f", r.ipc());
            table.addRow({name, pct(cond, r.cycles),
                          pct(r.indirectStallCycles(), r.cycles),
                          pct(ret, r.cycles), pct(uncond, r.cycles),
                          pct(all, r.cycles), ipc});
        }
        std::printf("[%s]\n%s\n", configs[c].first.c_str(),
                    table.render().c_str());
    }
    std::printf("The indirect column is the pool of cycles a target "
                "predictor can recover; the cond column bounds what "
                "better direction prediction would add.\n");
    return 0;
}
