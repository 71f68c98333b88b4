/** @file Shared helpers for the paper-table bench binaries. */

#ifndef TPRED_BENCH_BENCH_UTIL_HH
#define TPRED_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "core/frontend_predictor.hh"
#include "harness/paper_tables.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_options.hh"
#include "harness/trace_cache.hh"
#include "obs/run_report.hh"
#include "workloads/workload.hh"

namespace tpred::bench
{

namespace detail
{
/** State for the at-exit report writer wired up by setup(). */
struct PendingReport
{
    std::string tool;
    std::string path;
    size_t ops = 0;
};

inline PendingReport &
pendingReport()
{
    static PendingReport pending;
    return pending;
}
} // namespace detail

/**
 * One-call bench setup: parses the shared option vocabulary (env +
 * argv, fail-loud) and applies the process-wide effects (job count,
 * verbosity, corpus attachment).  Recognized flags and the positional
 * instruction count are consumed from argv.
 *
 * When a report path is set (`--report` / `TPRED_REPORT`), a
 * tpred-run-report/1 document with the run's config and process
 * metrics is written there at exit — every bench gets the report
 * surface without per-main plumbing.
 */
inline RunOptions
setup(int &argc, char **argv, size_t fallback_ops)
{
    RunOptions opts =
        RunOptions::fromEnvAndArgv(argc, argv, fallback_ops);
    opts.apply();
    if (!opts.reportPath.empty()) {
        detail::PendingReport &pending = detail::pendingReport();
        std::string tool = argv[0] != nullptr ? argv[0] : "bench";
        const size_t slash = tool.find_last_of('/');
        if (slash != std::string::npos)
            tool = tool.substr(slash + 1);
        pending.tool = tool;
        pending.path = opts.reportPath;
        pending.ops = opts.ops;
        // Construct the global registry *before* registering the
        // handler so it is destroyed after the handler runs.
        (void)obs::globalMetrics();
        std::atexit(+[] {
            const detail::PendingReport &p = detail::pendingReport();
            obs::RunReport report(p.tool);
            report.setConfig("ops", static_cast<uint64_t>(p.ops));
            try {
                report.captureProcess();
                report.write(p.path);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
            }
        });
    }
    return opts;
}

/**
 * Records one trace per named workload at the requested length,
 * through the shared trace cache, sharded across the runner.
 */
inline std::vector<SharedTrace>
recordAll(const std::vector<std::string> &names, size_t ops)
{
    const ParallelRunner runner;
    return runner.map<SharedTrace>(names.size(), [&](size_t i) {
        return cachedTrace(names[i], ops);
    });
}

/** The paper's headline pair (sections 4.2-4.4 report these two). */
inline std::vector<std::string>
headlinePair()
{
    return headlineWorkloads();
}

/** Prints a heading in the style used by all bench binaries. */
inline void
heading(const std::string &title, size_t ops)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("   (synthetic SPECint95-like workloads, %s "
                "instructions each; see DESIGN.md)\n\n",
                formatCount(ops).c_str());
}

/** Field-by-field equality of two frontend statistic sets. */
inline bool
sameFrontendStats(const FrontendStats &a, const FrontendStats &b)
{
    auto ratio_eq = [](const RatioStat &x, const RatioStat &y) {
        return x.hits() == y.hits() && x.total() == y.total();
    };
    return a.instructions == b.instructions &&
           ratio_eq(a.allBranches, b.allBranches) &&
           ratio_eq(a.condDirection, b.condDirection) &&
           ratio_eq(a.condBranches, b.condBranches) &&
           ratio_eq(a.uncondDirect, b.uncondDirect) &&
           ratio_eq(a.indirectJumps, b.indirectJumps) &&
           ratio_eq(a.returns, b.returns) &&
           ratio_eq(a.btbHits, b.btbHits);
}

} // namespace tpred::bench

#endif // TPRED_BENCH_BENCH_UTIL_HH
