/**
 * @file
 * Figures 1-8 ("Number of Targets per Indirect Jump") as a render
 * function: the body of bench/fig1_8_target_histograms.cc, which has
 * no library counterpart.  `run.py --record-expected` checks that this
 * text matches the binary's output byte for byte.
 */

#ifndef TPRED_BENCH_E2E_FIG1_8_HH
#define TPRED_BENCH_E2E_FIG1_8_HH

#include <string>

#include "common/stats.hh"
#include "harness/parallel_runner.hh"
#include "harness/trace_cache.hh"
#include "trace/trace_stats.hh"
#include "workloads/workload.hh"

namespace tpred::e2e
{

/** The figure blocks of every SPECint95 analogue, in paper order. */
inline std::string
renderTargetHistograms(size_t ops)
{
    const auto &names = spec95Names();
    const auto blocks = ParallelRunner().map<std::string>(
        names.size(), [&](size_t w) {
            const std::string &name = names[w];
            TraceProfile profile;
            cachedTrace(name, ops).forEachOp([&](const MicroOp &op) {
                profile.counts.observe(op);
                profile.targets.observe(op);
            });
            const Histogram hist = profile.targets.buildHistogram();
            return hist.render("Figure (" + name + "): % of dynamic "
                               "indirect jumps by targets of their "
                               "static site") +
                   "\n  static sites: " +
                   std::to_string(profile.targets.staticSites()) +
                   ", dynamic indirect jumps: " +
                   formatCount(profile.targets.dynamicJumps()) + "\n\n";
        });
    std::string out;
    for (const auto &block : blocks)
        out += block;
    return out;
}

} // namespace tpred::e2e

#endif // TPRED_BENCH_E2E_FIG1_8_HH
