#include "harness/site_report.hh"

#include <algorithm>
#include <cstdio>

#include "common/stats.hh"
#include "common/table.hh"

namespace tpred
{

SiteReport
analyzeSites(const SharedTrace &trace, const IndirectConfig &config,
             const FrontendConfig &fe)
{
    PredictorStack stack = buildStack(config);
    FrontendPredictor frontend(fe, stack.predictor.get(),
                               stack.tracker.get());

    struct Accum
    {
        uint64_t executions = 0;
        uint64_t misses = 0;
        std::unordered_set<uint64_t> targets;
    };
    std::unordered_map<uint64_t, Accum> sites;

    SiteReport report;
    // Non-branch ops never appear in the report.
    frontend.replayBranches(
        trace.compact(),
        [&](const MicroOp &op, const PredictionOutcome &outcome) {
            if (!isIndirectNonReturn(op.branch))
                return;
            Accum &accum = sites[op.pc];
            ++accum.executions;
            accum.targets.insert(op.nextPc);
            ++report.totalIndirect;
            if (!outcome.correct) {
                ++accum.misses;
                ++report.totalMisses;
            }
        });

    report.sites.reserve(sites.size());
    for (const auto &[pc, accum] : sites) {
        SiteRecord record;
        record.pc = pc;
        record.executions = accum.executions;
        record.mispredictions = accum.misses;
        record.distinctTargets = accum.targets.size();
        report.sites.push_back(record);
    }
    std::sort(report.sites.begin(), report.sites.end(),
              [](const SiteRecord &a, const SiteRecord &b) {
                  return a.mispredictions > b.mispredictions;
              });
    return report;
}

std::string
SiteReport::render(size_t top_n) const
{
    Table table;
    table.setHeader({"site", "executions", "targets", "misses",
                     "miss rate", "% of all misses"});
    const size_t n = std::min(top_n, sites.size());
    for (size_t i = 0; i < n; ++i) {
        const SiteRecord &site = sites[i];
        char pc_hex[32];
        std::snprintf(pc_hex, sizeof(pc_hex), "0x%llx",
                      static_cast<unsigned long long>(site.pc));
        table.addRow({pc_hex, formatCount(site.executions),
                      std::to_string(site.distinctTargets),
                      formatCount(site.mispredictions),
                      formatPercent(site.missRate(), 1),
                      formatPercent(
                          totalMisses
                              ? static_cast<double>(
                                    site.mispredictions) /
                                    static_cast<double>(totalMisses)
                              : 0.0,
                          1)});
    }
    return table.render();
}

} // namespace tpred
