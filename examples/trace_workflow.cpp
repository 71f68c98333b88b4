/**
 * @file
 * Trace workflow: record a workload to a binary trace file, reload it,
 * and drill into which static sites cost the mispredictions — the
 * capture/replay/analyze loop a performance engineer would run.
 */

#include <cstdio>
#include <memory>

#include "common/stats.hh"
#include "harness/paper_tables.hh"
#include "harness/site_report.hh"
#include "trace/trace_io.hh"

using namespace tpred;

int
main(int argc, char **argv)
{
    const size_t ops = resolveOps(argc, argv, 400'000);
    const std::string path = "/tmp/tpred_example_gcc.tpr";

    // 1. Record the workload once and persist it.
    SharedTrace recorded = recordWorkload("gcc", ops);
    saveTraceFile(path, recorded.compact(), recorded.name());
    std::printf("recorded %s instructions of '%s' to %s\n",
                formatCount(recorded.size()).c_str(),
                recorded.name().c_str(), path.c_str());

    // 2. Reload it — experiments now replay the exact same stream.
    std::string name;
    CompactTrace loaded = loadCompactTraceFile(path, name);
    const SharedTrace trace(
        std::make_shared<const CompactTrace>(std::move(loaded)), name);
    std::printf("reloaded '%s' (%s instructions)\n\n", name.c_str(),
                formatCount(trace.size()).c_str());

    // 3. Attribute mispredictions to static sites, before and after.
    SiteReport before = analyzeSites(trace, baselineConfig());
    SiteReport after = analyzeSites(trace, taglessGshare());

    std::printf("BTB-only: %s misses over %s indirect jumps (%s)\n",
                formatCount(before.totalMisses).c_str(),
                formatCount(before.totalIndirect).c_str(),
                formatPercent(
                    static_cast<double>(before.totalMisses) /
                        static_cast<double>(before.totalIndirect),
                    1)
                    .c_str());
    std::printf("%s\n", before.render(5).c_str());

    std::printf("with target cache: %s misses (%s)\n",
                formatCount(after.totalMisses).c_str(),
                formatPercent(
                    static_cast<double>(after.totalMisses) /
                        static_cast<double>(after.totalIndirect),
                    1)
                    .c_str());
    std::printf("%s\n", after.render(5).c_str());

    std::remove(path.c_str());
    return 0;
}
