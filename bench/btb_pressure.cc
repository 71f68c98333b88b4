/**
 * @file
 * BTB-pressure bench: the hierarchy x workload grid behind the
 * two-level BTB extension (docs/btb_hierarchy.md).
 *
 * Three hierarchy presets — the default 1K single-level BTB, a
 * 64-entry nano BTB, and the 64-entry L1 + 8K L2 two-level shape —
 * run against SPECint95-like and server-shaped workloads.  Server
 * code footprints overflow a small L1, so the grid shows where the
 * second level recovers BTB hit rate and BTB-miss fetch stalls that
 * SPECint-sized working sets never expose.
 *
 * Thin wrapper over renderBtbPressure(); the grid runs on the
 * parallel experiment engine.
 */

#include "bench_util.hh"

using namespace tpred;

int
main(int argc, char **argv)
{
    const size_t ops = bench::setup(argc, argv, kDefaultTimingOps).ops;
    bench::heading("BTB hierarchy pressure: SPECint95-like vs "
                   "server-shaped footprints",
                   ops);
    std::printf("paper-style grid (renderBtbPressure):\n%s\n",
                renderBtbPressure({.ops = ops}).c_str());
    return 0;
}
