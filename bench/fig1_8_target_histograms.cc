/**
 * @file
 * Figures 1-8: "Number of Targets per Indirect Jump" — for each
 * benchmark, the distribution of dynamic indirect jumps over the
 * number of distinct targets their static site exhibits, with the
 * paper's ">=30" overflow bucket.  The render body lives in
 * e2e/fig1_8.hh, shared with the end-to-end benchmark driver.
 */

#include "bench_util.hh"
#include "e2e/fig1_8.hh"

using namespace tpred;

int
main(int argc, char **argv)
{
    const size_t ops =
        bench::setup(argc, argv, kDefaultAccuracyOps).ops;
    bench::heading("Figures 1-8: number of targets per indirect jump",
                   ops);
    std::printf("%s", e2e::renderTargetHistograms(ops).c_str());
    return 0;
}
