/**
 * @file
 * Multi-seed methodology support: every synthetic workload is a
 * deterministic function of its seed, so statistical confidence comes
 * from replicating an experiment across seeds and reporting the
 * spread — the harness-level equivalent of running several inputs per
 * SPEC benchmark.
 */

#ifndef TPRED_HARNESS_MULTI_SEED_HH
#define TPRED_HARNESS_MULTI_SEED_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

/** Summary statistics of one metric across seeds. */
struct SeedSweepResult
{
    std::vector<double> samples;
    double mean = 0.0;
    double stddev = 0.0;  ///< sample standard deviation
    double min = 0.0;
    double max = 0.0;

    /** "12.3% ± 0.4%" style rendering (values are fractions). */
    std::string renderPercent(int precision = 1) const;
};

/** Computes the summary statistics of @p samples. */
SeedSweepResult summarize(std::vector<double> samples);

/**
 * Records @p workload under @p num_seeds different seeds (through the
 * shared trace cache) and evaluates @p metric on each trace, sharding
 * the seeds across the parallel runner.  Samples are keyed by seed
 * index, so the result is bit-identical for any job count.
 *
 * @param metric Maps a recorded trace to the scalar under study (e.g.
 *        a misprediction rate or an execution-time reduction).
 */
SeedSweepResult
sweepSeeds(const std::string &workload, size_t ops, unsigned num_seeds,
           const std::function<double(const SharedTrace &)> &metric);

/** Convenience metric: indirect misprediction rate under @p config. */
std::function<double(const SharedTrace &)>
indirectMissMetric(const IndirectConfig &config);

} // namespace tpred

#endif // TPRED_HARNESS_MULTI_SEED_HH
