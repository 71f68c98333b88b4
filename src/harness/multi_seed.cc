#include "harness/multi_seed.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness/parallel_runner.hh"
#include "harness/trace_cache.hh"

namespace tpred
{

SeedSweepResult
summarize(std::vector<double> samples)
{
    SeedSweepResult result;
    result.samples = std::move(samples);
    if (result.samples.empty())
        return result;

    double sum = 0.0;
    result.min = result.samples.front();
    result.max = result.samples.front();
    for (double s : result.samples) {
        sum += s;
        result.min = std::min(result.min, s);
        result.max = std::max(result.max, s);
    }
    result.mean = sum / static_cast<double>(result.samples.size());

    if (result.samples.size() > 1) {
        double sq = 0.0;
        for (double s : result.samples)
            sq += (s - result.mean) * (s - result.mean);
        result.stddev = std::sqrt(
            sq / static_cast<double>(result.samples.size() - 1));
    }
    return result;
}

std::string
SeedSweepResult::renderPercent(int precision) const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%% ± %.*f%%", precision,
                  mean * 100.0, precision, stddev * 100.0);
    return buf;
}

SeedSweepResult
sweepSeeds(const std::string &workload, size_t ops, unsigned num_seeds,
           const std::function<double(const SharedTrace &)> &metric)
{
    std::vector<double> samples = ParallelRunner().map<double>(
        num_seeds, [&](size_t i) {
            const SharedTrace trace = cachedTrace(
                workload, ops, static_cast<uint64_t>(i) + 1);
            return metric(trace);
        });
    return summarize(std::move(samples));
}

std::function<double(const SharedTrace &)>
indirectMissMetric(const IndirectConfig &config)
{
    return [config](const SharedTrace &trace) {
        return runAccuracy(trace, config).indirectJumps.missRate();
    };
}

} // namespace tpred
