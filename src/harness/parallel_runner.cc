#include "harness/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "harness/run_options.hh"
#include "obs/metrics.hh"

namespace tpred
{

namespace
{

std::atomic<unsigned> g_default_jobs{0};

unsigned
envJobs()
{
    if (const char *env = std::getenv("TPRED_JOBS");
        env != nullptr && *env != '\0')
        return parseJobsValue(env, "TPRED_JOBS");
    return 0;
}

} // namespace

unsigned
defaultJobs()
{
    const unsigned overridden = g_default_jobs.load();
    if (overridden > 0)
        return overridden;
    static const unsigned from_env = envJobs();
    if (from_env > 0)
        return from_env;
    return std::max(1u, std::thread::hardware_concurrency());
}

void
setDefaultJobs(unsigned jobs)
{
    g_default_jobs.store(jobs);
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads > 0 ? threads : defaultJobs())
{
}

void
ParallelRunner::forEach(size_t count,
                        const std::function<void(size_t)> &job) const
{
    // Deterministic by construction: batch/job totals depend only on
    // the work requested, never on how it is scheduled.
    static const obs::Counter batches =
        obs::globalMetrics().counter("runner.batches");
    static const obs::Counter jobs =
        obs::globalMetrics().counter("runner.jobs");
    batches.inc();
    jobs.inc(count);

    const size_t workers = std::min<size_t>(threads_, count);
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            job(i);
        return;
    }

    // Indices are handed out in increasing order, so when job i fails
    // every lower index has already been taken and runs to the end:
    // stopping the hand-out there still finds the lowest failure.
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    size_t error_index = count;
    std::exception_ptr error;
    const auto work = [&] {
        for (size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
            try {
                job(i);
            } catch (...) {
                next.store(count);
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
    };
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(workers - 1);
        for (size_t t = 1; t < workers; ++t)
            helpers.emplace_back(work);
        work();
    }  // joins the helpers
    if (error)
        std::rethrow_exception(error);
}

} // namespace tpred
