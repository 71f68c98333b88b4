/**
 * @file
 * Parallel experiment engine: runs independent (workload x seed x
 * config) jobs across threads that take job indices from one shared
 * counter, with deterministic result ordering — results are keyed by
 * job index, never by completion order, so a parallel run is
 * bit-identical to a serial one.  See docs/parallelism.md.
 */

#ifndef TPRED_HARNESS_PARALLEL_RUNNER_HH
#define TPRED_HARNESS_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace tpred
{

/**
 * Process-wide default worker count used when a runner is constructed
 * with 0 threads: setDefaultJobs() if called, else the TPRED_JOBS
 * environment variable, else the hardware concurrency.
 */
unsigned defaultJobs();

/** Overrides defaultJobs(); 0 restores the automatic value. */
void setDefaultJobs(unsigned jobs);

/**
 * Runs an indexed batch of independent jobs across threads.
 *
 * Determinism contract: every job must be a pure function of its
 * index (plus immutable shared inputs such as cached traces), and
 * results are stored at their job's index, so output is independent
 * of thread count and scheduling.  With one thread, jobs run inline
 * on the calling thread, in index order.
 */
class ParallelRunner
{
  public:
    /** @param threads Worker count; 0 means defaultJobs(). */
    explicit ParallelRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Runs job(i) for every i in [0, count) and blocks until all
     * finish.  The calling thread and min(threads, count) - 1 spawned
     * threads take indices from one atomic counter.  If jobs throw,
     * no further index is started and the exception of the
     * lowest-index failing job is rethrown — the same one at every
     * thread count.
     */
    void forEach(size_t count,
                 const std::function<void(size_t)> &job) const;

    /**
     * forEach() collecting job(i) into a vector keyed by index.
     * T must be default-constructible.
     */
    template <typename T>
    std::vector<T>
    map(size_t count, const std::function<T(size_t)> &job) const
    {
        std::vector<T> results(count);
        forEach(count, [&](size_t i) { results[i] = job(i); });
        return results;
    }

  private:
    unsigned threads_;
};

} // namespace tpred

#endif // TPRED_HARNESS_PARALLEL_RUNNER_HH
