/**
 * @file
 * Shared immutable trace cache: memoizes recordWorkload() so each
 * (workload, seed, ops) trace is generated exactly once per process,
 * even under concurrent access, and every consumer shares the same
 * underlying columnar storage.  This is what makes the parallel
 * experiment engine cheap — a table sweeping 25 configs over one
 * trace records that trace once, not 25 times.  See
 * docs/parallelism.md.
 */

#ifndef TPRED_HARNESS_TRACE_CACHE_HH
#define TPRED_HARNESS_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <string_view>

#include "corpus/corpus.hh"
#include "harness/experiment.hh"
#include "obs/metrics.hh"

namespace tpred
{

/**
 * Mutex-guarded memo from (workload, seed, ops) to a recorded
 * SharedTrace, keyed by CorpusKey.
 *
 * Thread safety: get() may be called concurrently from any number of
 * threads.  The first caller for a key claims it under the mutex and
 * records the trace outside it; later callers for the same key block
 * on a shared future instead of re-recording.  Cached traces stay
 * alive until clear(); SharedTrace handles already handed out remain
 * valid past clear() because the storage is reference-counted.
 *
 * Second-level cache: when a CorpusManager is attached (explicitly or
 * via $TPRED_CORPUS_DIR for the global cache), a memo miss first
 * tries the on-disk corpus — a validated hit is adopted zero-copy
 * without running the workload generator, and a freshly generated
 * trace is persisted back (best effort) for future processes.
 *
 * Branch-stream tier: getStream() resolves the dense BranchStream
 * for a key through three levels — stream memo, then the corpus's
 * ".tpbs" stream container (zero-copy mmap, no CompactTrace decode
 * at all), then extraction from the (possibly itself corpus-served)
 * trace, persisting the extraction back for future warm runs.  A
 * corpus trace hit additionally adopts any stored stream into the
 * trace's lazy stream cache, so trace.branchStream() consumers
 * (runSweep, runTimingSweep) skip extraction on warm runs too.
 */
class TraceCache
{
  public:
    /**
     * @param metrics Registry the "trace_cache.*" counters report
     *        into; nullptr gives this cache a private registry (so
     *        tests see per-instance counts).  The global cache uses
     *        obs::globalMetrics() so run reports include it.
     */
    explicit TraceCache(obs::MetricsRegistry *metrics = nullptr);

    /** Returns the memoized trace, recording it on first request. */
    SharedTrace get(std::string_view workload, size_t ops,
                    uint64_t seed = 1);

    /**
     * Returns the dense branch stream for (workload, ops, seed):
     * memo -> stream corpus (zero-copy, skipping trace decode
     * entirely) -> extraction from get()'s trace.  Accuracy-only
     * consumers (fused sweeps, the autotuner) should prefer this
     * over get(): on a warm corpus it never touches the
     * CompactTrace.
     */
    std::shared_ptr<const BranchStream>
    getStream(std::string_view workload, size_t ops, uint64_t seed = 1);

    /** Registry holding this cache's "trace_cache.*" counters. */
    obs::MetricsRegistry &metricsRegistry() const { return *metrics_; }

    /**
     * Attaches (or detaches, with nullptr) the second-level disk
     * corpus consulted on memo misses.
     */
    void attachCorpus(std::shared_ptr<CorpusManager> corpus);

    /** The attached corpus, or nullptr. */
    std::shared_ptr<CorpusManager> corpus() const;

    /** Number of traces actually generated (not served from disk). */
    size_t recordings() const;

    /** Number of traces currently memoized. */
    size_t size() const;

    /** Drops every memoized trace (handed-out handles stay valid). */
    void clear();

  private:
    template <typename T>
    using Memo = std::map<CorpusKey, std::shared_future<T>>;

    /**
     * Returns @p memo's value for @p key.  The first caller claims the
     * key under the mutex, counts @p misses and runs @p resolve outside
     * it; later callers count @p hits, log @p hit_event and wait on
     * the claimant's shared future.  A failed resolve is un-memoized
     * before its waiters see the exception, so a retry starts afresh.
     */
    template <typename T, typename Resolve>
    T claimOrWait(Memo<T> &memo, const CorpusKey &key,
                  const obs::Counter &misses, const obs::Counter &hits,
                  const char *hit_event, Resolve &&resolve);

    /** Memo-miss path: corpus load, else generate (and persist). */
    SharedTrace acquire(const CorpusKey &key);

    /** Stream-memo-miss path: stream corpus, else extract+persist. */
    std::shared_ptr<const BranchStream>
    acquireStream(const CorpusKey &key);

    mutable std::mutex mutex_;
    Memo<SharedTrace> memo_;
    Memo<std::shared_ptr<const BranchStream>> streamMemo_;
    std::shared_ptr<CorpusManager> corpus_;

    std::unique_ptr<obs::MetricsRegistry> owned_;  ///< when unshared
    obs::MetricsRegistry *metrics_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter corpusHits_;
    obs::Counter recordings_;
    obs::Counter bytesInserted_;
    obs::Counter streamHits_;
    obs::Counter streamMisses_;
    obs::Counter streamCorpusHits_;
    obs::Counter streamExtractions_;
};

/**
 * Process-wide cache shared by the harness and bench drivers.  On
 * first use, if $TPRED_CORPUS_DIR names a directory, a CorpusManager
 * over it is attached as the second-level cache; set $TPRED_VERBOSE
 * to log hit/miss/store traffic on stderr.
 */
TraceCache &globalTraceCache();

/** Shorthand for globalTraceCache().get(...). */
SharedTrace cachedTrace(std::string_view workload, size_t ops,
                        uint64_t seed = 1);

/** Shorthand for globalTraceCache().getStream(...). */
std::shared_ptr<const BranchStream>
cachedBranchStream(std::string_view workload, size_t ops,
                   uint64_t seed = 1);

} // namespace tpred

#endif // TPRED_HARNESS_TRACE_CACHE_HH
