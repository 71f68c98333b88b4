#include "harness/trace_cache.hh"

#include <cstdio>
#include <cstdlib>

#include "corpus/corpus.hh"
#include "harness/run_options.hh"

namespace tpred
{

namespace
{

void
logTraffic(const char *event, const CorpusKey &key)
{
    if (verboseLogging())
        std::fprintf(stderr, "tpred-cache: %s %s ops=%zu seed=%llu\n",
                     event, key.workload.c_str(), key.ops,
                     static_cast<unsigned long long>(key.seed));
}

} // namespace

TraceCache::TraceCache(obs::MetricsRegistry *metrics)
    : owned_(metrics == nullptr
                 ? std::make_unique<obs::MetricsRegistry>()
                 : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_.get()),
      hits_(metrics_->counter("trace_cache.hits")),
      misses_(metrics_->counter("trace_cache.misses")),
      corpusHits_(metrics_->counter("trace_cache.corpus_hits")),
      recordings_(metrics_->counter("trace_cache.recordings")),
      bytesInserted_(metrics_->counter("trace_cache.bytes_inserted")),
      streamHits_(metrics_->counter("trace_cache.stream_hits")),
      streamMisses_(metrics_->counter("trace_cache.stream_misses")),
      streamCorpusHits_(
          metrics_->counter("trace_cache.stream_corpus_hits")),
      streamExtractions_(
          metrics_->counter("trace_cache.stream_extractions"))
{
}

template <typename T, typename Resolve>
T
TraceCache::claimOrWait(Memo<T> &memo, const CorpusKey &key,
                        const obs::Counter &misses,
                        const obs::Counter &hits, const char *hit_event,
                        Resolve &&resolve)
{
    std::promise<T> promise;
    std::shared_future<T> future;
    bool claimed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = memo.try_emplace(key);
        if (inserted) {
            it->second = promise.get_future().share();
            claimed = true;
        }
        future = it->second;
    }
    if (!claimed) {
        hits.inc();
        logTraffic(hit_event, key);
        return future.get();
    }
    misses.inc();
    try {
        promise.set_value(resolve(key));
    } catch (...) {
        // Un-memoize so a later retry isn't poisoned, then let the
        // waiters (and this caller, via get()) see the exception.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            memo.erase(key);
        }
        promise.set_exception(std::current_exception());
    }
    return future.get();
}

SharedTrace
TraceCache::acquire(const CorpusKey &key)
{
    std::shared_ptr<CorpusManager> corpus = this->corpus();
    if (corpus) {
        std::string name;
        if (auto trace = corpus->load(key, &name)) {
            corpusHits_.inc();
            bytesInserted_.inc(trace->residentBytes());
            logTraffic("corpus-hit", key);
            // Warm runs also get the derived branch stream for free:
            // adopting the stored container into the trace's lazy
            // stream cache lets branchStream() consumers (runSweep,
            // runTimingSweep) skip the extraction pass entirely.
            if (auto stream = corpus->loadStream(key))
                trace->adoptBranchStream(*stream);
            return SharedTrace(std::move(trace),
                               name.empty() ? key.workload : name);
        }
    }

    recordings_.inc();
    logTraffic("generate", key);
    SharedTrace trace = recordWorkload(key.workload, key.ops, key.seed);
    bytesInserted_.inc(trace.compact().residentBytes());

    if (corpus) {
        // Best effort: a full disk must not fail the experiment.
        try {
            corpus->store(key, trace.compact(), trace.name());
            logTraffic("corpus-store", key);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "tpred-cache: corpus store failed: %s\n",
                         e.what());
        }
    }
    return trace;
}

SharedTrace
TraceCache::get(std::string_view workload, size_t ops, uint64_t seed)
{
    return claimOrWait(memo_, CorpusKey{std::string(workload), seed, ops},
                       misses_, hits_, "memo-hit",
                       [this](const CorpusKey &key) {
                           return acquire(key);
                       });
}

std::shared_ptr<const BranchStream>
TraceCache::acquireStream(const CorpusKey &key)
{
    std::shared_ptr<CorpusManager> corpus = this->corpus();
    if (corpus) {
        if (auto stream = corpus->loadStream(key)) {
            streamCorpusHits_.inc();
            logTraffic("stream-corpus-hit", key);
            return stream;
        }
    }

    // No stored stream: extract from the trace (which may itself be
    // served from the corpus or memo).  The copy shares the trace's
    // column backing, so it stays valid past clear().
    streamExtractions_.inc();
    logTraffic("stream-extract", key);
    SharedTrace trace = get(key.workload, key.ops, key.seed);
    auto stream = std::make_shared<const BranchStream>(
        trace.compact().branchStream());

    if (corpus) {
        // Best effort: a full disk must not fail the experiment.
        try {
            corpus->storeStream(key, *stream, trace.name());
            logTraffic("stream-store", key);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "tpred-cache: stream store failed: %s\n",
                         e.what());
        }
    }
    return stream;
}

std::shared_ptr<const BranchStream>
TraceCache::getStream(std::string_view workload, size_t ops,
                      uint64_t seed)
{
    return claimOrWait(streamMemo_,
                       CorpusKey{std::string(workload), seed, ops},
                       streamMisses_, streamHits_, "stream-memo-hit",
                       [this](const CorpusKey &key) {
                           return acquireStream(key);
                       });
}

void
TraceCache::attachCorpus(std::shared_ptr<CorpusManager> corpus)
{
    std::lock_guard<std::mutex> lock(mutex_);
    corpus_ = std::move(corpus);
}

std::shared_ptr<CorpusManager>
TraceCache::corpus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corpus_;
}

size_t
TraceCache::recordings() const
{
    const obs::MetricsSnapshot snap = metrics_->snapshot();
    const auto it = snap.counters.find("trace_cache.recordings");
    return it != snap.counters.end() ? it->second : 0;
}

size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memo_.size();
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.clear();
    streamMemo_.clear();
}

TraceCache &
globalTraceCache()
{
    static TraceCache cache{&obs::globalMetrics()};
    static const bool attached = [] {
        const char *dir = std::getenv("TPRED_CORPUS_DIR");
        if (dir == nullptr || *dir == '\0')
            return false;
        try {
            cache.attachCorpus(std::make_shared<CorpusManager>(
                dir, &obs::globalMetrics()));
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "tpred-cache: ignoring TPRED_CORPUS_DIR: "
                         "%s\n",
                         e.what());
            return false;
        }
        return true;
    }();
    (void)attached;
    return cache;
}

SharedTrace
cachedTrace(std::string_view workload, size_t ops, uint64_t seed)
{
    return globalTraceCache().get(workload, ops, seed);
}

std::shared_ptr<const BranchStream>
cachedBranchStream(std::string_view workload, size_t ops,
                   uint64_t seed)
{
    return globalTraceCache().getStream(workload, ops, seed);
}

} // namespace tpred
