/**
 * @file
 * Tests for the parallel experiment engine: the runner's contract
 * (every index once, deterministic errors, nesting), determinism
 * (bit-identical results at any thread count), and resolve-exactly-
 * once behaviour of the shared trace cache's trace and stream memos.
 * These run under `ctest -L tsan` in a TPRED_SANITIZE=thread build.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/multi_seed.hh"
#include "harness/paper_tables.hh"
#include "harness/parallel_runner.hh"
#include "harness/trace_cache.hh"
#include "test_util.hh"

namespace tpred
{
namespace
{

TEST(ParallelRunner, MapKeysResultsByIndex)
{
    const ParallelRunner runner(8);
    const auto results = runner.map<size_t>(
        1000, [](size_t i) { return i * i; });
    ASSERT_EQ(results.size(), 1000u);
    for (size_t i = 0; i < results.size(); ++i)
        ASSERT_EQ(results[i], i * i);
}

TEST(ParallelRunner, SingleThreadRunsInline)
{
    const ParallelRunner runner(1);
    const auto caller = std::this_thread::get_id();
    runner.forEach(10, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelRunner, PropagatesJobExceptions)
{
    const ParallelRunner runner(4);
    EXPECT_THROW(runner.forEach(100,
                                [](size_t i) {
                                    if (i == 37)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
}

TEST(ParallelRunner, RunsEveryIndexExactlyOnce)
{
    // Threads both below and above the job count.
    for (unsigned threads : {1u, 3u, 8u, 64u}) {
        std::vector<std::atomic<int>> runs(40);
        ParallelRunner(threads).forEach(
            runs.size(), [&](size_t i) { runs[i].fetch_add(1); });
        for (size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1)
                << "threads=" << threads << " index " << i;
    }
}

TEST(ParallelRunner, ZeroCountRunsNothing)
{
    for (unsigned threads : {1u, 4u}) {
        std::atomic<int> runs{0};
        ParallelRunner(threads).forEach(0, [&](size_t) { ++runs; });
        EXPECT_EQ(runs.load(), 0) << "threads=" << threads;
        EXPECT_TRUE(ParallelRunner(threads)
                        .map<int>(0, [](size_t) { return 1; })
                        .empty());
    }
}

TEST(ParallelRunner, JobsCanRunNestedRunners)
{
    const ParallelRunner outer(4);
    const auto sums = outer.map<size_t>(8, [](size_t i) {
        const auto inner = ParallelRunner(3).map<size_t>(
            16, [i](size_t j) { return i * 16 + j; });
        size_t sum = 0;
        for (size_t v : inner)
            sum += v;
        return sum;
    });
    for (size_t i = 0; i < sums.size(); ++i)
        EXPECT_EQ(sums[i], i * 16 * 16 + 15 * 16 / 2) << i;
}

TEST(ParallelRunner, RethrowsLowestIndexFailureAtAnyThreadCount)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        try {
            ParallelRunner(threads).forEach(100, [](size_t i) {
                if (i == 13) {
                    // Fail last, so that with threads job 71 fails first.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    throw std::runtime_error("job 13");
                }
                if (i == 71)
                    throw std::runtime_error("job 71");
            });
            ADD_FAILURE() << "threads=" << threads << ": no exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 13") << "threads=" << threads;
        }
    }
}

TEST(ParallelRunner, DefaultJobsOverride)
{
    setDefaultJobs(3);
    EXPECT_EQ(defaultJobs(), 3u);
    EXPECT_EQ(ParallelRunner().threads(), 3u);
    setDefaultJobs(0);
    EXPECT_GE(defaultJobs(), 1u);
}

// --- Determinism: the tentpole contract ----------------------------

TEST(ParallelSweep, SeedSweepBitIdenticalAcrossThreadCounts)
{
    constexpr size_t kOps = 30000;
    constexpr unsigned kSeeds = 6;
    const auto metric = indirectMissMetric(taglessGshare());

    // Legacy serial ground truth: a plain loop, no runner involved.
    std::vector<double> legacy;
    for (unsigned seed = 1; seed <= kSeeds; ++seed)
        legacy.push_back(metric(cachedTrace("perl", kOps, seed)));

    for (unsigned threads : {1u, 2u, 8u}) {
        const test::ScopedJobs jobs(threads);
        const auto result = sweepSeeds("perl", kOps, kSeeds, metric);
        ASSERT_EQ(result.samples.size(), legacy.size())
            << "threads=" << threads;
        for (size_t i = 0; i < legacy.size(); ++i) {
            EXPECT_EQ(std::memcmp(&result.samples[i], &legacy[i],
                                  sizeof(double)),
                      0)
                << "threads=" << threads << " sample " << i
                << " not bit-identical";
        }
    }
}

TEST(ParallelSweep, SummaryStatsIdenticalAcrossThreadCounts)
{
    constexpr size_t kOps = 20000;
    const auto metric = indirectMissMetric(baselineConfig());
    const auto run = [&](unsigned threads) {
        const test::ScopedJobs jobs(threads);
        return sweepSeeds("gcc", kOps, 4, metric);
    };
    const auto serial = run(1);
    const auto parallel = run(8);
    EXPECT_EQ(std::memcmp(&serial.mean, &parallel.mean,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&serial.stddev, &parallel.stddev,
                          sizeof(double)),
              0);
    EXPECT_EQ(serial.renderPercent(), parallel.renderPercent());
}

// --- Trace cache ---------------------------------------------------

TEST(TraceCache, RecordsEachKeyExactlyOnceUnderConcurrentAccess)
{
    TraceCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<const CompactTrace *> storage(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &storage, t] {
            const SharedTrace trace = cache.get("gcc", 20000, 7);
            storage[t] = &trace.compact();
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(cache.recordings(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(storage[t], storage[0])
            << "consumers must share one columnar trace";
}

TEST(TraceCache, StreamResolvesEachKeyOnceUnderConcurrentAccess)
{
    TraceCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const BranchStream>> streams(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &streams, t] {
            streams[t] = cache.getStream("perl", 20000, 5);
        });
    }
    for (auto &thread : threads)
        thread.join();

    const auto counters = cache.metricsRegistry().snapshot().counters;
    EXPECT_EQ(counters.at("trace_cache.stream_extractions"), 1u);
    EXPECT_EQ(counters.at("trace_cache.stream_misses"), 1u);
    EXPECT_EQ(counters.at("trace_cache.stream_hits"), kThreads - 1);
    EXPECT_EQ(cache.recordings(), 1u);
    ASSERT_NE(streams[0], nullptr);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(streams[t], streams[0])
            << "consumers must share one branch stream";
}

TEST(TraceCache, DistinctKeysRecordSeparately)
{
    TraceCache cache;
    cache.get("compress", 10000, 1);
    cache.get("compress", 10000, 2);
    cache.get("compress", 10000, 1);  // hit
    EXPECT_EQ(cache.recordings(), 2u);
    cache.get("compress", 5000, 1);  // different length: new key
    EXPECT_EQ(cache.recordings(), 3u);
    EXPECT_EQ(cache.size(), 3u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get("compress", 10000, 1);  // re-recorded after clear
    EXPECT_EQ(cache.recordings(), 4u);
}

TEST(TraceCache, ConcurrentDistinctKeysAllRecorded)
{
    TraceCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, t] {
            cache.get("compress", 10000, t + 1);
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(cache.recordings(), kThreads);
    EXPECT_EQ(cache.size(), kThreads);
}

TEST(TraceCache, MatchesDirectRecording)
{
    TraceCache cache;
    const SharedTrace cached = cache.get("perl", 15000, 3);
    const SharedTrace direct = recordWorkload("perl", 15000, 3);
    ASSERT_EQ(cached.size(), direct.size());
    EXPECT_EQ(cached.name(), direct.name());
    const std::vector<MicroOp> cached_ops = cached.decodeOps();
    const std::vector<MicroOp> direct_ops = direct.decodeOps();
    for (size_t i = 0; i < cached.size(); ++i) {
        ASSERT_EQ(cached_ops[i].pc, direct_ops[i].pc);
        ASSERT_EQ(cached_ops[i].nextPc, direct_ops[i].nextPc);
    }
}

TEST(TraceCache, UnknownWorkloadThrowsAndIsNotPoisoned)
{
    TraceCache cache;
    EXPECT_THROW(cache.get("no-such-workload", 1000, 1),
                 std::invalid_argument);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_THROW(cache.get("no-such-workload", 1000, 1),
                 std::invalid_argument);
}

TEST(TraceCache, UnknownWorkloadStreamFailureDoesNotPoisonKey)
{
    TraceCache cache;
    for (int attempt = 0; attempt < 2; ++attempt)
        EXPECT_THROW(cache.getStream("no-such-workload", 1000, 1),
                     std::invalid_argument);
    // A poisoned key would serve the second attempt as a memo hit.
    const auto counters = cache.metricsRegistry().snapshot().counters;
    EXPECT_EQ(counters.at("trace_cache.stream_misses"), 2u);
    EXPECT_EQ(counters.at("trace_cache.stream_hits"), 0u);
    EXPECT_EQ(counters.at("trace_cache.misses"), 2u);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace tpred
