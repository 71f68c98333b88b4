/**
 * @file
 * Tests for the obs metrics registry and run-report emitter: sharded
 * counter exactness under the thread pool, deterministic-counter
 * equality between serial and parallel schedules, the registry's
 * registration contract, and byte-stable RunReport JSON (golden
 * serialization, and a Table 4 run reproduced byte-identically after
 * timing masking).  Runs under `ctest -L tsan` in a
 * TPRED_SANITIZE=thread build.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "harness/paper_tables.hh"
#include "harness/parallel_runner.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"

namespace tpred
{
namespace
{

TEST(Metrics, CounterAccumulatesAndSnapshots)
{
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("test.count");
    c.inc();
    c.inc(41);
    const obs::MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.count("test.count"), 1u);
    EXPECT_EQ(snap.counters.at("test.count"), 42u);
    EXPECT_TRUE(snap.runtime.empty());
}

TEST(Metrics, RegistrationIsIdempotentByName)
{
    obs::MetricsRegistry reg;
    obs::Counter a = reg.counter("same");
    obs::Counter b = reg.counter("same");
    a.inc(2);
    b.inc(3);
    EXPECT_EQ(reg.snapshot().counters.at("same"), 5u);
}

TEST(Metrics, RuntimeKindLandsInRuntimeSection)
{
    obs::MetricsRegistry reg;
    reg.counter("det").inc(1);
    reg.counter("sched", obs::MetricKind::Runtime).inc(7);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.count("sched"), 0u);
    EXPECT_EQ(snap.runtime.at("sched"), 7u);
    EXPECT_EQ(snap.counters.at("det"), 1u);
}

TEST(Metrics, KindMismatchOnReregistrationThrows)
{
    obs::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.counter("x", obs::MetricKind::Runtime),
                 std::logic_error);
    reg.gauge("g");
    EXPECT_THROW(reg.counter("g"), std::logic_error);
}

TEST(Metrics, GaugeSetAndSetMax)
{
    obs::MetricsRegistry reg;
    obs::Gauge g = reg.gauge("g");
    g.set(10);
    g.set(4);
    EXPECT_EQ(reg.snapshot().gauges.at("g"), 4u);
    g.setMax(2);
    EXPECT_EQ(reg.snapshot().gauges.at("g"), 4u);
    g.setMax(9);
    EXPECT_EQ(reg.snapshot().gauges.at("g"), 9u);
}

TEST(Metrics, TimerAggregatesSamples)
{
    obs::MetricsRegistry reg;
    obs::Timer t = reg.timer("t");
    t.record(5, 3);
    t.record(7, 2);
    const obs::TimerValue v = reg.snapshot().timers.at("t");
    EXPECT_EQ(v.count, 2u);
    EXPECT_EQ(v.wallNs, 12u);
    EXPECT_EQ(v.cpuNs, 5u);
}

TEST(Metrics, ScopedTimerRecordsOneSample)
{
    obs::MetricsRegistry reg;
    obs::Timer t = reg.timer("scope");
    {
        obs::ScopedTimer timed(t);
    }
    EXPECT_EQ(reg.snapshot().timers.at("scope").count, 1u);
}

TEST(Metrics, ResetZeroesEverything)
{
    obs::MetricsRegistry reg;
    reg.counter("c").inc(9);
    reg.gauge("g").set(9);
    reg.timer("t").record(9, 9);
    reg.reset();
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("c"), 0u);
    EXPECT_EQ(snap.gauges.at("g"), 0u);
    EXPECT_EQ(snap.timers.at("t").count, 0u);
}

TEST(Metrics, HandleOutlivingRegistryIsHarmless)
{
    obs::Counter stale;
    {
        auto reg = std::make_unique<obs::MetricsRegistry>();
        stale = reg->counter("gone");
        stale.inc();
    }
    stale.inc(100);  // must not crash or corrupt anything
    obs::MetricsRegistry fresh;
    fresh.counter("alive").inc(1);
    EXPECT_EQ(fresh.snapshot().counters.at("alive"), 1u);
}

TEST(Metrics, SnapshotDeltaSubtractsPerMetric)
{
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("c");
    c.inc(10);
    const obs::MetricsSnapshot before = reg.snapshot();
    c.inc(5);
    reg.counter("late").inc(2);
    const obs::MetricsSnapshot delta =
        obs::snapshotDelta(before, reg.snapshot());
    EXPECT_EQ(delta.counters.at("c"), 5u);
    EXPECT_EQ(delta.counters.at("late"), 2u);
}

/** Sharded increments must be exact under concurrent hammering. */
TEST(Metrics, ExactUnderParallelRunner)
{
    obs::MetricsRegistry reg;
    obs::Counter c = reg.counter("hammer");
    constexpr size_t kJobs = 64;
    constexpr uint64_t kPerJob = 1000;
    const ParallelRunner runner(4);
    runner.forEach(kJobs, [&](size_t) {
        for (uint64_t i = 0; i < kPerJob; ++i)
            c.inc();
    });
    EXPECT_EQ(reg.snapshot().counters.at("hammer"), kJobs * kPerJob);
}

/**
 * The determinism contract end to end: the same experiment grid run
 * serially and with 4 workers must produce identical deterministic
 * counters (trace_cache.*, experiment.*, runner.*, core.*); only the
 * "runtime" metrics may differ.
 */
TEST(Metrics, DeterministicCountersAgreeSerialVsParallel)
{
    const auto run = [](unsigned threads) {
        obs::globalMetrics().reset();
        globalTraceCache().clear();
        const TableOptions opt{.ops = 20000, .threads = threads};
        (void)renderTable4(opt);
        return obs::globalMetrics().snapshot();
    };
    const obs::MetricsSnapshot serial = run(1);
    const obs::MetricsSnapshot parallel = run(4);
    EXPECT_EQ(serial.counters, parallel.counters);
    EXPECT_GT(serial.counters.at("sweep.batches"), 0u);
    EXPECT_GT(serial.counters.at("trace_cache.recordings"), 0u);
}

/** Pin the serialization format with a fully hand-built report. */
TEST(RunReport, GoldenJson)
{
    obs::MetricsRegistry reg;
    reg.counter("cache.hits").inc(3);
    reg.counter("sched.steals", obs::MetricKind::Runtime).inc(1);

    obs::RunReport report("golden");
    report.setConfig("workload", "perl");
    report.setConfig("ops", uint64_t{1000});
    report.setConfig("timing", false);
    report.addTable("t1", "a\tb\n");
    report.addWorkloadValue("perl", "miss_rate", 0.25, 4);
    report.addWorkloadValue("perl", "instructions", uint64_t{1000});
    report.capture(reg.snapshot());

    const std::string expected =
        "{\n"
        "  \"schema\": \"tpred-run-report/1\",\n"
        "  \"tool\": \"golden\",\n"
        "  \"config\": {\n"
        "    \"ops\": 1000,\n"
        "    \"timing\": false,\n"
        "    \"workload\": \"perl\"\n"
        "  },\n"
        "  \"metrics\": {\n"
        "    \"cache.hits\": 3\n"
        "  },\n"
        "  \"tables\": {\n"
        "    \"t1\": \"a\\tb\\n\"\n"
        "  },\n"
        "  \"workloads\": {\n"
        "    \"perl\": {\n"
        "      \"instructions\": 1000,\n"
        "      \"miss_rate\": 0.2500\n"
        "    }\n"
        "  },\n"
        "  \"runtime\": {\n"
        "    \"counters\": {\n"
        "      \"sched.steals\": 1\n"
        "    },\n"
        "    \"gauges\": {},\n"
        "    \"timers\": {},\n"
        "    \"info\": {},\n"
        "    \"resources\": {\"peak_rss_bytes\": 0}\n"
        "  }\n"
        "}\n";
    EXPECT_EQ(report.toJson(), expected);
}

/**
 * A small Table 4 run serialized twice must be byte-identical once
 * the timing data is masked — here by simply not capturing the timers
 * (the snapshot's runtime half is dropped before capture), which is
 * the same masking rule tools/report_lint.py applies.
 */
TEST(RunReport, Table4RunIsByteStable)
{
    const auto render = [] {
        obs::globalMetrics().reset();
        globalTraceCache().clear();
        const TableOptions opt{.ops = 20000, .threads = 1};
        const std::string table = renderTable4(opt);

        obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();
        snap.runtime.clear();  // timings zeroed: mask the
        snap.timers.clear();   // scheduling-dependent half
        snap.gauges.clear();

        obs::RunReport report("table4");
        report.setConfig("ops", uint64_t{20000});
        report.addTable("table4", table);
        report.capture(snap);
        return report.toJson();
    };
    const std::string first = render();
    const std::string second = render();
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"tpred-run-report/1\""), std::string::npos);
    EXPECT_NE(first.find("\"sweep.batches\""), std::string::npos);
}

/** The registry view is the only cache-effectiveness interface. */
TEST(RunReport, TraceCacheCountersLiveInRegistry)
{
    TraceCache cache;  // private registry: per-instance counts
    (void)cache.get("perl", 5000, 1);
    (void)cache.get("perl", 5000, 1);
    const obs::MetricsSnapshot snap =
        cache.metricsRegistry().snapshot();
    EXPECT_EQ(snap.counters.at("trace_cache.hits"), 1u);
    EXPECT_EQ(snap.counters.at("trace_cache.misses"), 1u);
    EXPECT_EQ(snap.counters.at("trace_cache.recordings"), 1u);
    EXPECT_EQ(cache.recordings(), 1u);
}

} // namespace
} // namespace tpred
