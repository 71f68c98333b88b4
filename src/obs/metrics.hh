/**
 * @file
 * Lightweight process metrics registry: named monotonic counters,
 * gauges, and wall/CPU timers with thread-local sharding.
 *
 * This is the one observability surface every layer reports through
 * (parallel runner, trace cache, corpus, experiment harness, core model)
 * instead of each keeping its own ad-hoc atomic-counter struct.  A
 * RunReport (run_report.hh) serializes a snapshot of the registry —
 * together with config and result tables — to deterministic JSON.
 *
 * Design rules:
 *
 *  - No locks on hot paths.  A handle increment is one relaxed
 *    fetch_add on a thread-local shard cell; registration (cold) and
 *    aggregation (end of run) take the registry mutex.
 *  - Deterministic vs runtime metrics are distinct kinds.  A
 *    Deterministic counter must reach the same value no matter how
 *    work is scheduled (serial vs `--jobs N`); a Runtime metric
 *    (steal counts, idle time, every timer) may not.  Reports keep
 *    the two in separate sections so determinism can be diffed.
 *  - Counters are monotonic; reset() exists for test isolation only.
 *
 * See docs/observability.md.
 */

#ifndef TPRED_OBS_METRICS_HH
#define TPRED_OBS_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace tpred::obs
{

class MetricsRegistry;

namespace detail
{
/** Shared registry state; handles co-own it (see MetricsRegistry). */
struct RegistryState;
} // namespace detail

/** How a metric behaves across schedules (see file comment). */
enum class MetricKind : uint8_t
{
    Deterministic,  ///< same value serial vs parallel, run to run
    Runtime,        ///< scheduling/timing dependent (informational)
};

/** Cheap copyable handle to one named monotonic counter. */
class Counter
{
  public:
    Counter() = default;

    /** Adds @p delta; lock-free, safe from any thread. */
    void inc(uint64_t delta = 1) const;

  private:
    friend class MetricsRegistry;
    Counter(std::shared_ptr<detail::RegistryState> state, uint32_t slot)
        : state_(std::move(state)), slot_(slot)
    {
    }
    std::shared_ptr<detail::RegistryState> state_;
    uint32_t slot_ = 0;
};

/** Handle to a last-write-wins (or running-max) gauge. */
class Gauge
{
  public:
    Gauge() = default;

    /** Stores @p value (last write wins). */
    void set(uint64_t value) const;

    /** Raises the gauge to @p value if it is higher. */
    void setMax(uint64_t value) const;

  private:
    friend class MetricsRegistry;
    Gauge(std::shared_ptr<detail::RegistryState> state, uint32_t slot)
        : state_(std::move(state)), slot_(slot)
    {
    }
    std::shared_ptr<detail::RegistryState> state_;
    uint32_t slot_ = 0;
};

/**
 * Handle to a named timer accumulating {count, wall ns, CPU ns}.
 * Timers are always Runtime metrics.  Use ScopedTimer to record a
 * scope; record() exists for manual (and deterministic-test) use.
 */
class Timer
{
  public:
    Timer() = default;

    /** Adds one sample of @p wall_ns / @p cpu_ns. */
    void record(uint64_t wall_ns, uint64_t cpu_ns = 0) const;

  private:
    friend class MetricsRegistry;
    friend class ScopedTimer;
    Timer(std::shared_ptr<detail::RegistryState> state, uint32_t slot)
        : state_(std::move(state)), slot_(slot)
    {
    }
    std::shared_ptr<detail::RegistryState> state_;
    uint32_t slot_ = 0;  ///< base of three consecutive cells
};

/**
 * RAII scope that records elapsed wall and thread-CPU time into a
 * Timer on destruction.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer timer);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Timer timer_;
    uint64_t wallStart_;
    uint64_t cpuStart_;
};

/** Aggregated value of one timer. */
struct TimerValue
{
    uint64_t count = 0;
    uint64_t wallNs = 0;
    uint64_t cpuNs = 0;
};

/** Point-in-time aggregation of a registry (sorted by name). */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;  ///< Deterministic kind
    std::map<std::string, uint64_t> runtime;   ///< Runtime kind
    std::map<std::string, uint64_t> gauges;
    std::map<std::string, TimerValue> timers;
};

/**
 * Registry of named metrics.
 *
 * Registration is idempotent: counter("x") returns a handle to the
 * same slot every time (use and kind are fixed by the first
 * registration; a mismatched re-registration throws).  Handles co-own
 * the registry's state block, so a handle that outlives its registry
 * keeps writing into a detached block nobody will ever snapshot —
 * harmless by construction, never a dangling pointer.
 *
 * Thread safety: all methods may be called concurrently.  Handle
 * operations never take the registry mutex; each thread accumulates
 * into its own shard and snapshot() sums the shards.
 */
class MetricsRegistry
{
  public:
    /** Capacity in cells (a timer takes three). */
    static constexpr size_t kMaxSlots = 512;

    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Registers (or finds) a monotonic counter. */
    Counter counter(std::string_view name,
                    MetricKind kind = MetricKind::Deterministic);

    /** Registers (or finds) a gauge. */
    Gauge gauge(std::string_view name);

    /** Registers (or finds) a timer (always Runtime). */
    Timer timer(std::string_view name);

    /** Sums every shard into a sorted snapshot. */
    MetricsSnapshot snapshot() const;

    /**
     * Zeroes every cell.  Counters are meant to be monotonic over a
     * process; this exists so tests (and golden-report generation)
     * can isolate themselves from earlier activity.
     */
    void reset();

  private:
    friend struct detail::RegistryState;

    enum class SlotUse : uint8_t { Counter, Gauge, TimerBase };

    uint32_t registerSlots(std::string_view name, SlotUse use,
                           MetricKind kind, uint32_t cells);

    std::shared_ptr<detail::RegistryState> state_;
};

/** Process-wide registry every production component reports into. */
MetricsRegistry &globalMetrics();

/**
 * Difference of two snapshots of the same registry (b - a,
 * per-metric; metrics absent from @p a count as zero).  Gauges are
 * taken from @p b unchanged.
 */
MetricsSnapshot snapshotDelta(const MetricsSnapshot &a,
                              const MetricsSnapshot &b);

} // namespace tpred::obs

#endif // TPRED_OBS_METRICS_HH
