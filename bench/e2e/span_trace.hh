/**
 * @file
 * Span recorder for the end-to-end benchmark driver.
 *
 * Spans are recorded from outside the library: the driver opens one
 * around each call it makes into a module's public functions.  Each
 * span keeps its name, start and end (CLOCK_MONOTONIC, shared by every
 * process on the host, so the setup and timed processes of one sample
 * land on one timeline), its parent, the recording thread, the sample
 * id, the process CPU time it covered, the delta of every metric in
 * obs::globalMetrics() between its two boundaries, and any values the
 * driver notes on it.
 *
 * Spans live in memory and are written out once, at exit, as Chrome
 * trace-event "complete" events (Perfetto opens them).  Recording is
 * main-thread only: the driver never opens a span inside a parallel
 * job, so spans nest strictly and a span's self time is its duration
 * minus its children's.
 */

#ifndef TPRED_BENCH_E2E_SPAN_TRACE_HH
#define TPRED_BENCH_E2E_SPAN_TRACE_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "obs/metrics.hh"

namespace tpred::e2e
{

inline uint64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Host-wide monotonic time: comparable across processes. */
inline uint64_t monotonicNs() { return clockNs(CLOCK_MONOTONIC); }

/** CPU time of every thread of this process. */
inline uint64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

/** JSON string literal for @p s (quotes included). */
inline std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

/**
 * Every registry value flattened to name -> number: counters of both
 * kinds by name, timers as name.count / name.wall_ns / name.cpu_ns.
 * Gauges are levels, not flows, and are left out.
 */
inline std::map<std::string, uint64_t>
flatten(const obs::MetricsSnapshot &snap)
{
    std::map<std::string, uint64_t> out(snap.counters.begin(),
                                        snap.counters.end());
    out.insert(snap.runtime.begin(), snap.runtime.end());
    for (const auto &[name, t] : snap.timers) {
        out[name + ".count"] = t.count;
        out[name + ".wall_ns"] = t.wallNs;
        out[name + ".cpu_ns"] = t.cpuNs;
    }
    return out;
}

/** Per-name difference b - a, keeping only names that moved. */
inline std::map<std::string, uint64_t>
delta(const std::map<std::string, uint64_t> &a,
      const std::map<std::string, uint64_t> &b)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] : b) {
        const auto it = a.find(name);
        const uint64_t before = it == a.end() ? 0 : it->second;
        if (value != before)
            out[name] = value - before;
    }
    return out;
}

/** In-memory span log of one process (see file comment). */
class SpanRecorder
{
  public:
    /** @param enabled false makes open()/close() no-ops. */
    SpanRecorder(bool enabled, uint64_t sample)
        : enabled_(enabled), sample_(sample)
    {
    }

    /** Starts a span nested in the innermost open one. */
    void
    open(std::string name)
    {
        if (!enabled_)
            return;
        Record r;
        r.name = std::move(name);
        r.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
        r.metrics = flatten(obs::globalMetrics().snapshot());
        r.cpuStart = processCpuNs();
        r.start = monotonicNs();
        stack_.push_back(spans_.size());
        spans_.push_back(std::move(r));
    }

    /** Ends the innermost open span. */
    void
    close()
    {
        if (!enabled_)
            return;
        Record &r = spans_[stack_.back()];
        stack_.pop_back();
        r.end = monotonicNs();
        r.cpuEnd = processCpuNs();
        r.metrics =
            delta(r.metrics, flatten(obs::globalMetrics().snapshot()));
    }

    /**
     * Adds @p value under @p name to the innermost open span's
     * arguments: a measurement the driver took around its own calls.
     */
    void
    note(const std::string &name, uint64_t value)
    {
        if (enabled_)
            spans_[stack_.back()].notes[name] += value;
    }

    /**
     * The spans as a JSON array of Chrome trace-event "X" events;
     * @p pid labels the process (setup or timed run).
     */
    std::string
    chromeEvents(int pid) const
    {
        const long tid = static_cast<long>(::gettid());
        std::string out = "[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Record &r = spans_[i];
            char head[256];
            std::snprintf(head, sizeof(head),
                          "%s\n{\"ph\": \"X\", \"cat\": \"tpred\", "
                          "\"pid\": %d, \"tid\": %ld, \"ts\": %.3f, "
                          "\"dur\": %.3f, \"name\": ",
                          i ? "," : "", pid, tid,
                          static_cast<double>(r.start) / 1e3,
                          static_cast<double>(r.end - r.start) / 1e3);
            out += head;
            out += jsonString(r.name);
            char args[256];
            std::snprintf(args, sizeof(args),
                          ", \"args\": {\"id\": %zu, \"parent\": %ld, "
                          "\"sample\": %" PRIu64 ", \"start_ns\": %" PRIu64
                          ", \"wall_ns\": %" PRIu64
                          ", \"cpu_ns\": %" PRIu64 ", \"delta\": {",
                          i, r.parent, sample_, r.start, r.end - r.start,
                          r.cpuEnd - r.cpuStart);
            out += args;
            bool first = true;
            for (const auto *values : {&r.metrics, &r.notes}) {
                for (const auto &[name, value] : *values) {
                    out += first ? "" : ", ";
                    out += jsonString(name) + ": " + std::to_string(value);
                    first = false;
                }
            }
            out += "}}}";
        }
        return out + "]";
    }

  private:
    struct Record
    {
        std::string name;
        long parent = -1;
        uint64_t start = 0;
        uint64_t end = 0;
        uint64_t cpuStart = 0;
        uint64_t cpuEnd = 0;
        /// Registry values at open(); their deltas once closed.
        std::map<std::string, uint64_t> metrics;
        std::map<std::string, uint64_t> notes;  ///< see note()
    };

    bool enabled_;
    uint64_t sample_;
    std::vector<Record> spans_;
    std::vector<size_t> stack_;
};

/** RAII span: open on construction, close on scope exit. */
class Span
{
  public:
    Span(SpanRecorder &rec, std::string name) : rec_(rec)
    {
        rec_.open(std::move(name));
    }
    ~Span() { rec_.close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder &rec_;
};

} // namespace tpred::e2e

#endif // TPRED_BENCH_E2E_SPAN_TRACE_HH
