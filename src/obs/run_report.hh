/**
 * @file
 * Structured run reports: serializes one experiment run — tool and
 * config description, result tables, per-workload values, and a
 * MetricsRegistry snapshot — to deterministic JSON.
 *
 * Schema (tpred-run-report/1): every report has the same six
 * top-level sections, always present, keys emitted sorted:
 *
 *   {
 *     "schema":    "tpred-run-report/1",
 *     "tool":      "<binary name>",
 *     "config":    { semantic options: workload, ops, predictor... },
 *     "metrics":   { deterministic counters — identical for serial
 *                    and parallel runs of the same experiment },
 *     "tables":    { table name -> rendered text },
 *     "workloads": { workload -> { key -> number } },
 *     "runtime":   { scheduling/timing data: runtime counters,
 *                    gauges, timers, jobs, build info, peak RSS }
 *   }
 *
 * Determinism contract: two runs of the same tool with the same
 * semantic config produce byte-identical JSON outside the "runtime"
 * section and any key matching *_ns / *_mops / *_seconds.
 * tools/report_lint.py validates the schema, masks those volatile
 * fields, and diffs reports.  See docs/observability.md.
 */

#ifndef TPRED_OBS_RUN_REPORT_HH
#define TPRED_OBS_RUN_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hh"

namespace tpred::obs
{

/** Current value of the report "schema" field. */
inline constexpr const char *kRunReportSchema = "tpred-run-report/1";

class RunReport
{
  public:
    /**
     * @param tool Emitting binary's name ("tpredsim", bench name).
     * @param schema Value of the "schema" field.  Defaults to the run
     *        report schema; derived document kinds sharing the same
     *        six-section shape (the autotuner's tpred-tune-report/1)
     *        pass their own identifier.
     */
    explicit RunReport(std::string tool,
                       std::string schema = kRunReportSchema);

    /** Adds one semantic config entry (deterministic section). */
    void setConfig(std::string_view key, std::string_view value);
    void setConfig(std::string_view key, uint64_t value);
    void setConfig(std::string_view key, bool value);

    /** Keeps string literals off the bool overload. */
    void setConfig(std::string_view key, const char *value)
    {
        setConfig(key, std::string_view(value));
    }

    /** Adds a rendered result table (deterministic section). */
    void addTable(std::string_view name, std::string_view text);

    /** Adds one per-workload value (fixed precision). */
    void addWorkloadValue(std::string_view workload,
                          std::string_view key, double value,
                          int precision = 2);
    void addWorkloadValue(std::string_view workload,
                          std::string_view key, uint64_t value);

    /** Adds one runtime-info entry (jobs, build flavor, ...). */
    void setRuntimeInfo(std::string_view key, std::string_view value);
    void setRuntimeInfo(std::string_view key, uint64_t value);

    /**
     * Captures @p snap into the report: deterministic counters into
     * "metrics", runtime counters / gauges / timers into "runtime".
     */
    void capture(const MetricsSnapshot &snap);

    /** capture(reg.snapshot()), plus peak-RSS and build info. */
    void captureProcess(MetricsRegistry &reg = globalMetrics());

    /** Deterministic serialization (sorted keys, 2-space indent). */
    std::string toJson() const;

    /**
     * Writes toJson() to @p path.
     * @throws std::runtime_error when the file cannot be written.
     */
    void write(const std::string &path) const;

  private:
    std::string tool_;
    std::string schema_;
    std::map<std::string, std::string> config_;   ///< key -> JSON token
    std::map<std::string, std::string> tables_;
    std::map<std::string, std::map<std::string, std::string>>
        workloads_;
    std::map<std::string, uint64_t> metrics_;
    std::map<std::string, uint64_t> runtimeCounters_;
    std::map<std::string, uint64_t> gauges_;
    std::map<std::string, TimerValue> timers_;
    std::map<std::string, std::string> runtimeInfo_;
    uint64_t peakRssBytes_ = 0;
};

/** Current peak resident set size of this process, in bytes. */
uint64_t peakRssBytes();

} // namespace tpred::obs

#endif // TPRED_OBS_RUN_REPORT_HH
