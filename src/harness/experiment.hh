/**
 * @file
 * Experiment harness: builds predictor stacks from declarative
 * configurations, replays shared traces through them, and reports
 * the paper's two metrics — indirect misprediction rate and reduction
 * in execution time relative to the BTB-only baseline.
 */

#ifndef TPRED_HARNESS_EXPERIMENT_HH
#define TPRED_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bpred/history.hh"
#include "core/cascaded.hh"
#include "core/ittage.hh"
#include "core/frontend_predictor.hh"
#include "core/tagged_target_cache.hh"
#include "core/tagless_target_cache.hh"
#include "trace/compact_trace.hh"
#include "trace/trace_source.hh"
#include "uarch/core_model.hh"

namespace tpred
{

/** Which indirect-predictor structure an experiment runs. */
enum class IndirectStructure : uint8_t
{
    None,     ///< BTB-only baseline (paper Table 1)
    Tagless,  ///< section 3.2 / Figure 10
    Tagged,   ///< section 3.2 / Figure 11
    Cascaded, ///< extension (DESIGN.md section 6)
    Ittage,   ///< modern descendant (DESIGN.md section 6)
    Oracle,   ///< perfect target prediction (upper bound)
};

/** Full declarative description of an indirect-predictor setup. */
struct IndirectConfig
{
    IndirectStructure structure = IndirectStructure::None;
    TaglessConfig tagless{};
    TaggedConfig tagged{};
    CascadedConfig cascaded{};
    IttageConfig ittage{};
    HistorySpec history{};

    std::string describe() const;
};

/** A constructed predictor + its history source. */
struct PredictorStack
{
    std::unique_ptr<IndirectPredictor> predictor;  ///< null for None
    std::unique_ptr<HistoryTracker> tracker;       ///< null for None
};

/** Instantiates the structures an IndirectConfig describes. */
PredictorStack buildStack(const IndirectConfig &config);

/**
 * Immutable, shareable recorded trace.  Generate a workload once, then
 * replay it any number of times.
 *
 * The canonical in-memory form is the columnar CompactTrace
 * (trace/compact_trace.hh) — ~8x smaller than the former
 * std::vector<MicroOp> storage.  It is replayed through the
 * non-virtual batch API (forEachOp / forEachBranch / replay()).
 */
class SharedTrace
{
  public:
    /** Empty trace (zero ops); assign over it to fill a result slot. */
    SharedTrace();

    /** Records @p max_ops instructions of @p source. */
    SharedTrace(TraceSource &source, size_t max_ops);

    /** Adopts an already-recorded op vector. */
    SharedTrace(std::vector<MicroOp> ops, std::string name);

    /**
     * Adopts already-columnar storage without copying — the handle a
     * corpus load or trace-file read produces (possibly zero-copy
     * views into an mmap the CompactTrace keeps alive).
     */
    SharedTrace(std::shared_ptr<const CompactTrace> trace,
                std::string name);

    /** Opens a devirtualized block-replay source. */
    CompactReplay replay() const { return CompactReplay(*trace_); }

    const std::string &name() const { return name_; }
    size_t size() const { return trace_->size(); }

    /** The columnar storage itself (branch index, size accounting). */
    const CompactTrace &compact() const { return *trace_; }

    /**
     * The trace's dense branch stream, built lazily on first request
     * and shared by all configs and threads (sweep kernel fast path).
     */
    const BranchStream &branchStream() const
    {
        return trace_->branchStream();
    }

    /** Batch replay: fn(const MicroOp &) for every op, in order. */
    template <typename Fn>
    void
    forEachOp(Fn &&fn) const
    {
        trace_->forEachOp(std::forward<Fn>(fn));
    }

    /** Decodes the whole trace into a fresh vector (tooling only). */
    std::vector<MicroOp> decodeOps() const { return trace_->decodeAll(); }

  private:
    std::shared_ptr<const CompactTrace> trace_;
    std::string name_;
};

/** Records a named workload into a SharedTrace. */
SharedTrace recordWorkload(const std::string &name, size_t max_ops,
                           uint64_t seed = 1);

/**
 * Accuracy experiment: replays the trace through a front end built
 * from @p config and returns the per-class prediction statistics.
 */
FrontendStats runAccuracy(const SharedTrace &trace,
                          const IndirectConfig &config,
                          const FrontendConfig &fe = {});

/**
 * Timing experiment: replays the trace through the out-of-order core
 * and returns cycles, IPC and accuracy statistics.
 */
CoreResult runTiming(const SharedTrace &trace,
                     const IndirectConfig &config,
                     const CoreParams &params = {},
                     const FrontendConfig &fe = {});

/**
 * Default run lengths; bench binaries accept an instruction-count
 * argv override and the TPRED_OPS environment variable.
 */
constexpr size_t kDefaultAccuracyOps = 2'000'000;
constexpr size_t kDefaultTimingOps = 1'000'000;

/**
 * Strictly parses an instruction count: the whole of @p text must be
 * a positive decimal integer — no sign, suffix, blank or trailing
 * junk ("2m", "-3", "1e6" and "20 " all fail).
 * @param what Label used in the error message (e.g. "argv[1]").
 * @throws std::invalid_argument on malformed or zero input.
 * @throws std::out_of_range when the value exceeds size_t.
 */
size_t parseOps(std::string_view text, const char *what);

/**
 * Resolves the run length: argv[1] if given, else $TPRED_OPS, else
 * @p fallback.  A malformed override is a hard error: the message is
 * printed to stderr and the process exits with status 2 — never a
 * silent partial parse or fallback.
 */
size_t resolveOps(int argc, char **argv, size_t fallback);

} // namespace tpred

#endif // TPRED_HARNESS_EXPERIMENT_HH
