#include "harness/experiment.hh"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/oracle.hh"
#include "obs/metrics.hh"
#include "workloads/workload.hh"

namespace tpred
{

std::string
IndirectConfig::describe() const
{
    switch (structure) {
      case IndirectStructure::None:
        return "btb-only";
      case IndirectStructure::Tagless:
        return TaglessTargetCache(tagless).describe() + "+" +
               history.describe();
      case IndirectStructure::Tagged:
        return TaggedTargetCache(tagged).describe() + "+" +
               history.describe();
      case IndirectStructure::Cascaded:
        return CascadedPredictor(cascaded).describe() + "+" +
               history.describe();
      case IndirectStructure::Ittage:
        return IttagePredictor(ittage).describe();
      case IndirectStructure::Oracle:
        return "oracle";
    }
    return "?";
}

PredictorStack
buildStack(const IndirectConfig &config)
{
    PredictorStack stack;
    switch (config.structure) {
      case IndirectStructure::None:
        return stack;
      case IndirectStructure::Tagless:
        stack.predictor =
            std::make_unique<TaglessTargetCache>(config.tagless);
        break;
      case IndirectStructure::Tagged:
        stack.predictor =
            std::make_unique<TaggedTargetCache>(config.tagged);
        break;
      case IndirectStructure::Cascaded:
        stack.predictor =
            std::make_unique<CascadedPredictor>(config.cascaded);
        break;
      case IndirectStructure::Ittage:
        stack.predictor =
            std::make_unique<IttagePredictor>(config.ittage);
        break;
      case IndirectStructure::Oracle:
        stack.predictor = std::make_unique<OraclePredictor>();
        break;
    }
    stack.tracker = std::make_unique<HistoryTracker>(config.history);
    return stack;
}

SharedTrace::SharedTrace()
    : trace_(std::make_shared<const CompactTrace>())
{
}

SharedTrace::SharedTrace(TraceSource &source, size_t max_ops)
    : trace_(std::make_shared<const CompactTrace>(
          CompactTrace::encode(drainTrace(source, max_ops)))),
      name_(source.name())
{
}

SharedTrace::SharedTrace(std::vector<MicroOp> ops, std::string name)
    : trace_(std::make_shared<const CompactTrace>(
          CompactTrace::encode(ops))),
      name_(std::move(name))
{
}

SharedTrace::SharedTrace(std::shared_ptr<const CompactTrace> trace,
                         std::string name)
    : trace_(std::move(trace)), name_(std::move(name))
{
}

SharedTrace
recordWorkload(const std::string &name, size_t max_ops, uint64_t seed)
{
    static const obs::Counter recorded =
        obs::globalMetrics().counter("experiment.traces_recorded");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.record");
    obs::ScopedTimer timed(phase);
    recorded.inc();
    auto workload = makeWorkload(name, seed);
    return SharedTrace(*workload, max_ops);
}

FrontendStats
runAccuracy(const SharedTrace &trace, const IndirectConfig &config,
            const FrontendConfig &fe)
{
    static const obs::Counter runs =
        obs::globalMetrics().counter("experiment.accuracy_runs");
    static const obs::Counter replayed = obs::globalMetrics().counter(
        "experiment.instructions_replayed");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.accuracy");
    obs::ScopedTimer timed(phase);
    runs.inc();
    replayed.inc(trace.size());
    PredictorStack stack = buildStack(config);
    FrontendPredictor frontend(fe, stack.predictor.get(),
                               stack.tracker.get());
    frontend.replayBranches(trace.compact(),
                            [](const MicroOp &, PredictionOutcome) {});
    creditBtbCounters(frontend.btb().hstats());
    return frontend.stats();
}

CoreResult
runTiming(const SharedTrace &trace, const IndirectConfig &config,
          const CoreParams &params, const FrontendConfig &fe)
{
    static const obs::Counter runs =
        obs::globalMetrics().counter("experiment.timing_runs");
    static const obs::Counter replayed = obs::globalMetrics().counter(
        "experiment.instructions_replayed");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.timing");
    obs::ScopedTimer timed(phase);
    runs.inc();
    replayed.inc(trace.size());
    PredictorStack stack = buildStack(config);
    FrontendPredictor frontend(fe, stack.predictor.get(),
                               stack.tracker.get());
    CoreModel core(params);
    CompactReplay source = trace.replay();
    const CoreResult result = core.run(source, frontend, trace.size());
    creditBtbCounters(frontend.btb().hstats());
    return result;
}

size_t
parseOps(std::string_view text, const char *what)
{
    if (text.empty())
        throw std::invalid_argument(
            std::string(what) + ": empty instruction count");
    size_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            throw std::invalid_argument(
                std::string(what) + ": malformed instruction count '" +
                std::string(text) + "' (expect a positive integer)");
        const size_t digit = static_cast<size_t>(c - '0');
        if (value > (SIZE_MAX - digit) / 10)
            throw std::out_of_range(
                std::string(what) + ": instruction count '" +
                std::string(text) + "' overflows size_t");
        value = value * 10 + digit;
    }
    if (value == 0)
        throw std::invalid_argument(
            std::string(what) + ": instruction count must be positive");
    return value;
}

size_t
resolveOps(int argc, char **argv, size_t fallback)
{
    try {
        if (argc > 1)
            return parseOps(argv[1], "argv[1]");
        if (const char *env = std::getenv("TPRED_OPS"))
            return parseOps(env, "TPRED_OPS");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
    return fallback;
}

} // namespace tpred
