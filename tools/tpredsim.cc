/**
 * @file
 * tpredsim — command-line driver for the target-cache library.
 *
 * Runs any workload through any predictor configuration, in accuracy
 * or timing mode, and can save/load binary traces.
 *
 *   tpredsim --workload perl --predictor tagged --ways 8 --hist 16
 *   tpredsim --workload gcc --predictor tagless --history path-indjmp
 *   tpredsim --workload perl --timing --ops 2000000
 *   tpredsim --workload perl --save-trace perl.tpr
 *   tpredsim --load-trace perl.tpr --predictor ittage --sites 10
 *   tpredsim --workload gcc --timing --report run.json
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/stats.hh"
#include "corpus/corpus.hh"
#include "harness/paper_tables.hh"
#include "harness/shard_replay.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_options.hh"
#include "harness/site_report.hh"
#include "harness/trace_cache.hh"
#include "obs/run_report.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

using namespace tpred;

namespace
{

/** Tool-specific options; the shared vocabulary (--ops, --jobs,
 *  --corpus, --report, --verbose) is consumed by RunOptions first. */
struct Options
{
    std::string workload = "perl";
    std::string predictor = "tagless";
    std::string history = "pattern";
    std::string scheme = "xor";
    std::string saveTrace;
    std::string loadTrace;
    std::string loadSegmented;
    unsigned shards = 0;
    unsigned ways = 4;
    unsigned histBits = 9;
    unsigned bitsPerTarget = 1;
    uint64_t seed = 1;
    size_t sites = 0;
    bool timing = false;
    bool twoBitBtb = false;
    bool listWorkloads = false;
};

[[noreturn]] void
usage()
{
    std::puts(
        "tpredsim — indirect-jump target prediction simulator\n"
        "\n"
        "  --workload NAME     a registered workload      [perl]\n"
        "  --list-workloads    list registered workloads and exit\n"
        "  --ops N             instructions to simulate   [1000000]\n"
        "  --seed N            workload seed              [1]\n"
        "  --predictor KIND    btb|tagless|tagged|cascaded|ittage|\n"
        "                      oracle                     [tagless]\n"
        "  --history KIND      pattern|path-control|path-branch|\n"
        "                      path-callret|path-indjmp|path-peraddr\n"
        "                                                 [pattern]\n"
        "  --hist N            history bits               [9]\n"
        "  --bits-per-target N path bits per target       [1]\n"
        "  --scheme S          tagged index: addr|concat|xor  [xor]\n"
        "  --ways N            tagged associativity       [4]\n"
        "  --two-bit-btb       Calder/Grunwald BTB update strategy\n"
        "  --timing            run the OoO timing model too\n"
        "  --jobs N            worker threads for parallel runs\n"
        "                      [hardware concurrency]\n"
        "  --sites N           print the top-N misbehaving sites\n"
        "  --save-trace FILE   record the workload to a trace file\n"
        "  --load-trace FILE   replay a recorded trace file\n"
        "  --load-segmented F  stream a segmented (.tpcs) container,\n"
        "                      one mapped segment resident at a time\n"
        "  --shards N          shard the segmented accuracy replay\n"
        "                      into N regions with checkpoint proofs\n"
        "  --corpus DIR        persistent trace corpus directory\n"
        "                      (also honoured as $TPRED_CORPUS_DIR)\n"
        "  --report FILE       write a tpred-run-report/1 JSON file\n"
        "                      (also honoured as $TPRED_REPORT)\n"
        "  --verbose           log cache/corpus traffic to stderr\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            opt.workload = need(i);
        else if (arg == "--seed")
            opt.seed = parseUnsigned<uint64_t>(need(i), "--seed");
        else if (arg == "--predictor")
            opt.predictor = need(i);
        else if (arg == "--history")
            opt.history = need(i);
        else if (arg == "--hist")
            opt.histBits = parseUnsigned<unsigned>(need(i), "--hist");
        else if (arg == "--bits-per-target")
            opt.bitsPerTarget =
                parseUnsigned<unsigned>(need(i), "--bits-per-target");
        else if (arg == "--scheme")
            opt.scheme = need(i);
        else if (arg == "--ways")
            opt.ways = parseUnsigned<unsigned>(need(i), "--ways");
        else if (arg == "--two-bit-btb")
            opt.twoBitBtb = true;
        else if (arg == "--timing")
            opt.timing = true;
        else if (arg == "--sites")
            opt.sites = parseUnsigned<size_t>(need(i), "--sites");
        else if (arg == "--save-trace")
            opt.saveTrace = need(i);
        else if (arg == "--load-trace")
            opt.loadTrace = need(i);
        else if (arg == "--load-segmented")
            opt.loadSegmented = need(i);
        else if (arg == "--shards")
            opt.shards = parseUnsigned<unsigned>(need(i), "--shards");
        else if (arg == "--list-workloads")
            opt.listWorkloads = true;
        else
            usage();
    }
    return opt;
}

/** Prints the workload registry, one line per generator. */
void
listWorkloads()
{
    for (const WorkloadInfo &info : workloadRegistry())
        std::printf("%-16s %s\n", info.name.c_str(),
                    info.description.c_str());
}

HistorySpec
historyFor(const Options &opt)
{
    if (opt.history == "pattern")
        return patternHistory(opt.histBits);
    if (opt.history == "path-control")
        return pathGlobal(PathFilter::Control, opt.histBits,
                          opt.bitsPerTarget);
    if (opt.history == "path-branch")
        return pathGlobal(PathFilter::Branch, opt.histBits,
                          opt.bitsPerTarget);
    if (opt.history == "path-callret")
        return pathGlobal(PathFilter::CallRet, opt.histBits,
                          opt.bitsPerTarget);
    if (opt.history == "path-indjmp")
        return pathGlobal(PathFilter::IndJmp, opt.histBits,
                          opt.bitsPerTarget);
    if (opt.history == "path-peraddr")
        return pathPerAddress(opt.histBits, opt.bitsPerTarget);
    throw std::invalid_argument("unknown history: " + opt.history);
}

TaggedIndexScheme
schemeFor(const Options &opt)
{
    if (opt.scheme == "addr")
        return TaggedIndexScheme::Address;
    if (opt.scheme == "concat")
        return TaggedIndexScheme::HistoryConcat;
    if (opt.scheme == "xor")
        return TaggedIndexScheme::HistoryXor;
    throw std::invalid_argument("unknown scheme: " + opt.scheme);
}

IndirectConfig
configFor(const Options &opt)
{
    if (opt.predictor == "btb")
        return baselineConfig();
    if (opt.predictor == "tagless")
        return taglessGshare(historyFor(opt));
    if (opt.predictor == "tagged")
        return taggedConfig(schemeFor(opt), opt.ways, historyFor(opt));
    if (opt.predictor == "cascaded")
        return cascadedConfig(128, opt.ways);
    if (opt.predictor == "ittage")
        return ittageConfig();
    if (opt.predictor == "oracle")
        return oracleConfig();
    throw std::invalid_argument("unknown predictor: " + opt.predictor);
}

void
printAccuracy(const FrontendStats &stats)
{
    std::printf("indirect jumps : %s, miss rate %s\n",
                formatCount(stats.indirectJumps.total()).c_str(),
                formatPercent(stats.indirectJumps.missRate(), 2)
                    .c_str());
    std::printf("cond direction : miss rate %s\n",
                formatPercent(stats.condDirection.missRate(), 2)
                    .c_str());
    std::printf("returns        : miss rate %s\n",
                formatPercent(stats.returns.missRate(), 2).c_str());
    std::printf("all branches   : %.2f MPKI\n", stats.mpki());
}

void
printProofs(const std::vector<ShardProof> &shards, bool verified)
{
    for (size_t k = 0; k < shards.size(); ++k) {
        const ShardProof &p = shards[k];
        std::printf("shard %zu: [%llu, %llu) warm-up %llu  entry %s  "
                    "exit %s%s%s\n",
                    k, static_cast<unsigned long long>(p.beginOp),
                    static_cast<unsigned long long>(p.endOp),
                    static_cast<unsigned long long>(p.warmupOps),
                    p.entryMatched ? "ok" : "MISMATCH",
                    p.exitMatched ? "ok" : "MISMATCH",
                    p.error.empty() ? "" : "  error: ",
                    p.error.c_str());
    }
    std::printf("checkpoint proof: %s\n",
                verified ? "verified (bit-identical to serial replay)"
                         : "FAILED");
}

/** The --load-segmented path: streaming (or, for accuracy, sharded)
 *  replay of a segmented container, never materializing the full
 *  trace. */
int
runSegmented(const Options &opt, const RunOptions &run)
{
    const auto trace = SegmentedTrace::open(opt.loadSegmented);
    std::printf("trace: %s, %s instructions, %zu segments\n",
                trace->name().c_str(),
                formatCount(trace->totalOps()).c_str(),
                trace->segmentCount());

    const IndirectConfig config = configFor(opt);
    FrontendConfig fe;
    if (opt.twoBitBtb)
        fe = twoBitBtbFrontend();
    std::printf("predictor: %s\n\n", config.describe().c_str());

    obs::RunReport report("tpredsim");
    report.setConfig("trace", opt.loadSegmented);
    report.setConfig("predictor", config.describe());
    report.setConfig("timing", opt.timing);
    report.setConfig("shards", static_cast<uint64_t>(opt.shards));
    const std::string w = trace->name();

    bool verified = true;
    FrontendStats stats;
    if (opt.shards > 0) {
        const ShardedAccuracyResult sharded = runAccuracySharded(
            trace, config, {.shards = opt.shards}, fe);
        stats = sharded.stats;
        printAccuracy(stats);
        printProofs(sharded.shards, sharded.verified());
        verified = sharded.verified();
        report.addWorkloadValue(w, "checkpoint_bytes",
                                sharded.checkpointBytes);
    } else {
        stats = runAccuracyStreaming(trace, config, fe);
        printAccuracy(stats);
    }
    report.addWorkloadValue(w, "instructions", stats.instructions);
    report.addWorkloadValue(w, "indirect_miss_rate",
                            stats.indirectJumps.missRate(), 6);
    report.addWorkloadValue(w, "mpki", stats.mpki(), 4);

    if (opt.timing) {
        const CoreResult result =
            runTimingStreaming(trace, config, {}, fe);
        std::printf("\ntiming         : %s cycles, IPC %.2f\n",
                    formatCount(result.cycles).c_str(), result.ipc());
        report.addWorkloadValue(w, "cycles", result.cycles);
        report.addWorkloadValue(w, "ipc", result.ipc(), 4);
    }
    report.addWorkloadValue(w, "verified",
                            static_cast<uint64_t>(verified ? 1 : 0));

    if (!run.reportPath.empty()) {
        report.captureProcess();
        report.write(run.reportPath);
        std::printf("\nwrote report to %s\n", run.reportPath.c_str());
    }
    return verified ? 0 : 1;
}

/** Why @p opt combines flags its path would ignore, or nullptr. */
const char *
ignoredFlag(const Options &opt)
{
    if (opt.loadSegmented.empty())
        return opt.shards > 0 ? "--shards needs --load-segmented"
                              : nullptr;
    if (opt.sites > 0)
        return "--sites does not apply to --load-segmented";
    if (!opt.saveTrace.empty())
        return "--save-trace does not apply to --load-segmented";
    if (!opt.loadTrace.empty())
        return "--load-trace and --load-segmented are exclusive";
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    // Shared vocabulary first (consumes its flags), tool flags after.
    const RunOptions run = RunOptions::fromEnvAndArgv(
        argc, argv, /*fallback_ops=*/1'000'000,
        /*positional_ops=*/false);
    try {
        const Options opt = parse(argc, argv);
        if (opt.listWorkloads) {
            listWorkloads();
            return 0;
        }

        // Fail loud (usage status) on flags the chosen path would
        // silently ignore, before any work.
        if (const char *why = ignoredFlag(opt)) {
            std::fprintf(stderr, "tpredsim: %s\n", why);
            return 2;
        }
        // Same for workload names, unless a trace file replaces the
        // generator entirely.
        if (opt.loadTrace.empty() && opt.loadSegmented.empty() &&
            !isKnownWorkload(opt.workload)) {
            std::fprintf(stderr,
                         "tpredsim: unknown workload '%s' "
                         "(--list-workloads shows the registry)\n",
                         opt.workload.c_str());
            return 2;
        }
        run.apply();

        if (!opt.loadSegmented.empty())
            return runSegmented(opt, run);

        SharedTrace trace = [&] {
            if (!opt.loadTrace.empty()) {
                std::string name;
                CompactTrace loaded =
                    loadCompactTraceFile(opt.loadTrace, name);
                if (loaded.size() > run.ops) {
                    // Honour --ops as a cap on replayed trace files.
                    std::vector<MicroOp> ops = loaded.decodeAll();
                    ops.resize(run.ops);
                    return SharedTrace(std::move(ops), name);
                }
                return SharedTrace(
                    std::make_shared<const CompactTrace>(
                        std::move(loaded)),
                    name);
            }
            // Routed through the cache so an attached corpus (via
            // --corpus or $TPRED_CORPUS_DIR) is consulted/populated.
            return cachedTrace(opt.workload, run.ops, opt.seed);
        }();
        std::printf("trace: %s, %s instructions\n", trace.name().c_str(),
                    formatCount(trace.size()).c_str());

        if (!opt.saveTrace.empty()) {
            saveTraceFile(opt.saveTrace, trace.compact(),
                          trace.name());
            std::printf("saved trace to %s\n", opt.saveTrace.c_str());
        }

        const IndirectConfig config = configFor(opt);
        FrontendConfig fe;
        if (opt.twoBitBtb)
            fe = twoBitBtbFrontend();

        std::printf("predictor: %s\n\n", config.describe().c_str());

        const FrontendStats stats = runAccuracy(trace, config, fe);
        printAccuracy(stats);

        obs::RunReport report("tpredsim");
        report.setConfig("workload", trace.name());
        report.setConfig("ops", static_cast<uint64_t>(run.ops));
        report.setConfig("seed", opt.seed);
        report.setConfig("predictor", config.describe());
        report.setConfig("timing", opt.timing);
        const std::string &w = trace.name();
        report.addWorkloadValue(w, "instructions",
                                stats.instructions);
        report.addWorkloadValue(w, "indirect_jumps",
                                stats.indirectJumps.total());
        report.addWorkloadValue(w, "indirect_miss_rate",
                                stats.indirectJumps.missRate(), 6);
        report.addWorkloadValue(w, "cond_miss_rate",
                                stats.condDirection.missRate(), 6);
        report.addWorkloadValue(w, "return_miss_rate",
                                stats.returns.missRate(), 6);
        report.addWorkloadValue(w, "mpki", stats.mpki(), 4);

        if (opt.timing) {
            // Baseline and configured runs are independent: shard
            // them across the runner (results keyed by job index).
            const ParallelRunner runner;
            const auto timings = runner.map<CoreResult>(
                2, [&](size_t i) {
                    return runTiming(trace,
                                     i == 0 ? baselineConfig()
                                            : config,
                                     {}, fe);
                });
            const CoreResult &base = timings[0];
            const CoreResult &result = timings[1];
            report.addWorkloadValue(w, "cycles", result.cycles);
            report.addWorkloadValue(w, "baseline_cycles",
                                    base.cycles);
            report.addWorkloadValue(w, "ipc", result.ipc(), 4);
            report.addWorkloadValue(
                w, "exec_time_reduction",
                execTimeReduction(base.cycles, result.cycles), 6);
            std::printf("\ntiming         : %s cycles, IPC %.2f\n",
                        formatCount(result.cycles).c_str(),
                        result.ipc());
            std::printf("indirect stalls: %s cycles (%s of total)\n",
                        formatCount(result.indirectStallCycles())
                            .c_str(),
                        formatPercent(
                            result.cycles
                                ? static_cast<double>(
                                      result.indirectStallCycles()) /
                                      static_cast<double>(result.cycles)
                                : 0.0,
                            1)
                            .c_str());
            std::printf("vs BTB baseline: %s reduction in execution "
                        "time\n",
                        formatPercent(execTimeReduction(base.cycles,
                                                        result.cycles),
                                      2)
                            .c_str());
        }

        if (opt.sites > 0) {
            SiteReport sites = analyzeSites(trace, config, fe);
            const std::string rendered = sites.render(opt.sites);
            report.addTable("top_sites", rendered);
            std::printf("\ntop mispredicting sites:\n%s",
                        rendered.c_str());
        }

        if (!run.reportPath.empty()) {
            report.setRuntimeInfo("jobs", defaultJobs());
            report.captureProcess();
            report.write(run.reportPath);
            std::printf("\nwrote report to %s\n",
                        run.reportPath.c_str());
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tpredsim: %s\n", e.what());
        return 1;
    }
}
