/**
 * @file
 * tpred_e2e: one sample of one end-to-end benchmark workload.
 *
 *   tpred_e2e --phase setup|run --workload W --seed S --ops N
 *             --corpus DIR --jobs J --out FILE [--trace] [--sample K]
 *
 * The setup phase builds the sample's inputs into a fresh corpus
 * directory; the run phase is the timed process and reads only those
 * inputs.  Both call public library functions only, and each writes one
 * JSON document to FILE: the rendered artifacts, the deterministic
 * counter deltas, in-process proofs, the build fingerprint and, with
 * --trace, the spans (span_trace.hh).  bench/e2e/run.py times the
 * processes, checks the outputs and aggregates the samples; README.md
 * describes the workloads.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/simd.hh"
#include "corpus/corpus.hh"
#include "fig1_8.hh"
#include "harness/paper_tables.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_options.hh"
#include "harness/shard_replay.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "span_trace.hh"
#include "tune/config_space.hh"
#include "tune/successive_halving.hh"
#include "tune/tune_report.hh"
#include "workloads/workload.hh"

using namespace tpred;
using e2e::Span;
using e2e::SpanRecorder;

namespace
{

struct Options
{
    std::string phase;
    std::string workload;
    std::string corpus;
    std::string out;
    uint64_t seed = 1;
    size_t ops = 0;
    unsigned jobs = 0;
    bool trace = false;
    uint64_t sample = 0;
};

/** What the run phase reports besides its spans. */
struct Outputs
{
    std::map<std::string, std::string> artifacts;  ///< rendered text
    std::map<std::string, bool> checks;            ///< in-process proofs
};

/** Registry movement since construction (all metric kinds). */
class Movement
{
  public:
    Movement() : start_(e2e::flatten(obs::globalMetrics().snapshot())) {}

    uint64_t
    operator()(const std::string &name) const
    {
        const auto now = e2e::flatten(obs::globalMetrics().snapshot());
        const auto it = now.find(name);
        const auto was = start_.find(name);
        return (it == now.end() ? 0 : it->second) -
               (was == start_.end() ? 0 : was->second);
    }

  private:
    std::map<std::string, uint64_t> start_;
};

/** Runs @p fn inside a span named @p name and returns its result. */
template <typename Fn>
auto
spanned(SpanRecorder &spans, std::string name, Fn &&fn)
{
    const Span span(spans, std::move(name));
    return fn();
}

/**
 * Runs job(i) for every i across the runner inside a span, and notes
 * on that span the jobs' summed wall time ("driver.jobs_wall_ns"):
 * the thread time the layer took, which the span's own wall time
 * cannot show once jobs overlap.
 */
void
spannedJobs(SpanRecorder &spans, std::string name, size_t count,
            const std::function<void(size_t)> &job)
{
    const Span span(spans, std::move(name));
    std::atomic<uint64_t> jobs_wall{0};
    ParallelRunner().forEach(count, [&](size_t i) {
        const uint64_t start = e2e::monotonicNs();
        job(i);
        jobs_wall += e2e::monotonicNs() - start;
    });
    spans.note("driver.jobs_wall_ns", jobs_wall.load());
}

std::shared_ptr<CorpusManager>
openCorpus(const std::string &dir)
{
    return std::make_shared<CorpusManager>(dir, &obs::globalMetrics());
}

struct TraceKey
{
    std::string workload;
    size_t ops = 0;
};

/**
 * The 13 traces a paper regeneration requests: the eight SPECint95
 * analogues at the accuracy length @p ops (Tables 1, 2, 4, Figs 1-8),
 * and the BTB-pressure set at half of it, the timing length
 * (Tables 5-9, Figs 12-13 use its gcc/perl) — the ratio of
 * kDefaultAccuracyOps to kDefaultTimingOps the bench binaries use.
 */
std::vector<TraceKey>
paperKeys(size_t ops)
{
    std::vector<TraceKey> keys;
    for (const std::string &name : spec95Names())
        keys.push_back({name, ops});
    for (const std::string &name : btbPressureWorkloads())
        keys.push_back({name, ops / 2});
    return keys;
}

std::string
ratio(const RatioStat &r)
{
    return std::to_string(r.hits()) + "/" + std::to_string(r.total());
}

// --- paper-warm -------------------------------------------------------
//
// The user's headline task: regenerate every paper table and figure
// plus the BTB-pressure grid from a warm corpus.

void
setupPaperWarm(const Options &o, SpanRecorder &spans)
{
    const auto corpus = openCorpus(o.corpus);
    const auto keys = paperKeys(o.ops);
    std::vector<SharedTrace> traces(keys.size());
    spannedJobs(spans, "workloads.record", keys.size(), [&](size_t i) {
        traces[i] = recordWorkload(keys[i].workload, keys[i].ops, o.seed);
    });
    // Stored under the seed-1 key the paper drivers request, so the
    // timed process renders this sample's seed through the unchanged
    // drivers.  Only traces: a cold paper run persists nothing else.
    spannedJobs(spans, "corpus.store", keys.size(), [&](size_t i) {
        corpus->store(CorpusKey{keys[i].workload, 1, keys[i].ops},
                      traces[i].compact(), traces[i].name());
    });
}

void
runPaperWarm(const Options &o, SpanRecorder &spans, Outputs &out)
{
    const Movement moved;
    globalTraceCache().attachCorpus(openCorpus(o.corpus));
    const auto keys = paperKeys(o.ops);
    spannedJobs(spans, "harness.trace_cache.get", keys.size(),
                [&](size_t i) {
                    cachedTrace(keys[i].workload, keys[i].ops);
                });

    const TableOptions acc{.ops = o.ops};
    const TableOptions tim{.ops = o.ops / 2};
    const std::vector<std::pair<std::string, std::function<std::string()>>>
        renders = {
            {"table1", [&] { return renderTable1(acc); }},
            {"table2", [&] { return renderTable2(acc); }},
            {"table4", [&] { return renderTable4(acc); }},
            {"fig1_8", [&] { return e2e::renderTargetHistograms(o.ops); }},
            {"table5", [&] { return renderTable5(tim); }},
            {"table6", [&] { return renderTable6(tim); }},
            {"table7", [&] { return renderTable7(tim); }},
            {"table8", [&] { return renderTable8(tim); }},
            {"table9", [&] { return renderTable9(tim); }},
            {"fig12_13", [&] { return renderFig1213(tim); }},
            {"btb_pressure", [&] { return renderBtbPressure(tim); }},
        };
    for (const auto &[name, render] : renders)
        out.artifacts[name] =
            spanned(spans, "harness.render." + name, render);

    out.checks["inputs_from_corpus"] =
        moved("trace_cache.recordings") == 0 &&
        moved("trace_cache.corpus_hits") == keys.size();
}

// --- tune-exhaustive --------------------------------------------------
//
// The batched-predictor sweep kernel with no core model: an exhaustive
// (one-rung) search of the standard space over warm branch streams.

void
setupTune(const Options &o, SpanRecorder &spans)
{
    globalTraceCache().attachCorpus(openCorpus(o.corpus));
    const auto &names = spec95Names();
    spannedJobs(spans, "harness.trace_cache.get_stream", names.size(),
                [&](size_t i) {
                    cachedBranchStream(names[i], o.ops, o.seed);
                });
}

void
runTune(const Options &o, SpanRecorder &spans, Outputs &out)
{
    const Movement moved;
    globalTraceCache().attachCorpus(openCorpus(o.corpus));
    const auto &names = spec95Names();
    spannedJobs(spans, "harness.trace_cache.get_stream", names.size(),
                [&](size_t i) {
                    cachedBranchStream(names[i], o.ops, o.seed);
                });

    const tune::ConfigSpace space = tune::enumerateSpace("standard");
    tune::TuneOptions opt;
    opt.fullOps = o.ops;
    opt.rungs = 1;
    opt.seed = o.seed;
    opt.workloads = names;
    const tune::TuneResult result = spanned(spans, "tune.run", [&] {
        return tune::runSuccessiveHalving(space, opt);
    });

    out.artifacts["rungs"] = tune::renderRungTable(result);
    out.artifacts["frontier"] =
        tune::renderFrontierTable(result.aggregateFrontier);
    std::string finalists;
    for (const tune::FinalistResult &f : result.finalists)
        finalists += space.candidates[f.candidate].id + " " +
                     std::to_string(f.aggMisses) + "/" +
                     std::to_string(f.aggTotal) + "\n";
    out.artifacts["finalists"] = finalists;

    out.checks["streams_from_corpus"] =
        moved("trace_cache.recordings") == 0 &&
        moved("trace_cache.stream_corpus_hits") == names.size();
}

// --- corpus-build -----------------------------------------------------
//
// The write side: generate, encode and persist every registered
// workload, then extract and persist its branch stream.

/**
 * Builds the corpus an earlier, half-length build of every workload
 * leaves behind, so the timed build writes into a live directory (each
 * store rescans it for the manifest) as a user's rebuild does.
 */
void
setupCorpusBuild(const Options &o, SpanRecorder &spans)
{
    globalTraceCache().attachCorpus(openCorpus(o.corpus));
    const auto &names = allWorkloadNames();
    spannedJobs(spans, "harness.trace_cache.get_stream", names.size(),
                [&](size_t i) {
                    cachedBranchStream(names[i], o.ops / 2, o.seed);
                });
}

void
runCorpusBuild(const Options &o, SpanRecorder &spans, Outputs &out)
{
    const Movement moved;
    globalTraceCache().attachCorpus(openCorpus(o.corpus));
    const auto &names = allWorkloadNames();
    std::vector<SharedTrace> traces(names.size());
    spannedJobs(spans, "harness.trace_cache.get", names.size(),
                [&](size_t i) {
                    traces[i] = cachedTrace(names[i], o.ops, o.seed);
                });
    std::vector<std::shared_ptr<const BranchStream>> streams(names.size());
    spannedJobs(spans, "harness.trace_cache.get_stream", names.size(),
                [&](size_t i) {
                    streams[i] = cachedBranchStream(names[i], o.ops, o.seed);
                });

    std::string summary;
    for (size_t i = 0; i < names.size(); ++i)
        summary += names[i] + " ops=" + std::to_string(traces[i].size()) +
                   " branches=" + std::to_string(streams[i]->size()) + "\n";
    out.artifacts["summary"] = summary;

    const uint64_t n = names.size();
    out.checks["all_generated_and_persisted"] =
        moved("trace_cache.recordings") == n &&
        moved("trace_cache.stream_extractions") == n &&
        moved("corpus.stores") == n && moved("stream_corpus.stores") == n;
}

// --- segmented-stream -------------------------------------------------
//
// The read side of segmented containers: windowed load with prefetch,
// streaming and sharded replay, stream extraction, a fused sweep and a
// deep single-config core run.

const std::vector<std::string> &
segmentedWorkloads()
{
    static const std::vector<std::string> names = {"gcc",
                                                   "server-dispatch"};
    return names;
}

/** 16 segments per trace. */
size_t
segmentOps(size_t ops)
{
    return ops / 16;
}

void
setupSegmented(const Options &o, SpanRecorder &spans)
{
    const auto corpus = openCorpus(o.corpus);
    const auto &names = segmentedWorkloads();
    spannedJobs(spans, "corpus.store_segmented", names.size(),
                [&](size_t i) {
                    const auto source = makeWorkload(names[i], o.seed);
                    corpus->storeSegmentedFromSource(
                        CorpusKey{names[i], o.seed, o.ops}, *source,
                        source->name(), segmentOps(o.ops));
                });
}

void
runSegmented(const Options &o, SpanRecorder &spans, Outputs &out)
{
    const auto corpus = openCorpus(o.corpus);
    const IndirectConfig replayed = taglessGshare();
    const IndirectConfig timed =
        taggedConfig(TaggedIndexScheme::HistoryXor, 4);
    std::vector<IndirectConfig> grid;  // Table 7's tagged grid
    for (const TaggedIndexScheme scheme :
         {TaggedIndexScheme::Address, TaggedIndexScheme::HistoryConcat,
          TaggedIndexScheme::HistoryXor})
        for (const unsigned ways : {1u, 2u, 4u, 8u, 16u})
            grid.push_back(taggedConfig(scheme, ways));

    for (const std::string &name : segmentedWorkloads()) {
        const auto trace = spanned(spans, "corpus.load_segmented", [&] {
            return corpus->loadSegmented(CorpusKey{name, o.seed, o.ops},
                                         segmentOps(o.ops));
        });
        if (!trace)
            throw std::runtime_error("no segmented input for " + name);
        const FrontendStats streaming =
            spanned(spans, "harness.shard.accuracy_streaming",
                    [&] { return runAccuracyStreaming(trace, replayed); });
        const ShardedAccuracyResult sharded =
            spanned(spans, "harness.shard.accuracy_sharded", [&] {
                return runAccuracySharded(
                    trace, replayed, {.shards = 4, .threads = o.jobs});
            });
        const BranchStream stream =
            spanned(spans, "trace.extract_segmented",
                    [&] { return extractBranchStream(*trace); });
        const auto swept = spanned(spans, "harness.sweep.run",
                                   [&] { return runSweep(stream, grid); });
        const CoreResult core =
            spanned(spans, "harness.shard.timing_streaming",
                    [&] { return runTimingStreaming(trace, timed); });

        out.checks[name + ".shard_proofs"] = sharded.verified();
        out.checks[name + ".sharded_equals_streaming"] =
            bench::sameFrontendStats(sharded.stats, streaming) &&
            bench::sameFrontendStats(sharded.serial, streaming);

        std::string text = "[" + name + "]\nstreaming " +
                           replayed.describe() + ": indirect " +
                           ratio(streaming.indirectJumps) + ", all " +
                           ratio(streaming.allBranches) + ", btb " +
                           ratio(streaming.btbHits) + "\n";
        for (size_t i = 0; i < grid.size(); ++i)
            text += "sweep " + grid[i].describe() + ": indirect " +
                    ratio(swept[i].indirectJumps) + "\n";
        text += "timing " + timed.describe() + ": cycles " +
                std::to_string(core.cycles) + ", instructions " +
                std::to_string(core.instructions) + ", indirect " +
                ratio(core.frontend.indirectJumps) + "\n";
        out.artifacts[name] = text;
    }
}

struct WorkloadSpec
{
    const char *name;
    void (*setup)(const Options &, SpanRecorder &);
    void (*run)(const Options &, SpanRecorder &, Outputs &);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper-warm", setupPaperWarm, runPaperWarm},
    {"tune-exhaustive", setupTune, runTune},
    {"corpus-build", setupCorpusBuild, runCorpusBuild},
    {"segmented-stream", setupSegmented, runSegmented},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "tpred_e2e: %s\nusage: tpred_e2e --phase setup|run "
                 "--workload W --seed S --ops N --corpus DIR --jobs J "
                 "--out FILE [--trace] [--sample K]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseU64(const std::string &text, const char *what)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(std::string(what) + ": expected an unsigned integer, got '" +
              text + "'");
    return std::stoull(text);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--trace") {
            o.trace = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + ": missing value");
        const std::string value = argv[++i];
        if (flag == "--phase")
            o.phase = value;
        else if (flag == "--workload")
            o.workload = value;
        else if (flag == "--corpus")
            o.corpus = value;
        else if (flag == "--out")
            o.out = value;
        else if (flag == "--seed")
            o.seed = parseU64(value, "--seed");
        else if (flag == "--sample")
            o.sample = parseU64(value, "--sample");
        else if (flag == "--ops")
            o.ops = parseOps(value, "--ops");
        else if (flag == "--jobs")
            o.jobs = parseJobsValue(value.c_str(), "--jobs");
        else
            usage("unknown flag " + flag);
    }
    if (o.phase != "setup" && o.phase != "run")
        usage("--phase must be setup or run");
    if (o.workload.empty() || o.corpus.empty() || o.out.empty() ||
        o.ops == 0)
        usage("--workload, --ops, --corpus and --out are required");
    return o;
}

template <typename V>
std::string
jsonObject(const std::map<std::string, V> &m,
           const std::function<std::string(const V &)> &value)
{
    std::string out = "{";
    for (const auto &[key, v] : m)
        out += (out.size() > 1 ? ",\n  " : "\n  ") + e2e::jsonString(key) +
               ": " + value(v);
    return out + "}";
}

std::string
fingerprint(unsigned jobs)
{
#ifdef NDEBUG
    const bool assertions = false;
#else
    const bool assertions = true;
#endif
    return std::string("{\"jobs\": ") + std::to_string(jobs) +
           ", \"simd_isa\": " + e2e::jsonString(simd::activeIsa()) +
           ", \"native\": " + (TPRED_E2E_NATIVE ? "true" : "false") +
           ", \"compiler\": " + e2e::jsonString("gcc " __VERSION__) +
           ", \"build_type\": " + e2e::jsonString(TPRED_E2E_BUILD_TYPE) +
           ", \"assertions\": " + (assertions ? "true" : "false") + "}";
}

/** The deterministic counter families whose deltas pin correctness. */
std::map<std::string, uint64_t>
pinnedCounters(const std::map<std::string, uint64_t> &before)
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] :
         e2e::delta(before, obs::globalMetrics().snapshot().counters)) {
        for (const char *prefix :
             {"core.", "sweep.", "btb.", "tune.", "shard."})
            if (name.starts_with(prefix))
                out[name] = value;
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write " + path);
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    if (std::fclose(f) != 0 || !ok)
        throw std::runtime_error("short write to " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (o.workload == w.name)
            spec = &w;
    if (spec == nullptr)
        usage("unknown workload " + o.workload);

    try {
        const unsigned jobs = o.jobs != 0 ? o.jobs : defaultJobs();
        setDefaultJobs(jobs);
        const bool setup = o.phase == "setup";
        SpanRecorder spans(o.trace, o.sample);
        const auto counters_before = std::map<std::string, uint64_t>(
            obs::globalMetrics().snapshot().counters);
        Outputs out;
        const uint64_t start = e2e::monotonicNs();
        {
            const Span root(spans, o.phase + "." + o.workload);
            if (setup)
                spec->setup(o, spans);
            else
                spec->run(o, spans, out);
        }
        const uint64_t wall = e2e::monotonicNs() - start;

        std::string doc = "{\"phase\": " + e2e::jsonString(o.phase) +
                          ", \"workload\": " + e2e::jsonString(o.workload) +
                          ", \"seed\": " + std::to_string(o.seed) +
                          ", \"ops\": " + std::to_string(o.ops) +
                          ", \"root_wall_ns\": " + std::to_string(wall) +
                          ",\n\"fingerprint\": " + fingerprint(jobs);
        if (!setup) {
            doc += ",\n\"artifacts\": " +
                   jsonObject<std::string>(out.artifacts,
                                           [](const std::string &s) {
                                               return e2e::jsonString(s);
                                           }) +
                   ",\n\"checks\": " +
                   jsonObject<bool>(out.checks,
                                    [](const bool &b) {
                                        return std::string(b ? "true"
                                                             : "false");
                                    }) +
                   ",\n\"counters\": " +
                   jsonObject<uint64_t>(pinnedCounters(counters_before),
                                        [](const uint64_t &v) {
                                            return std::to_string(v);
                                        });
        }
        doc += ",\n\"traceEvents\": " + spans.chromeEvents(setup ? 1 : 2) +
               "}\n";
        writeFile(o.out, doc);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tpred_e2e: %s\n", e.what());
        return 1;
    }
    return 0;
}
