/**
 * @file
 * Branch-stream pipeline microbenchmark: what do the stream tier,
 * segmented extraction and the SIMD way scans buy?  Per
 * SPECint95-analogue workload:
 *
 *   cold stream   — map + CRC-validate the corpus *trace* container,
 *                   then extract its BranchStream (what every
 *                   accuracy consumer paid before the stream tier);
 *   warm stream   — map + CRC-validate the derived TPBS stream
 *                   container (the stream tier's zero-copy path: no
 *                   trace decode, no extraction pass, ~half the
 *                   checksummed bytes);
 *   seg extract   — stream extraction from the segmented container,
 *                   one segment window at a time;
 *   sweep scl/simd— the fused accuracy sweep with the way-scan SIMD
 *                   kernels pinned scalar vs dispatched (identical
 *                   on binaries built without AVX2).
 *
 * Untimed self-checks gate every timed lane: the TPBS round trip
 * must reproduce the extracted stream bit-for-bit and drive the
 * fused sweep to identical FrontendStats; segmented extraction must
 * equal the resident extraction; the scalar and SIMD sweep paths must
 * agree exactly.  With --self-check the binary runs only those gates
 * (the perf-smoke ctest mode).  Results go to stdout and
 * BENCH_stream.json (override with TPRED_BENCH_OUT) as a
 * tpred-run-report/1 document for tools/bench_compare.py.
 */

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hh"
#include "common/simd.hh"
#include "corpus/corpus.hh"
#include "corpus/segmented_trace.hh"
#include "harness/shard_replay.hh"
#include "harness/sweep_kernel.hh"
#include "trace/branch_stream.hh"
#include "workloads/workload.hh"

using namespace tpred;

namespace
{

std::vector<IndirectConfig>
sweepBatch()
{
    return {
        taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(9)),
        cascadedConfig(),
    };
}

void
requireAllSame(const std::vector<FrontendStats> &want,
               const std::vector<FrontendStats> &got, const char *what,
               const std::string &workload)
{
    if (want.size() != got.size()) {
        std::fprintf(stderr, "FATAL: %s batch size mismatch on %s\n",
                     what, workload.c_str());
        std::exit(1);
    }
    for (size_t i = 0; i < want.size(); ++i)
        bench::requireSameStats(want[i], got[i], what, workload);
}

void
requireSameStream(const BranchStream &want, const BranchStream &got,
                  const char *what, const std::string &workload)
{
    if (want == got)
        return;
    std::fprintf(stderr, "FATAL: %s stream differs on %s\n", what,
                 workload.c_str());
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions opts =
        bench::setup(argc, argv, kDefaultAccuracyOps);
    bool self_check_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--self-check")
            self_check_only = true;
    }
    const size_t ops = opts.ops;
    const uint64_t seed = 1;
    const unsigned reps = 5;
    const size_t segment_ops = std::max<size_t>(1000, ops / 4);
    bench::heading(
        "Branch-stream pipeline: TPBS stream tier, segmented "
        "extraction and SIMD way scans",
        ops);

    const std::string corpus_dir =
        !opts.corpusDir.empty() ? opts.corpusDir : "bench_stream";
    CorpusManager corpus(corpus_dir);

    const auto &names = spec95Names();
    const std::vector<IndirectConfig> configs = sweepBatch();
    Table table;
    table.setHeader({"Benchmark", "cold Mops/s", "warm Mops/s",
                     "stream speedup", "seg extract", "sweep scl",
                     "sweep simd"});

    bench::LaneReport out("stream_pipeline", ops, "BENCH_stream.json");
    out.report().setConfig("simd_isa", simd::activeIsa());
    size_t ge2x = 0;
    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const CorpusKey key{name, seed, ops};

        // --- Populate (untimed): plain trace, segmented container
        // and the derived TPBS stream for the same key.
        const SharedTrace generated = recordWorkload(name, ops, seed);
        corpus.store(key, generated.compact(), generated.name());
        const auto source = makeWorkload(name, seed);
        corpus.storeSegmentedFromSource(key, *source, generated.name(),
                                        segment_ops);
        const auto seg = corpus.loadSegmented(key, segment_ops);
        if (!seg) {
            std::fprintf(stderr,
                         "FATAL: stored segmented entry for %s failed "
                         "to load\n",
                         name.c_str());
            return 1;
        }
        const BranchStream ref =
            BranchStream::extract(generated.compact());
        corpus.storeStream(key, ref, generated.name());

        // --- Self-check 1: the TPBS round trip must reproduce the
        // extracted stream exactly and sweep to identical stats.
        const auto warm_stream = corpus.loadStream(key);
        if (!warm_stream) {
            std::fprintf(stderr,
                         "FATAL: stored stream entry for %s failed "
                         "to load\n",
                         name.c_str());
            return 1;
        }
        requireSameStream(ref, *warm_stream, "TPBS round trip", name);
        const std::vector<FrontendStats> want =
            runSweep(ref, configs);
        requireAllSame(want, runSweep(*warm_stream, configs),
                       "TPBS sweep", name);

        // --- Self-check 2: segmented extraction must be
        // bit-identical to the resident reference.
        requireSameStream(ref, extractBranchStream(*seg),
                          "segmented extraction", name);

        // --- Self-check 3: scalar and SIMD way scans must sweep to
        // identical stats.
        simd::setForceScalar(true);
        const std::vector<FrontendStats> scalar_stats =
            runSweep(ref, configs);
        simd::setForceScalar(false);
        requireAllSame(want, scalar_stats, "scalar sweep", name);
        requireAllSame(want, runSweep(ref, configs), "simd sweep",
                       name);

        if (self_check_only)
            continue;

        const size_t trace_ops = generated.size();

        // --- Timed lanes.
        const double cold_mops =
            bench::measureMops(trace_ops, reps, [&] {
                const auto trace = corpus.load(key);
                if (trace)
                    BranchStream::extract(*trace);
            });
        const double warm_mops =
            bench::measureMops(trace_ops, reps, [&] {
                corpus.loadStream(key);
            });
        const double seg_mops =
            bench::measureMops(trace_ops, reps, [&] {
                extractBranchStream(*seg);
            });
        simd::setForceScalar(true);
        const double sweep_scalar_mops =
            bench::measureMops(trace_ops, reps, [&] {
                runSweep(ref, configs);
            });
        simd::setForceScalar(false);
        const double sweep_simd_mops =
            bench::measureMops(trace_ops, reps, [&] {
                runSweep(ref, configs);
            });

        const double speedup =
            cold_mops > 0.0 ? warm_mops / cold_mops : 0.0;
        if (speedup >= 2.0)
            ++ge2x;

        uint64_t stream_bytes = 0;
        for (const CorpusEntry &e : corpus.list(false))
            if (e.file == CorpusManager::streamFileName(key))
                stream_bytes = e.fileBytes;

        char buf[64];
        std::vector<std::string> row = {name};
        for (double v : {cold_mops, warm_mops}) {
            std::snprintf(buf, sizeof(buf), "%.1f", v);
            row.push_back(buf);
        }
        std::snprintf(buf, sizeof(buf), "%.1fx", speedup);
        row.push_back(buf);
        for (double v : {seg_mops, sweep_scalar_mops, sweep_simd_mops}) {
            std::snprintf(buf, sizeof(buf), "%.1f", v);
            row.push_back(buf);
        }
        table.addRow(row);

        out.value(name, "cold_stream_mops", cold_mops);
        out.value(name, "warm_stream_mops", warm_mops);
        out.value(name, "stream_speedup", speedup);
        out.value(name, "seg_sync_mops", seg_mops);
        out.value(name, "sweep_scalar_mops", sweep_scalar_mops);
        out.value(name, "sweep_simd_mops", sweep_simd_mops);
        out.value(name, "stream_bytes", stream_bytes);
    }

    if (self_check_only) {
        std::printf("self-checks passed on all %zu workloads "
                    "(timed lanes skipped)\n",
                    names.size());
        return 0;
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("stream speedup = warm TPBS load vs trace load + "
                "extraction, equal op budgets; >=2x on %zu of %zu "
                "workloads (simd isa: %s)\n",
                ge2x, names.size(), simd::activeIsa());

    return out.write();
}
