/**
 * @file
 * tpredcorpus — manages a persistent on-disk trace corpus.
 *
 *   tpredcorpus build  --dir corpus [--ops N] [--seed N] [WORKLOAD...]
 *   tpredcorpus ls     --dir corpus
 *   tpredcorpus verify --dir corpus
 *   tpredcorpus gc     --dir corpus [--max-bytes N]
 *
 * `build` records the named workloads (default: every workload) and
 * stores each as a checksummed CompactTrace container; existing
 * up-to-date entries are kept.  `verify` re-reads every container
 * with full CRC checking and exits non-zero if any fail.  `ls`
 * prints a table from the headers only, including each file's
 * artifact kind (plain / segmented / branch-stream) and on-disk
 * bytes.  `gc` deletes quarantined, temporary and corrupt files,
 * evicts oldest-first down to --max-bytes if given, and collects
 * branch-stream containers orphaned by their parent trace's removal.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <filesystem>

#include "common/stats.hh"
#include "corpus/corpus.hh"
#include "corpus/segmented_trace.hh"
#include "harness/experiment.hh"
#include "harness/run_options.hh"
#include "obs/run_report.hh"
#include "workloads/workload.hh"

using namespace tpred;

namespace
{

/** Tool-specific options; --ops (and the rest of the shared
 *  vocabulary) is consumed by RunOptions before parse() runs. */
struct Options
{
    std::string command;
    std::string dir;
    std::vector<std::string> workloads;
    size_t ops = kDefaultAccuracyOps;
    uint64_t seed = 1;
    uint64_t maxBytes = 0;
    size_t segmentOps = 0;  ///< >0 = build segmented containers
};

[[noreturn]] void
usage()
{
    std::fputs(
        "tpredcorpus — persistent trace corpus manager\n"
        "\n"
        "  tpredcorpus build  --dir DIR [--ops N] [--seed N] "
        "[--segment-ops N] [WORKLOAD...]\n"
        "  tpredcorpus ls     --dir DIR\n"
        "  tpredcorpus verify --dir DIR\n"
        "  tpredcorpus gc     --dir DIR [--max-bytes N]\n"
        "\n"
        "build records the listed workloads (default: all) into DIR;\n"
        "entries that already verify are kept.  With --segment-ops N\n"
        "each trace is written as a segmented container (N ops per\n"
        "segment), streamed from the generator at O(N) memory.\n"
        "verify exits 1 if any container fails its checksums and\n"
        "prints per-segment detail for segmented entries.\n",
        stderr);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Options opt;
    opt.command = argv[1];
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir")
            opt.dir = need(i);
        else if (arg == "--seed")
            opt.seed = parseUnsigned<uint64_t>(need(i), "--seed");
        else if (arg == "--max-bytes")
            opt.maxBytes = parseUnsigned<uint64_t>(need(i), "--max-bytes");
        else if (arg == "--segment-ops")
            opt.segmentOps = parseOps(need(i), "--segment-ops");
        else if (arg.starts_with("--"))
            usage();
        else
            opt.workloads.push_back(arg);
    }
    if (opt.dir.empty())
        usage();
    return opt;
}

int
cmdBuild(CorpusManager &corpus, const Options &opt)
{
    const std::vector<std::string> &names =
        opt.workloads.empty() ? allWorkloadNames() : opt.workloads;
    if (opt.segmentOps > 0) {
        // Segmented build streams straight from the generator: one
        // segment of ops is resident at a time, so --ops can exceed
        // memory by orders of magnitude.
        for (const std::string &name : names) {
            const CorpusKey key{name, opt.seed, opt.ops};
            if (auto existing =
                    corpus.loadSegmented(key, opt.segmentOps)) {
                std::printf(
                    "%-12s up to date (%llu ops, %zu segments)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(
                        existing->totalOps()),
                    existing->segmentCount());
                continue;
            }
            auto workload = makeWorkload(name, opt.seed);
            corpus.storeSegmentedFromSource(key, *workload,
                                            workload->name(),
                                            opt.segmentOps);
            const auto stored =
                corpus.loadSegmented(key, opt.segmentOps);
            std::printf(
                "%-12s recorded %s ops -> %s (%zu segments)\n",
                name.c_str(), formatCount(opt.ops).c_str(),
                corpus.segmentedFileName(key, opt.segmentOps).c_str(),
                stored ? stored->segmentCount() : 0);
        }
        return 0;
    }
    for (const std::string &name : names) {
        const CorpusKey key{name, opt.seed, opt.ops};
        if (auto existing = corpus.load(key)) {
            std::printf("%-12s up to date (%zu ops)\n", name.c_str(),
                        existing->size());
            continue;
        }
        const SharedTrace trace = recordWorkload(name, opt.ops,
                                                 opt.seed);
        corpus.store(key, trace.compact(), trace.name());
        std::printf("%-12s recorded %s ops -> %s\n", name.c_str(),
                    formatCount(trace.size()).c_str(),
                    corpus.fileName(key).c_str());
    }
    return 0;
}

int
cmdList(const CorpusManager &corpus, bool verify)
{
    const std::vector<CorpusEntry> entries = corpus.list(verify);
    if (entries.empty()) {
        std::printf("corpus %s is empty\n", corpus.dir().c_str());
        return 0;
    }
    int bad = 0;
    std::printf("%-44s %-13s %10s %10s %12s  %s\n", "file", "kind",
                "ops", "branches", "bytes",
                verify ? "verified" : "status");
    for (const CorpusEntry &e : entries) {
        if (e.ok) {
            std::printf("%-44s %-13s %10llu %10llu %12llu  ok\n",
                        e.file.c_str(), corpusArtifactName(e.kind),
                        static_cast<unsigned long long>(e.opCount),
                        static_cast<unsigned long long>(e.branchCount),
                        static_cast<unsigned long long>(e.fileBytes));
            if (verify && e.segmentCount > 0) {
                // Per-segment detail: the envelope was just verified
                // by list(), so this re-walk only reads the index.
                const auto trace = SegmentedTrace::open(
                    (std::filesystem::path(corpus.dir()) / e.file)
                        .string());
                for (size_t s = 0; s < trace->segmentCount(); ++s) {
                    const SegmentRecord &rec = trace->record(s);
                    std::printf(
                        "  segment %-4zu ops [%llu, %llu) %10llu "
                        "branches %12llu bytes  crc32c %08x  ok\n",
                        s,
                        static_cast<unsigned long long>(rec.firstOp),
                        static_cast<unsigned long long>(rec.firstOp +
                                                        rec.opCount),
                        static_cast<unsigned long long>(
                            rec.branchCount),
                        static_cast<unsigned long long>(rec.byteLen),
                        rec.crc);
                }
            }
        } else {
            ++bad;
            std::printf("%-44s %-13s %10s %10s %12s  BAD: %s\n",
                        e.file.c_str(), corpusArtifactName(e.kind),
                        "-", "-", "-", e.error.c_str());
        }
    }
    if (bad > 0)
        std::fprintf(stderr, "tpredcorpus: %d corrupt file(s)\n", bad);
    return bad > 0 ? 1 : 0;
}

int
cmdGc(CorpusManager &corpus, const Options &opt)
{
    const size_t removed = corpus.gc(opt.maxBytes);
    std::printf("removed %zu file(s)\n", removed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // argv[1] is a subcommand, so no positional instruction count.
    const RunOptions run = RunOptions::fromEnvAndArgv(
        argc, argv, kDefaultAccuracyOps, /*positional_ops=*/false);
    try {
        Options opt = parse(argc, argv);
        opt.ops = run.ops;
        setVerboseLogging(run.verbose);
        CorpusManager corpus(opt.dir, &obs::globalMetrics());
        int rc = 2;
        if (opt.command == "build")
            rc = cmdBuild(corpus, opt);
        else if (opt.command == "ls")
            rc = cmdList(corpus, false);
        else if (opt.command == "verify")
            rc = cmdList(corpus, true);
        else if (opt.command == "gc")
            rc = cmdGc(corpus, opt);
        else
            usage();
        if (!run.reportPath.empty()) {
            obs::RunReport report("tpredcorpus");
            report.setConfig("command", opt.command);
            report.setConfig("dir", opt.dir);
            report.setConfig("ops", static_cast<uint64_t>(opt.ops));
            report.captureProcess();
            report.write(run.reportPath);
        }
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tpredcorpus: %s\n", e.what());
        return 1;
    }
}
