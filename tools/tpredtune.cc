/**
 * @file
 * tpredtune — successive-halving autotuner over predictor config
 * spaces, reporting accuracy-per-bit Pareto frontiers.
 *
 *   tpredtune --space smoke
 *   tpredtune --space standard --ops 500000 --jobs 8
 *   tpredtune --space tiny --exhaustive --report tune.json
 *   tpredtune --space bench --workloads gcc,perl,xlisp --rungs 3
 *   tpredtune --list-spaces
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/parallel_runner.hh"
#include "harness/run_options.hh"
#include "tune/config_space.hh"
#include "tune/successive_halving.hh"
#include "tune/tune_report.hh"
#include "workloads/workload.hh"

using namespace tpred;

namespace
{

/** Tool-specific options; the shared vocabulary (--ops, --jobs,
 *  --corpus, --report, --verbose) is consumed by RunOptions first. */
struct Options
{
    std::string space = "smoke";
    std::string workloads;  ///< comma-separated; empty = headline
    unsigned rungs = 4;
    unsigned eta = 4;
    size_t minSurvivors = 8;
    size_t cap = tune::kDefaultSpaceCap;
    uint64_t seed = 1;
    bool exhaustive = false;
    bool listSpaces = false;
    bool listWorkloads = false;
};

[[noreturn]] void
usage()
{
    std::puts(
        "tpredtune — successive-halving predictor autotuner\n"
        "\n"
        "  --space NAME        preset config space        [smoke]\n"
        "                      (see --list-spaces)\n"
        "  --list-spaces       print the preset spaces and exit\n"
        "  --ops N             full-budget trace length   [2000000]\n"
        "  --rungs N           halving rungs (1 = exhaustive)  [4]\n"
        "  --eta N             budget growth / promotion divisor [4]\n"
        "  --min-survivors N   promotion floor per rung   [8]\n"
        "  --cap N             hard candidate cap         [4096]\n"
        "  --seed N            workload seed              [1]\n"
        "  --workloads A,B     workload classes searched  [gcc,perl]\n"
        "  --list-workloads    list registered workloads and exit\n"
        "  --exhaustive        evaluate every candidate at the full\n"
        "                      budget (reference mode)\n"
        "  --jobs N            worker threads for parallel runs\n"
        "                      [hardware concurrency]\n"
        "  --corpus DIR        persistent trace corpus directory\n"
        "  --report FILE       write a tpred-tune-report/1 JSON file\n"
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
        if (arg == "--space")
            opt.space = need(i);
        else if (arg == "--list-spaces")
            opt.listSpaces = true;
        else if (arg == "--rungs")
            opt.rungs = parseUnsigned<unsigned>(need(i), "--rungs");
        else if (arg == "--eta")
            opt.eta = parseUnsigned<unsigned>(need(i), "--eta");
        else if (arg == "--min-survivors")
            opt.minSurvivors =
                parseUnsigned<size_t>(need(i), "--min-survivors");
        else if (arg == "--cap")
            opt.cap = parseUnsigned<size_t>(need(i), "--cap");
        else if (arg == "--seed")
            opt.seed = parseUnsigned<uint64_t>(need(i), "--seed");
        else if (arg == "--workloads")
            opt.workloads = need(i);
        else if (arg == "--exhaustive")
            opt.exhaustive = true;
        else if (arg == "--list-workloads")
            opt.listWorkloads = true;
        else
            usage();
    }
    return opt;
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= text.size()) {
        const size_t comma = text.find(',', start);
        const size_t end = comma == std::string::npos ? text.size()
                                                      : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    // Shared vocabulary first (consumes its flags), tool flags after.
    const RunOptions run = RunOptions::fromEnvAndArgv(
        argc, argv, /*fallback_ops=*/tpred::kDefaultAccuracyOps,
        /*positional_ops=*/false);
    const Options opt = parse(argc, argv);

    if (opt.listSpaces) {
        for (const std::string &name : tune::spaceNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (opt.listWorkloads) {
        for (const WorkloadInfo &info : workloadRegistry())
            std::printf("%-16s %s\n", info.name.c_str(),
                        info.description.c_str());
        return 0;
    }
    // Fail loud on unknown spaces with the usage exit status, before
    // any expensive work.
    if (!tune::isSpaceName(opt.space)) {
        std::fprintf(stderr,
                     "tpredtune: unknown space '%s' (have:",
                     opt.space.c_str());
        for (const std::string &name : tune::spaceNames())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, ")\n");
        return 2;
    }
    // Unknown workloads fail the same way: usage status, before any
    // traces are recorded.
    for (const std::string &name : splitCommas(opt.workloads)) {
        if (!isKnownWorkload(name)) {
            std::fprintf(stderr,
                         "tpredtune: unknown workload '%s' "
                         "(--list-workloads shows the registry)\n",
                         name.c_str());
            return 2;
        }
    }

    try {
        run.apply();

        const tune::ConfigSpace space =
            tune::enumerateSpace(opt.space, opt.cap);
        tune::TuneOptions topt;
        topt.fullOps = run.ops;
        topt.rungs = opt.exhaustive ? 1 : opt.rungs;
        topt.eta = opt.eta;
        topt.minSurvivors = opt.minSurvivors;
        topt.seed = opt.seed;
        topt.workloads = splitCommas(opt.workloads);

        std::printf("space: %s, %zu configs", space.name.c_str(),
                    space.candidates.size());
        if (space.truncated() > 0)
            std::printf(" (truncated from %zu)", space.enumerated);
        std::printf("\n");

        const tune::TuneResult result =
            tune::runSuccessiveHalving(space, topt);

        std::printf("workloads: ");
        for (size_t w = 0; w < result.workloads.size(); ++w)
            std::printf("%s%s", w ? "," : "",
                        result.workloads[w].c_str());
        std::printf("\n\nsearch trajectory:\n%s",
                    tune::renderRungTable(result).c_str());
        std::printf("\naggregate frontier (miss rate vs storage "
                    "bits):\n%s",
                    tune::renderFrontierTable(result.aggregateFrontier)
                        .c_str());
        std::printf("\nevaluations: %s total, %s at full budget "
                    "(exhaustive would pay %s; %s saved)\n",
                    formatCount(result.evals).c_str(),
                    formatCount(result.fullEvals).c_str(),
                    formatCount(result.exhaustiveEvals).c_str(),
                    formatCount(result.evalsSaved()).c_str());

        if (!run.reportPath.empty()) {
            obs::RunReport report = tune::makeTuneReport(
                "tpredtune", space, topt, result);
            report.setRuntimeInfo("jobs", defaultJobs());
            report.captureProcess();
            report.write(run.reportPath);
            std::printf("\nwrote report to %s\n",
                        run.reportPath.c_str());
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tpredtune: %s\n", e.what());
        return 1;
    }
}
