#include "harness/run_options.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "corpus/corpus.hh"
#include "harness/experiment.hh"
#include "harness/parallel_runner.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"

namespace tpred
{

namespace
{

/** -1 = follow TPRED_VERBOSE; 0/1 = explicit override. */
std::atomic<int> g_verbose{-1};

[[noreturn]] void
die(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

bool
envTruthy(const char *value)
{
    return value != nullptr && *value != '\0' &&
           std::strcmp(value, "0") != 0;
}

} // namespace

uint64_t
parseUnsignedValue(const char *text, const char *what, uint64_t max)
{
    if (text == nullptr || *text == '\0')
        die(std::string(what) + ": empty value");
    uint64_t value = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            die(std::string(what) + ": malformed value '" + text +
                "' (expect a non-negative integer)");
        const auto digit = static_cast<uint64_t>(*p - '0');
        if (value > (max - digit) / 10)
            die(std::string(what) + ": value '" + text +
                "' is out of range (at most " + std::to_string(max) +
                ")");
        value = value * 10 + digit;
    }
    return value;
}

unsigned
parseJobsValue(const char *text, const char *what)
{
    return parseUnsigned<unsigned>(text, what);
}

RunOptions
RunOptions::fromEnvAndArgv(int &argc, char **argv, size_t fallback_ops,
                           bool positional_ops)
{
    RunOptions opt;
    opt.ops = fallback_ops;

    // Environment first; argv below overrides.
    try {
        if (const char *env = std::getenv("TPRED_OPS"))
            opt.ops = parseOps(env, "TPRED_OPS");
    } catch (const std::exception &e) {
        die(e.what());
    }
    if (const char *env = std::getenv("TPRED_JOBS"))
        opt.jobs = parseJobsValue(env, "TPRED_JOBS");
    if (const char *env = std::getenv("TPRED_CORPUS_DIR"))
        if (*env != '\0')
            opt.corpusDir = env;
    if (const char *env = std::getenv("TPRED_REPORT"))
        if (*env != '\0')
            opt.reportPath = env;
    opt.verbose = envTruthy(std::getenv("TPRED_VERBOSE"));

    // Consume recognized flags anywhere in argv; keep the rest in
    // order for the tool-specific parser.
    const auto value_of = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            die(std::string(flag) + ": missing argument");
        return argv[++i];
    };
    int kept = 1;
    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--ops") == 0)
                opt.ops = parseOps(value_of(i, "--ops"), "--ops");
            else if (std::strcmp(arg, "--jobs") == 0)
                opt.jobs =
                    parseJobsValue(value_of(i, "--jobs"), "--jobs");
            else if (std::strcmp(arg, "--corpus") == 0)
                opt.corpusDir = value_of(i, "--corpus");
            else if (std::strcmp(arg, "--report") == 0)
                opt.reportPath = value_of(i, "--report");
            else if (std::strcmp(arg, "--verbose") == 0)
                opt.verbose = true;
            else
                argv[kept++] = argv[i];
        }
    } catch (const std::exception &e) {
        die(e.what());
    }
    argc = kept;
    argv[argc] = nullptr;

    // Bench convention: a leading positional argument is the
    // instruction count, and it must parse — "2m" or "-3" die loudly
    // (resolveOps()'s contract), never run with a silent default.
    if (positional_ops && argc > 1) {
        try {
            opt.ops = parseOps(argv[1], "argv[1]");
        } catch (const std::exception &e) {
            die(e.what());
        }
        for (int i = 2; i < argc; ++i)
            argv[i - 1] = argv[i];
        argv[--argc] = nullptr;
    }
    return opt;
}

void
RunOptions::apply() const
{
    setDefaultJobs(jobs);
    setVerboseLogging(verbose);
    if (!corpusDir.empty())
        globalTraceCache().attachCorpus(std::make_shared<CorpusManager>(
            corpusDir, &obs::globalMetrics()));
}

bool
verboseLogging()
{
    const int overridden = g_verbose.load(std::memory_order_relaxed);
    if (overridden >= 0)
        return overridden != 0;
    static const bool from_env =
        envTruthy(std::getenv("TPRED_VERBOSE"));
    return from_env;
}

void
setVerboseLogging(bool enabled)
{
    g_verbose.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

} // namespace tpred
