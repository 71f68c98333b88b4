/**
 * @file
 * One place for the option vocabulary every tpred binary shares.
 *
 * Before this existed, the knobs lived in four env vars parsed in
 * four places (TPRED_JOBS in parallel_runner.cc, TPRED_OPS in
 * experiment.cc, TPRED_CORPUS_DIR and TPRED_VERBOSE in
 * trace_cache.cc) plus per-tool argv parsing.  RunOptions parses the
 * whole set once — env first, argv overriding — with resolveOps()'s
 * fail-loud contract: a malformed value prints to stderr and exits
 * with status 2, never a silent fallback.
 *
 * Recognized argv (consumed; tool-specific flags are left in place):
 *
 *   N (argv[1])       instruction count (benches' positional arg)
 *   --ops N           instruction count
 *   --jobs N          worker threads (0 = hardware concurrency)
 *   --corpus DIR      persistent trace corpus directory
 *   --report FILE     write a tpred-run-report/1 JSON file
 *   --verbose         log cache/corpus traffic to stderr
 *
 * Environment: TPRED_OPS, TPRED_JOBS, TPRED_CORPUS_DIR, TPRED_REPORT,
 * TPRED_VERBOSE.
 */

#ifndef TPRED_HARNESS_RUN_OPTIONS_HH
#define TPRED_HARNESS_RUN_OPTIONS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace tpred
{

struct RunOptions
{
    size_t ops = 0;          ///< resolved instruction budget
    unsigned jobs = 0;       ///< 0 = automatic (hardware concurrency)
    std::string corpusDir;   ///< empty = no corpus requested
    std::string reportPath;  ///< empty = no report requested
    bool verbose = false;

    /**
     * Parses the shared vocabulary from the environment and argv.
     *
     * Recognized flags (and, when @p positional_ops, a numeric
     * argv[1]) are removed from argv/argc so a tool-specific parser
     * sees only what is left.  Precedence: argv over environment
     * over @p fallback_ops.  Malformed values (non-numeric ops or
     * jobs, missing flag argument) print to stderr and exit 2.
     *
     * @param positional_ops Treat a non-flag argv[1] as the
     *        instruction count (bench convention).  Disable for
     *        tools whose argv[1] is a subcommand (tpredcorpus).
     */
    static RunOptions fromEnvAndArgv(int &argc, char **argv,
                                     size_t fallback_ops,
                                     bool positional_ops = true);

    /**
     * Applies the process-wide effects: default job count, verbose
     * logging, and (when corpusDir is set) attaching a CorpusManager
     * to the global trace cache.
     * @throws std::runtime_error when the corpus dir cannot be made.
     */
    void apply() const;
};

/**
 * Whether verbose cache/corpus traffic logging is enabled: set
 * explicitly via setVerboseLogging() / RunOptions::apply(), else the
 * TPRED_VERBOSE environment variable (any value but "" and "0").
 */
bool verboseLogging();

/** Overrides the TPRED_VERBOSE-derived default. */
void setVerboseLogging(bool enabled);

/**
 * Strictly parses an unsigned decimal value: one or more digits, no
 * sign, spaces or suffix, at most @p max.  Prints to stderr and exits
 * 2 on anything else — the contract of every numeric tpred flag, so
 * "--seed x" never silently becomes 0.
 * @param what Label used in the error message ("--seed", "TPRED_JOBS").
 */
uint64_t parseUnsignedValue(const char *text, const char *what,
                            uint64_t max);

/** parseUnsignedValue() bounded by the range of @p T. */
template <typename T>
T
parseUnsigned(const char *text, const char *what)
{
    return static_cast<T>(
        parseUnsignedValue(text, what, std::numeric_limits<T>::max()));
}

/**
 * Strictly parses a worker-thread count (0 = automatic allowed) —
 * shared by RunOptions and the TPRED_JOBS fallback in defaultJobs().
 * @param what Label used in the error message ("--jobs", "TPRED_JOBS").
 */
unsigned parseJobsValue(const char *text, const char *what);

} // namespace tpred

#endif // TPRED_HARNESS_RUN_OPTIONS_HH
