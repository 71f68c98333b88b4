/**
 * @file
 * Successive-halving search engine over a ConfigSpace.
 *
 * The classic multi-armed-bandit budget schedule applied to predictor
 * tuning: rung r evaluates the surviving candidates on a short trace
 * prefix (fullOps / eta^(R-1-r) instructions), ranks them by
 * aggregate indirect miss rate, and promotes roughly the top 1/eta —
 * plus each storage budget's leader, so the cheap end of the eventual
 * Pareto frontier survives a ranking that accuracy alone would starve
 * — to the next rung; only the final rung's survivors pay for
 * full-trace replay.  Each rung is one SweepGrid call over cached
 * BranchStreams (harness/sweep_kernel.hh): fused sweeps, one per
 * (workload x front end x history group) ParallelRunner job, over one
 * front-end tape per (workload x front end), so one rung costs a
 * handful of trace passes no matter how many hundreds of configs it
 * holds.
 *
 * Determinism contract (the report byte-identity tests rest on it):
 *
 *  - Workload traces are deterministic per (name, ops, seed), and a
 *    rung-r prefix trace is recorded through the shared TraceCache
 *    exactly like any paper table's.
 *  - Ranking compares miss rates as exact rationals; ties break by
 *    ascending (storageBits, id) — a total order seeded by the
 *    configs themselves, never wall clock or scheduling.
 *  - Jobs are keyed by index through ParallelRunner, so results are
 *    bit-identical for --jobs 1 and --jobs N.
 *
 * Deterministic counters (obs registry): tune.rungs, tune.evals,
 * tune.promotions, tune.full_evals, tune.frontier_size.
 */

#ifndef TPRED_TUNE_SUCCESSIVE_HALVING_HH
#define TPRED_TUNE_SUCCESSIVE_HALVING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tune/config_space.hh"
#include "tune/pareto.hh"

namespace tpred::tune
{

/** Search parameters. */
struct TuneOptions
{
    size_t fullOps = kDefaultAccuracyOps;  ///< final-rung trace length
    unsigned rungs = 4;        ///< rung count (1 = exhaustive)
    unsigned eta = 4;          ///< budget growth / promotion divisor
    size_t minSurvivors = 8;   ///< promotion floor per rung
    size_t minRungOps = 2000;  ///< shortest prefix worth replaying
    uint64_t seed = 1;         ///< workload seed
    /** Workload classes searched; empty = headlineWorkloads(). */
    std::vector<std::string> workloads;
};

/** One rung of the search trajectory. */
struct RungRecord
{
    size_t ops = 0;         ///< trace prefix length of this rung
    size_t population = 0;  ///< candidates evaluated
    size_t promoted = 0;    ///< candidates passed to the next rung
};

/** Per-workload accuracy of one candidate at the full budget. */
struct WorkloadEval
{
    uint64_t misses = 0;
    uint64_t total = 0;
    uint64_t instructions = 0;
};

/** One final-rung survivor with its full-budget evaluations. */
struct FinalistResult
{
    size_t candidate = 0;                  ///< index into the space
    std::vector<WorkloadEval> perWorkload; ///< aligned with workloads
    uint64_t aggMisses = 0;                ///< summed over workloads
    uint64_t aggTotal = 0;
};

/** Everything a search produces. */
struct TuneResult
{
    std::vector<std::string> workloads;  ///< resolved workload list
    std::vector<size_t> schedule;        ///< rung trace lengths
    std::vector<RungRecord> rungs;       ///< trajectory, rung order
    std::vector<FinalistResult> finalists;  ///< ascending candidate
    std::vector<ParetoPoint> aggregateFrontier;
    /** Per-workload frontiers, aligned with workloads. */
    std::vector<std::vector<ParetoPoint>> workloadFrontiers;

    uint64_t evals = 0;      ///< (candidate x workload) sweeps, all rungs
    uint64_t fullEvals = 0;  ///< final-rung (candidate x workload)
    uint64_t exhaustiveEvals = 0;  ///< space size x workloads

    /** Full evaluations an exhaustive search would have paid extra. */
    uint64_t
    evalsSaved() const
    {
        return exhaustiveEvals - fullEvals;
    }
};

/**
 * The rung trace lengths @p opt implies: fullOps / eta^(R-1-r),
 * clamped below by minRungOps (and by fullOps itself), last rung
 * always exactly fullOps.
 */
std::vector<size_t> rungSchedule(const TuneOptions &opt);

/**
 * Runs the successive-halving search over @p space.
 * @throws std::invalid_argument for unknown workload names or
 *         degenerate options (rungs == 0, eta < 2, fullOps == 0).
 */
TuneResult runSuccessiveHalving(const ConfigSpace &space,
                                const TuneOptions &opt);

/**
 * Exhaustive reference: every candidate at the full budget (a
 * one-rung schedule), same ranking, frontier and report shape.
 */
TuneResult runExhaustive(const ConfigSpace &space,
                         const TuneOptions &opt);

} // namespace tpred::tune

#endif // TPRED_TUNE_SUCCESSIVE_HALVING_HH
