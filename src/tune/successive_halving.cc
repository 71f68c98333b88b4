#include "tune/successive_halving.hh"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "harness/parallel_runner.hh"
#include "harness/paper_tables.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "workloads/workload.hh"

namespace tpred::tune
{

namespace
{

struct TuneCounters
{
    obs::Counter rungs;
    obs::Counter evals;
    obs::Counter promotions;
    obs::Counter fullEvals;
    obs::Counter frontierSize;
    obs::Timer phase;
};

TuneCounters &
counters()
{
    static TuneCounters c = {
        obs::globalMetrics().counter("tune.rungs"),
        obs::globalMetrics().counter("tune.evals"),
        obs::globalMetrics().counter("tune.promotions"),
        obs::globalMetrics().counter("tune.full_evals"),
        obs::globalMetrics().counter("tune.frontier_size"),
        obs::globalMetrics().timer("phase.tune"),
    };
    return c;
}

std::vector<std::string>
resolveWorkloads(const TuneOptions &opt)
{
    std::vector<std::string> names =
        opt.workloads.empty() ? headlineWorkloads() : opt.workloads;
    const auto &known = allWorkloadNames();
    for (const std::string &name : names) {
        if (std::find(known.begin(), known.end(), name) == known.end())
            throw std::invalid_argument("unknown workload: " + name);
    }
    return names;
}

void
validate(const TuneOptions &opt)
{
    if (opt.rungs == 0)
        throw std::invalid_argument("tune: rungs must be >= 1");
    if (opt.eta < 2)
        throw std::invalid_argument("tune: eta must be >= 2");
    if (opt.fullOps == 0)
        throw std::invalid_argument("tune: fullOps must be > 0");
    if (opt.minSurvivors == 0)
        throw std::invalid_argument("tune: minSurvivors must be >= 1");
}

/** Per-candidate evaluation at one rung, aligned with the workloads. */
struct RungEval
{
    std::vector<WorkloadEval> perWorkload;
    uint64_t aggMisses = 0;
    uint64_t aggTotal = 0;
};

/**
 * Evaluates @p members (candidate indices) on every workload's
 * @p ops -instruction prefix: one SweepGrid call whose rows are the
 * workloads and whose columns are the members, each under its own
 * front end.
 */
std::vector<RungEval>
evaluateRung(const ConfigSpace &space,
             const std::vector<size_t> &members,
             const std::vector<std::string> &workloads, size_t ops,
             uint64_t seed)
{
    // Accuracy-only rungs never need the full CompactTrace: the
    // branch-stream tier serves the dense stream straight from the
    // corpus (zero-copy) on warm runs, skipping trace decode and
    // extraction entirely.
    SweepGrid grid(ParallelRunner().map<std::shared_ptr<const BranchStream>>(
        workloads.size(), [&](size_t w) {
            return cachedBranchStream(workloads[w], ops, seed);
        }));
    std::vector<SweepColumn> columns;
    columns.reserve(members.size());
    for (size_t m : members)
        columns.push_back(
            {space.candidates[m].config, space.candidates[m].frontend});
    const std::vector<FrontendStats> cells = grid.accuracy(columns);

    std::vector<RungEval> evals(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
        RungEval &e = evals[i];
        e.perWorkload.resize(workloads.size());
        for (size_t w = 0; w < workloads.size(); ++w) {
            const FrontendStats &s = cells[w * members.size() + i];
            WorkloadEval &cell = e.perWorkload[w];
            cell.misses = s.indirectJumps.misses();
            cell.total = s.indirectJumps.total();
            cell.instructions = s.instructions;
            e.aggMisses += cell.misses;
            e.aggTotal += cell.total;
        }
    }
    return evals;
}

/**
 * The members to promote: the top ceil(n/eta) (floored at
 * minSurvivors) by ascending aggregate miss rate, ties broken by
 * ascending (storageBits, id) — PLUS every storage budget's leader
 * (the lowest-rate member at each distinct storageBits).  A tuner
 * ranking by accuracy alone would starve the cheap end of the
 * eventual Pareto frontier; carrying each budget's leader keeps the
 * frontier's support alive through every rung at the cost of a few
 * extra survivors.  Returned in ascending candidate order so the
 * next rung's batch order is canonical.
 */
std::vector<size_t>
promote(const ConfigSpace &space, const std::vector<size_t> &members,
        const std::vector<RungEval> &evals, const TuneOptions &opt)
{
    const size_t n = members.size();
    const size_t keep =
        std::min(n, std::max<size_t>(opt.minSurvivors,
                                     (n + opt.eta - 1) / opt.eta));
    const auto better = [&](size_t a, size_t b) {
        const int rate = compareMissRate(evals[a].aggMisses,
                                         evals[a].aggTotal,
                                         evals[b].aggMisses,
                                         evals[b].aggTotal);
        if (rate != 0)
            return rate < 0;
        const TuneCandidate &ca = space.candidates[members[a]];
        const TuneCandidate &cb = space.candidates[members[b]];
        if (ca.storageBits != cb.storageBits)
            return ca.storageBits < cb.storageBits;
        return ca.id < cb.id;
    };
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), better);

    std::vector<size_t> kept;
    kept.reserve(keep);
    for (size_t i = 0; i < keep; ++i)
        kept.push_back(members[order[i]]);
    // Budget leaders: the best member at each distinct storageBits.
    std::map<uint64_t, size_t> leaders;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t bits = space.candidates[members[i]].storageBits;
        const auto it = leaders.find(bits);
        if (it == leaders.end() || better(i, it->second))
            leaders[bits] = i;
    }
    for (const auto &[bits, i] : leaders)
        kept.push_back(members[i]);
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    return kept;
}

ParetoPoint
pointOf(const ConfigSpace &space, size_t candidate, uint64_t misses,
        uint64_t total)
{
    const TuneCandidate &c = space.candidates[candidate];
    ParetoPoint p;
    p.candidate = candidate;
    p.storageBits = c.storageBits;
    p.misses = misses;
    p.total = total;
    p.id = c.id;
    return p;
}

} // namespace

std::vector<size_t>
rungSchedule(const TuneOptions &opt)
{
    std::vector<size_t> schedule(opt.rungs);
    for (unsigned r = 0; r < opt.rungs; ++r) {
        size_t ops = opt.fullOps;
        for (unsigned d = 0; d + r + 1 < opt.rungs; ++d) {
            ops /= opt.eta;
            if (ops == 0)
                break;
        }
        schedule[r] =
            std::min(opt.fullOps, std::max(opt.minRungOps, ops));
    }
    schedule.back() = opt.fullOps;
    return schedule;
}

TuneResult
runSuccessiveHalving(const ConfigSpace &space, const TuneOptions &opt)
{
    validate(opt);
    TuneCounters &ctr = counters();
    const obs::ScopedTimer timer(ctr.phase);

    TuneResult result;
    result.workloads = resolveWorkloads(opt);
    result.schedule = rungSchedule(opt);
    result.exhaustiveEvals = static_cast<uint64_t>(
        space.candidates.size() * result.workloads.size());

    std::vector<size_t> members(space.candidates.size());
    for (size_t i = 0; i < members.size(); ++i)
        members[i] = i;

    for (size_t r = 0; r < result.schedule.size(); ++r) {
        const size_t ops = result.schedule[r];
        const bool last = r + 1 == result.schedule.size();
        const std::vector<RungEval> evals = evaluateRung(
            space, members, result.workloads, ops, opt.seed);
        ctr.rungs.inc();
        ctr.evals.inc(members.size() * result.workloads.size());
        result.evals += members.size() * result.workloads.size();

        RungRecord record;
        record.ops = ops;
        record.population = members.size();
        if (last) {
            record.promoted = 0;
            result.rungs.push_back(record);
            result.fullEvals = static_cast<uint64_t>(
                members.size() * result.workloads.size());
            ctr.fullEvals.inc(result.fullEvals);
            result.finalists.reserve(members.size());
            for (size_t i = 0; i < members.size(); ++i) {
                FinalistResult fin;
                fin.candidate = members[i];
                fin.perWorkload = evals[i].perWorkload;
                fin.aggMisses = evals[i].aggMisses;
                fin.aggTotal = evals[i].aggTotal;
                result.finalists.push_back(std::move(fin));
            }
            break;
        }
        const std::vector<size_t> kept =
            promote(space, members, evals, opt);
        record.promoted = kept.size();
        result.rungs.push_back(record);
        ctr.promotions.inc(kept.size());
        members = kept;
    }

    // Frontiers: aggregate and per workload class, over the
    // full-budget evaluations only.
    std::vector<ParetoPoint> agg;
    agg.reserve(result.finalists.size());
    for (const FinalistResult &fin : result.finalists)
        agg.push_back(pointOf(space, fin.candidate, fin.aggMisses,
                              fin.aggTotal));
    result.aggregateFrontier = paretoFrontier(std::move(agg));
    ctr.frontierSize.inc(result.aggregateFrontier.size());

    result.workloadFrontiers.resize(result.workloads.size());
    for (size_t w = 0; w < result.workloads.size(); ++w) {
        std::vector<ParetoPoint> points;
        points.reserve(result.finalists.size());
        for (const FinalistResult &fin : result.finalists)
            points.push_back(pointOf(space, fin.candidate,
                                     fin.perWorkload[w].misses,
                                     fin.perWorkload[w].total));
        result.workloadFrontiers[w] = paretoFrontier(std::move(points));
    }
    return result;
}

TuneResult
runExhaustive(const ConfigSpace &space, const TuneOptions &opt)
{
    TuneOptions one = opt;
    one.rungs = 1;
    return runSuccessiveHalving(space, one);
}

} // namespace tpred::tune
