#include "harness/shard_replay.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <span>

#include "common/state_io.hh"
#include "harness/parallel_runner.hh"
#include "obs/metrics.hh"

namespace tpred
{

namespace
{

// ---- Metrics ------------------------------------------------------
// The deterministic counters are incremented identically by the
// streaming and the sharded accuracy entry points, so a sharded
// replay is counter-indistinguishable from a continuous one but for
// the runner's count of its fan-out (asserted by
// tests/test_shard_replay.cc).  Window/warm-up/checkpoint counts
// depend on segment granularity and shard count, hence Runtime.

struct ShardMetrics
{
    obs::Counter accuracyRuns;
    obs::Counter timingRuns;
    obs::Counter opsReplayed;
    obs::Counter windowsOpened;
    obs::Counter checkpoints;
    obs::Counter checkpointBytes;
    obs::Counter warmupOps;
    obs::Counter proofMismatches;
};

const ShardMetrics &
shardMetrics()
{
    static const ShardMetrics m{
        obs::globalMetrics().counter("shard.accuracy_runs"),
        obs::globalMetrics().counter("shard.timing_runs"),
        obs::globalMetrics().counter("shard.ops_replayed"),
        obs::globalMetrics().counter("shard.windows_opened",
                                     obs::MetricKind::Runtime),
        obs::globalMetrics().counter("shard.checkpoints",
                                     obs::MetricKind::Runtime),
        obs::globalMetrics().counter("shard.checkpoint_bytes",
                                     obs::MetricKind::Runtime),
        obs::globalMetrics().counter("shard.warmup_ops",
                                     obs::MetricKind::Runtime),
        obs::globalMetrics().counter("shard.proof_mismatches",
                                     obs::MetricKind::Runtime),
    };
    return m;
}

// ---- Replay state -------------------------------------------------

/** Replay state: front end + borrowed predictor/tracker. */
struct ReplayRig
{
    PredictorStack stack;
    FrontendPredictor frontend;

    ReplayRig(const IndirectConfig &config, const FrontendConfig &fe)
        : stack(buildStack(config)),
          frontend(fe, stack.predictor.get(), stack.tracker.get())
    {
    }

    void
    save(StateWriter &w) const
    {
        frontend.saveState(w);
        if (stack.predictor) {
            stack.predictor->saveState(w);
            stack.tracker->saveState(w);
        }
    }

    void
    restore(StateReader &r)
    {
        frontend.restoreState(r);
        if (stack.predictor) {
            stack.predictor->restoreState(r);
            stack.tracker->restoreState(r);
        }
        r.expectEnd();
    }
};

std::vector<uint8_t>
snapshot(const ReplayRig &rig)
{
    StateWriter w;
    rig.save(w);
    return w.take();
}

/** Byte-exact comparison of a live state against a serial snapshot. */
bool
matches(const ReplayRig &rig, const std::vector<uint8_t> &expected)
{
    const bool equal = snapshot(rig) == expected;
    if (!equal)
        shardMetrics().proofMismatches.inc();
    return equal;
}

// ---- Shard geometry -----------------------------------------------

struct ShardPlan
{
    std::vector<uint64_t> bounds;  ///< b_0=0 .. b_S=totalOps
    std::vector<uint64_t> sites;   ///< checkpoint site per shard
    std::vector<uint64_t> points;  ///< serial capture set, ascending
};

ShardPlan
planShards(const SegmentedTrace &trace, unsigned shards)
{
    const uint64_t total = trace.totalOps();
    const unsigned s = std::max(1u, shards);
    ShardPlan plan;
    plan.bounds.resize(s + 1);
    for (unsigned k = 0; k <= s; ++k)
        plan.bounds[k] = total * k / s;
    plan.sites.resize(s);
    for (unsigned k = 0; k < s; ++k) {
        // The last segment boundary at or before b_k: where a
        // checkpoint can pair with a window that starts decoding
        // exactly there.
        plan.sites[k] =
            trace.record(trace.segmentContaining(plan.bounds[k]))
                .firstOp;
    }
    plan.points = plan.sites;
    plan.points.insert(plan.points.end(), plan.bounds.begin(),
                       plan.bounds.end() - 1);
    std::sort(plan.points.begin(), plan.points.end());
    plan.points.erase(
        std::unique(plan.points.begin(), plan.points.end()),
        plan.points.end());
    return plan;
}

// ---- Accuracy-range replayer --------------------------------------

/**
 * Replays global ops [from, to) through @p frontend via the branch-
 * index fast path, one segment window at a time, invoking
 * @p capture(pos) with the state positioned exactly *before* op @p pos
 * for every pos in @p points (ascending, each in [from, to]).
 */
void
replayAccuracyRange(const SegmentedTrace &trace,
                    FrontendPredictor &frontend, uint64_t from,
                    uint64_t to, std::span<const uint64_t> points,
                    const std::function<void(uint64_t)> &capture)
{
    size_t pi = 0;
    uint64_t consumed = from;
    const auto capture_upto = [&](uint64_t limit) {
        while (pi < points.size() && points[pi] <= limit) {
            frontend.skipNonBranches(points[pi] - consumed);
            consumed = points[pi];
            capture(points[pi]);
            ++pi;
        }
    };

    if (to > from) {
        for (size_t i = trace.segmentContaining(from);
             i < trace.segmentCount() && trace.record(i).firstOp < to;
             ++i) {
            const uint64_t base = trace.record(i).firstOp;
            const auto segment = trace.openSegment(i);
            shardMetrics().windowsOpened.inc();
            segment->forEachBranch(
                [&](const MicroOp &op, size_t pos) {
                    const uint64_t g = base + pos;
                    if (g < consumed || g >= to)
                        return;  // outside [from, to)
                    capture_upto(g);
                    frontend.skipNonBranches(g - consumed);
                    frontend.onInstruction(op);
                    consumed = g + 1;
                });
        }
    }
    capture_upto(to);
    frontend.skipNonBranches(to - consumed);
}

} // namespace

FrontendStats
runAccuracyStreaming(const std::shared_ptr<const SegmentedTrace> &trace,
                     const IndirectConfig &config,
                     const FrontendConfig &fe)
{
    const ShardMetrics &m = shardMetrics();
    m.accuracyRuns.inc();
    m.opsReplayed.inc(trace->totalOps());

    ReplayRig rig(config, fe);
    replayAccuracyRange(*trace, rig.frontend, 0, trace->totalOps(), {},
                        [](uint64_t) {});
    creditBtbCounters(rig.frontend.btb().hstats());
    return rig.frontend.stats();
}

CoreResult
runTimingStreaming(const std::shared_ptr<const SegmentedTrace> &trace,
                   const IndirectConfig &config,
                   const CoreParams &params, const FrontendConfig &fe)
{
    const ShardMetrics &m = shardMetrics();
    m.timingRuns.inc();
    m.opsReplayed.inc(trace->totalOps());

    ReplayRig rig(config, fe);
    CoreModel core(params);
    SegmentedReplay replay(trace, [&m] { m.windowsOpened.inc(); });
    const CoreResult result =
        core.run(replay, rig.frontend, trace->totalOps());
    creditBtbCounters(rig.frontend.btb().hstats());
    return result;
}

ShardedAccuracyResult
runAccuracySharded(const std::shared_ptr<const SegmentedTrace> &trace,
                   const IndirectConfig &config,
                   const ShardOptions &opts, const FrontendConfig &fe)
{
    const ShardMetrics &m = shardMetrics();
    m.accuracyRuns.inc();
    m.opsReplayed.inc(trace->totalOps());

    const uint64_t total = trace->totalOps();
    const ShardPlan plan = planShards(*trace, opts.shards);
    const unsigned shards =
        static_cast<unsigned>(plan.sites.size());

    // Serial checkpoint pass: the only full-trace walk.  Snapshots
    // land keyed by op position; proof positions and checkpoint sites
    // that coincide share one blob.
    std::map<uint64_t, std::vector<uint8_t>> blobs;
    ReplayRig serial(config, fe);
    std::vector<uint64_t> points = plan.points;
    points.push_back(total);  // final proof, after the last op
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    replayAccuracyRange(*trace, serial.frontend, 0, total, points,
                        [&](uint64_t pos) {
                            blobs[pos] = snapshot(serial);
                        });

    ShardedAccuracyResult out;
    // The serial checkpoint pass replays the whole trace exactly once;
    // it is the counted pass.  Shard fan-out rigs below never credit.
    creditBtbCounters(serial.frontend.btb().hstats());
    out.serial = serial.frontend.stats();
    out.shards.resize(shards);
    for (const auto &[pos, blob] : blobs)
        out.checkpointBytes += blob.size();
    m.checkpoints.inc(blobs.size());
    m.checkpointBytes.inc(out.checkpointBytes);

    // Shard fan-out: each job restores its site checkpoint, warms up
    // to b_k, replays its region, and byte-compares both edges.
    FrontendStats final_stats;
    ParallelRunner(opts.threads).forEach(shards, [&](size_t k) {
        ShardProof &p = out.shards[k];
        p.checkpointOp = plan.sites[k];
        p.beginOp = plan.bounds[k];
        p.endOp = plan.bounds[k + 1];
        p.warmupOps = p.beginOp - p.checkpointOp;
        m.warmupOps.inc(p.warmupOps);
        const bool last = k + 1 == shards;
        try {
            ReplayRig shard(config, fe);
            StateReader r(blobs.at(p.checkpointOp));
            shard.restore(r);
            const uint64_t end = last ? total : p.endOp;
            const std::array<uint64_t, 2> edges{p.beginOp, end};
            int edge = 0;
            replayAccuracyRange(
                *trace, shard.frontend, p.checkpointOp, end, edges,
                [&](uint64_t pos) {
                    const bool ok = matches(shard, blobs.at(pos));
                    (edge++ == 0 ? p.entryMatched : p.exitMatched) = ok;
                });
            if (last)
                final_stats = shard.frontend.stats();
        } catch (const std::exception &e) {
            p.error = e.what();
        }
    });
    out.stats = final_stats;
    return out;
}

BranchStream
extractBranchStream(const SegmentedTrace &trace)
{
    if (trace.totalOps() > UINT32_MAX)
        throw std::length_error(
            "extractBranchStream: BranchStream positions are 32-bit; "
            "trace has " + std::to_string(trace.totalOps()) + " ops");
    BranchStreamBuilder out;
    out.opCount = trace.totalOps();
    out.reserve(trace.totalBranches());

    for (size_t i = 0; i < trace.segmentCount(); ++i) {
        const uint32_t base =
            static_cast<uint32_t>(trace.record(i).firstOp);
        const auto segment = trace.openSegment(i);
        shardMetrics().windowsOpened.inc();
        const BranchStream part = BranchStream::extract(*segment);
        for (size_t j = 0; j < part.size(); ++j)
            out.pos.push_back(base + part.pos[j]);
        out.pc.insert(out.pc.end(), part.pc.begin(), part.pc.end());
        out.target.insert(out.target.end(), part.target.begin(),
                          part.target.end());
        out.fallthrough.insert(out.fallthrough.end(),
                               part.fallthrough.begin(),
                               part.fallthrough.end());
        out.kind.insert(out.kind.end(), part.kind.begin(),
                        part.kind.end());
        out.taken.insert(out.taken.end(), part.taken.begin(),
                         part.taken.end());
    }
    return std::move(out).finish();
}

} // namespace tpred
