/**
 * @file
 * Streaming and sharded replay over segmented trace containers.
 *
 * Streaming replay (runAccuracyStreaming / runTimingStreaming) walks
 * a SegmentedTrace one mapped window at a time, so a trace of any
 * length replays at O(segment size) peak memory.
 *
 * Sharded accuracy replay splits one trace's replay into S contiguous
 * regions at boundaries b_k = floor(totalOps * k / S) and runs them as
 * ParallelRunner jobs.  Exactness — not approximation — comes from
 * explicit checkpoints:
 *
 *  1. A serial streaming pass replays the trace once, serializing the
 *     complete replay state (front end + indirect predictor + history
 *     tracker) at each shard's *checkpoint site* — the last segment
 *     boundary at or before b_k — and proof snapshots at every b_k
 *     and at the end of the trace.
 *  2. Each shard restores its site checkpoint into a fresh predictor
 *     stack, replays the short warm-up window [site_k, b_k) from its
 *     own segment windows, then its region [b_k, b_{k+1}).  At both
 *     edges the shard's state is re-serialized and byte-compared
 *     against the serial pass's snapshot at the same op position: the
 *     differential proof that sharded replay is bit-identical to the
 *     continuous serial replay (docs/parallelism.md gives the
 *     exactness argument).
 *
 * The returned stats come from the final shard's own replay, so the
 * bit-identity tests (tests/test_shard_replay.cc) compare two
 * genuinely independent computations.  Sharding cannot beat the
 * streaming replay its serial pass already is; it stays because the
 * segmented-stream workload of bench/e2e pins it.
 */

#ifndef TPRED_HARNESS_SHARD_REPLAY_HH
#define TPRED_HARNESS_SHARD_REPLAY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/segmented_trace.hh"
#include "harness/experiment.hh"
#include "trace/branch_stream.hh"

namespace tpred
{

/** How to shard a replay. */
struct ShardOptions
{
    unsigned shards = 1;   ///< number of contiguous regions S
    unsigned threads = 0;  ///< runner threads; 0 = defaultJobs()
};

/** What one shard did, and whether its differential proof held. */
struct ShardProof
{
    uint64_t checkpointOp = 0;  ///< restored-from segment boundary
    uint64_t beginOp = 0;       ///< b_k, start of the timed region
    uint64_t endOp = 0;         ///< b_{k+1}
    uint64_t warmupOps = 0;     ///< beginOp - checkpointOp
    bool entryMatched = false;  ///< warm-up reproduced serial @ b_k
    bool exitMatched = false;   ///< region end matched serial @ b_{k+1}
    std::string error;          ///< non-empty when the task failed

    bool ok() const { return entryMatched && exitMatched && error.empty(); }
};

/** Result of a sharded accuracy replay. */
struct ShardedAccuracyResult
{
    FrontendStats stats;    ///< from the final shard's replay
    FrontendStats serial;   ///< from the serial checkpoint pass
    std::vector<ShardProof> shards;
    uint64_t checkpointBytes = 0;  ///< total serialized state

    /** Every shard's boundary snapshots byte-matched the serial pass. */
    bool
    verified() const
    {
        for (const ShardProof &p : shards)
            if (!p.ok())
                return false;
        return !shards.empty();
    }
};

/**
 * Accuracy replay of the whole segmented trace, one segment window
 * resident at a time.  Bit-identical to runAccuracy() on the same ops.
 */
FrontendStats
runAccuracyStreaming(const std::shared_ptr<const SegmentedTrace> &trace,
                     const IndirectConfig &config,
                     const FrontendConfig &fe = {});

/**
 * Timing replay of the whole segmented trace through the core model,
 * one segment window resident at a time.  Bit-identical to
 * runTiming() on the same ops.
 */
CoreResult
runTimingStreaming(const std::shared_ptr<const SegmentedTrace> &trace,
                   const IndirectConfig &config,
                   const CoreParams &params = {},
                   const FrontendConfig &fe = {});

/** Sharded accuracy replay with differential checkpoint proofs. */
ShardedAccuracyResult
runAccuracySharded(const std::shared_ptr<const SegmentedTrace> &trace,
                   const IndirectConfig &config,
                   const ShardOptions &opts,
                   const FrontendConfig &fe = {});

/**
 * Extracts the dense branch stream of a segmented trace one window at
 * a time — O(branches) memory instead of O(ops) — so the fused sweep
 * kernel (harness/sweep_kernel.hh) can ride on segmented containers.
 * Identical to BranchStream::extract on the equivalent resident trace.
 */
BranchStream extractBranchStream(const SegmentedTrace &trace);

} // namespace tpred

#endif // TPRED_HARNESS_SHARD_REPLAY_HH
