/**
 * @file
 * Fused multi-config sweep kernel.
 *
 * Every paper table and ablation evaluates N IndirectConfigs against
 * the *same* trace.  runAccuracy() pays a full branch-column decode
 * and re-derives identical front-end state per config; for Table 9's
 * grid that is ten redundant passes per workload.  runSweep() fuses
 * the batch into one pass over the trace's cached BranchStream:
 *
 *  - The architectural front end (BTB, direction predictor, global
 *    history register, return address stack) is trained exclusively
 *    with architectural outcomes carried by the trace — never with
 *    predictions — so its state trajectory is identical for every
 *    config sharing one FrontendConfig.  It is simulated once per
 *    (stream, FrontendConfig) into a FrontendTape
 *    (core/frontend_predictor.hh), and every batch over that stream
 *    and front end replays the tape instead of N front ends, or one
 *    per batch.
 *  - Per-member predictor state lives in structure-of-arrays family
 *    groups (harness/batched_predictors.hh): lookups and updates are
 *    tight devirtualized loops over contiguous columns, with one
 *    history computation per distinct HistorySpec per branch.
 *  - Per-config divergence exists only at indirect jumps/calls — a
 *    small minority of branches.
 *
 * The returned FrontendStats are bit-identical to running each config
 * through runAccuracy() separately: shared accumulators cover the
 * classes whose outcomes cannot differ across members, and
 * allBranches is composed as shared-non-indirect + member-indirect
 * via RatioStat::merge (pure counter addition, order-free).
 *
 * Timing sweeps fuse too (runTimingSweep), in two passes.  The same
 * predictor pass runs once per batch and records an *outcome tape*:
 * what each member's core would read from its front end.  Per branch
 * that is the BTB-miss fetch bubble and a correctness bit, both shared
 * by every member and read from the front-end tape, except that at
 * indirect branches each member has its own correctness bit, which
 * the outcome tape keeps.  Cores then replay the tape: one lead core
 * carries member 0, and every other member rides it until an indirect
 * branch whose correctness differs from member 0's, where it continues
 * on a copy of the lead (copy-on-divergence) until its core is equal
 * to the lead's up to a cycle shift (rejoin-on-reconvergence).
 * Correctness and the bubble are the only coupling between the front
 * end and the core, and the core's decisions compare cycles only with
 * each other, so riding members share the lead's cycles exactly, up to
 * their shift; see docs/sweep_kernel.md for the exactness argument.
 *
 * Batching rule (when callers must fall back to separate batches):
 * all members of one batch share one FrontendConfig — grids that vary
 * the front end (Table 2's 2-bit BTB column, ablation 6's tournament
 * machine) issue one batch per front-end variant, down to a batch of
 * one.  Every predictor structure batches, in both kernels.
 */

#ifndef TPRED_HARNESS_SWEEP_KERNEL_HH
#define TPRED_HARNESS_SWEEP_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

/**
 * Thrown when a FrontendTape is replayed against a stream or a front
 * end it was not recorded from, instead of returning numbers.
 */
class TapeMismatch : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/**
 * Records @p trace's front-end tape under @p fe, over the trace's
 * cached BranchStream (building it on first use, counted in
 * sweep.streams_built like every sweep's).
 */
FrontendTape recordTape(const SharedTrace &trace,
                        const FrontendConfig &fe = {});

/**
 * Evaluates every config against @p trace in one fused pass.
 *
 * @param trace   The shared trace; its BranchStream is built lazily
 *                on first use and cached for all configs and threads.
 * @param configs The batch; histories may differ (trackers are
 *                grouped internally by HistorySpec).
 * @param fe      Front-end sizes shared by the whole batch.
 * @return Per-config statistics, in batch order, bit-identical to
 *         runAccuracy(trace, configs[i], fe) for each i.
 */
std::vector<FrontendStats> runSweep(const SharedTrace &trace,
                                    std::span<const IndirectConfig> configs,
                                    const FrontendConfig &fe = {});

/**
 * Same fused kernel over an already-extracted branch stream — the
 * entry point for segmented containers, whose dense stream is built
 * one window at a time by extractBranchStream
 * (harness/shard_replay.hh) instead of from a resident trace.
 * stream.opCount supplies the per-config instruction totals.
 */
std::vector<FrontendStats>
runSweep(const BranchStream &stream,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe = {});

/**
 * runSweep() replaying @p tape, recorded from @p trace's stream (or
 * from @p stream) under @p fe, instead of recording one: the entry
 * point for callers that sweep one stream many times.  Results and
 * every counter are those of the one-shot overloads above, which
 * record a tape and call these.
 * @throws TapeMismatch if @p tape was not recorded from this stream
 *         under @p fe.
 */
std::vector<FrontendStats> runSweep(const SharedTrace &trace,
                                    std::span<const IndirectConfig> configs,
                                    const FrontendConfig &fe,
                                    const FrontendTape &tape);
std::vector<FrontendStats> runSweep(const BranchStream &stream,
                                    std::span<const IndirectConfig> configs,
                                    const FrontendConfig &fe,
                                    const FrontendTape &tape);

/**
 * Op spacing of the fused timing sweep's rejoin checks: a member
 * running on its own core is compared with the lead at every op
 * position that is a multiple of this.  Chosen by measurement
 * (docs/sweep_kernel.md); not a knob.
 */
inline constexpr uint64_t kRejoinCheckOps = 128;

/**
 * Fused timing sweep: evaluates every config's timing run against
 * @p trace with one shared core trajectory, copy-on-divergence forks
 * and rejoin-on-reconvergence.
 *
 * Pass 1 is runSweep()'s predictor pass, replaying the front-end tape
 * of the trace's cached BranchStream and recording every member's
 * indirect-branch outcomes on an outcome tape.  In pass 2
 * the lead core replays member 0's outcomes through the resumable-
 * session API.  Every other member rides the lead — a cycle shift and
 * result-counter offsets, no core — until its next indirect branch
 * whose correctness differs from member 0's; there
 * CoreModel::forkFrom makes it a shifted copy of the suspended lead,
 * which runs on the member's outcomes and is compared with the lead
 * every kRejoinCheckOps ops.  When CoreModel::equalUpToShift holds,
 * the member rides again.  A member riding at the end takes the
 * lead's result, offset.
 *
 * @return Per-config results, in batch order, bit-identical to
 *         runTiming(trace, configs[i], params, fe) for each i —
 *         cycles, penalty breakdown, stats and the deterministic
 *         core.* counters all match.
 */
std::vector<CoreResult>
runTimingSweep(const SharedTrace &trace,
               std::span<const IndirectConfig> configs,
               const CoreParams &params = {},
               const FrontendConfig &fe = {});

/**
 * runTimingSweep() replaying @p tape, recorded from @p trace's stream
 * under @p fe (recordTape()); the overload above records one.
 * @throws TapeMismatch if it was not.
 */
std::vector<CoreResult>
runTimingSweep(const SharedTrace &trace,
               std::span<const IndirectConfig> configs,
               const CoreParams &params, const FrontendConfig &fe,
               const FrontendTape &tape);

/**
 * Partitions config indices into groups of equal HistorySpec, first-
 * seen order — the (workload x config-group) unit the paper-table
 * drivers parallelize over.
 */
std::vector<std::vector<size_t>>
groupByHistory(std::span<const IndirectConfig> configs);

} // namespace tpred

#endif // TPRED_HARNESS_SWEEP_KERNEL_HH
