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
 *  - Per-config divergence exists only at indirect jumps/calls — a
 *    small minority of branches.  So the predictor pass
 *    (harness/batched_predictors.hh) walks the tape once for the
 *    history values, one computation per distinct HistorySpec per
 *    branch, and then runs the batch member by member over the
 *    indirect branches alone, each member's table hot; tagged caches
 *    that differ only in ways share one LRU stack per set.
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
 * Grids of cells (SweepGrid) are where sweeps are batched, in one
 * place for every driver: one front-end tape per (row x front end),
 * one fused sweep per (row x front end x history group), cells
 * scattered back in (row, column) order.  A fused batch shares one
 * FrontendConfig; every predictor structure batches, in both kernels.
 */

#ifndef TPRED_HARNESS_SWEEP_KERNEL_HH
#define TPRED_HARNESS_SWEEP_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harness/experiment.hh"

namespace tpred
{

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
 * One column of a SweepGrid: a target-cache config and the front end
 * it runs under.
 */
struct SweepColumn
{
    IndirectConfig config;
    FrontendConfig frontend{};
};

/**
 * A (row x column) grid of sweep cells: the one place where fused
 * sweeps are batched.  Rows are traces (accuracy and timing cells) or
 * branch streams (accuracy cells only); each call names its columns.
 *
 *  - The grid records one FrontendTape per (row x distinct front end)
 *    on first use, and every later call on the grid replays it.
 *  - Each call runs one fused sweep per (row x front end x history
 *    group) as a ParallelRunner job, members in column order.  The
 *    kernel would take mixed histories in one batch; bench/e2e pins
 *    the sweep.batches and sweep.history_groups this split yields.
 *  - Cells come back in (row, column) order, row-major.
 *
 * A call may not run concurrently with another call on the same grid
 * (it records into the grid's tapes); its jobs run in parallel.
 */
class SweepGrid
{
  public:
    /** A grid whose rows are @p traces. */
    explicit SweepGrid(std::vector<SharedTrace> traces);

    /** A grid whose rows are @p streams: accuracy() only. */
    explicit SweepGrid(
        std::vector<std::shared_ptr<const BranchStream>> streams);

    /**
     * Cell (r, c), at index r * columns.size() + c, is bit-identical to
     * runAccuracy() of row r under columns[c].
     */
    std::vector<FrontendStats>
    accuracy(std::span<const SweepColumn> columns);

    /**
     * Cell (r, c), at index r * columns.size() + c, is bit-identical to
     * runTiming() of row r under columns[c] on the default machine
     * (CoreParams{}).
     * @throws std::logic_error on a grid of branch streams.
     */
    std::vector<CoreResult> timing(std::span<const SweepColumn> columns);

  private:
    size_t rows() const;

    template <typename Cell, typename Sweep>
    std::vector<Cell> run(std::span<const SweepColumn> columns,
                          const Sweep &sweep);

    std::vector<SharedTrace> traces_;  ///< rows, or empty
    std::vector<std::shared_ptr<const BranchStream>> streams_;  ///< or these
    std::vector<FrontendConfig> frontends_;  ///< distinct, first use first
    std::vector<FrontendTape> tapes_;        ///< [frontend * rows + row]
};

} // namespace tpred

#endif // TPRED_HARNESS_SWEEP_KERNEL_HH
