#include "harness/sweep_kernel.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>

#include "bpred/btb_hierarchy.hh"
#include "bpred/gshare.hh"
#include "bpred/ras.hh"
#include "bpred/tournament.hh"
#include "harness/batched_predictors.hh"
#include "obs/metrics.hh"
#include "trace/branch_stream.hh"

namespace tpred
{

std::vector<std::vector<size_t>>
groupByHistory(std::span<const IndirectConfig> configs)
{
    std::vector<std::vector<size_t>> groups;
    std::vector<HistorySpec> specs;
    for (size_t i = 0; i < configs.size(); ++i) {
        const size_t g = findOrAppendHistorySpec(specs,
                                                 configs[i].history);
        if (g == groups.size())
            groups.emplace_back();
        groups[g].push_back(i);
    }
    return groups;
}

namespace
{

/**
 * Everything a batch member's core reads from its front end, for a
 * whole trace: per branch the fetch bubble and, outside indirect
 * (non-return) branches, the correctness every member shares; per
 * indirect branch each member's correctness, one bit per member.
 * Recorded by one predictor pass, replayed by every core of the
 * batch (TapeReplay).
 */
class OutcomeTape
{
  public:
    static constexpr uint64_t kNever = UINT64_MAX;

    explicit OutcomeTape(size_t members)
        : members_(members), stride_((members + 63) / 64)
    {
    }

    /** Appends a branch whose outcome every member shares. */
    void
    recordShared(bool correct, unsigned bubble)
    {
        branches_.push_back(pack(correct, bubble));
    }

    /** Appends an indirect branch at op @p pos, member by member. */
    void
    recordIndirect(uint32_t pos, unsigned bubble,
                   const BatchedPredictors &batch, uint64_t next_pc)
    {
        branches_.push_back(pack(false, bubble));
        indirectPos_.push_back(pos);
        const size_t row = memberBits_.size();
        memberBits_.resize(row + stride_, 0);
        for (size_t m = 0; m < members_; ++m) {
            if (batch.prediction(m) == next_pc)
                memberBits_[row + m / 64] |= uint64_t{1} << (m % 64);
        }
    }

    size_t branches() const { return branches_.size(); }

    /**
     * For each member, the op position of its first indirect branch
     * whose correctness differs from member 0's — where its core
     * trajectory leaves the lead's — or kNever.
     */
    std::vector<uint64_t>
    firstDivergence() const
    {
        std::vector<uint64_t> at(members_, kNever);
        // Members not yet diverged, member 0 excluded.
        std::vector<uint64_t> open(stride_, ~uint64_t{0});
        open[0] &= ~uint64_t{1};
        if (members_ % 64 != 0)
            open.back() &= (uint64_t{1} << (members_ % 64)) - 1;
        for (size_t j = 0; j < indirectPos_.size(); ++j) {
            const uint64_t *row = &memberBits_[j * stride_];
            const uint64_t lead = (row[0] & 1) != 0 ? ~uint64_t{0} : 0;
            for (size_t w = 0; w < stride_; ++w) {
                uint64_t diverged = (row[w] ^ lead) & open[w];
                open[w] &= ~diverged;
                for (; diverged != 0; diverged &= diverged - 1)
                    at[w * 64 + std::countr_zero(diverged)] =
                        indirectPos_[j];
            }
        }
        return at;
    }

  private:
    friend class TapeReplay;

    static uint32_t
    pack(bool correct, unsigned bubble)
    {
        assert(bubble <= UINT32_MAX >> 1);
        return bubble << 1 | (correct ? 1u : 0u);
    }

    bool
    memberCorrect(size_t indirect, size_t m) const
    {
        const uint64_t word = memberBits_[indirect * stride_ + m / 64];
        return (word >> (m % 64) & 1) != 0;
    }

    size_t members_;
    size_t stride_;                      ///< words per indirect branch
    std::vector<uint32_t> branches_;     ///< bubble << 1 | shared correct
    std::vector<uint32_t> indirectPos_;  ///< op position of each
    std::vector<uint64_t> memberBits_;   ///< stride_ words per row
};

/**
 * One member's outcome source over a tape: what that member's live
 * front end would have told the core, op by op.  Copying a replay
 * mid-trace and switching its member continues from the same op.
 */
class TapeReplay
{
  public:
    TapeReplay(const OutcomeTape &tape, size_t member)
        : tape_(&tape), member_(member)
    {
    }

    PredictionOutcome
    onInstruction(const MicroOp &op)
    {
        if (!op.isBranch())
            return {op.fallthrough, true, 0};
        const uint32_t word = tape_->branches_[branch_++];
        bool correct = (word & 1) != 0;
        if (isIndirectNonReturn(op.branch))
            correct = tape_->memberCorrect(indirect_++, member_);
        // The core never reads predictedNext, so the tape omits it.
        return {0, correct, word >> 1};
    }

    /** This replay's position, continuing on member @p m's outcomes. */
    TapeReplay
    forMember(size_t m) const
    {
        TapeReplay copy = *this;
        copy.member_ = m;
        return copy;
    }

    /** Branches replayed so far. */
    size_t branches() const { return branch_; }

  private:
    const OutcomeTape *tape_;
    size_t member_;
    size_t branch_ = 0;
    size_t indirect_ = 0;
};

/**
 * The fused predictor pass both sweep entry points share: one walk of
 * @p stream through one architectural front end and every member of
 * @p batch.  Returns per-member statistics, bit-identical to
 * runAccuracy() per config; with a @p tape it also records what each
 * member's core reads from its front end.
 */
std::vector<FrontendStats>
predictorPass(const BranchStream &stream, BatchedPredictors &batch,
              const FrontendConfig &fe, OutcomeTape *tape)
{
    // --- Shared architectural core --------------------------------
    // Trained only with architectural outcomes, so its trajectory is
    // independent of any member's predictions: one instance stands in
    // for the per-config copies runAccuracy() would build.
    std::unique_ptr<BtbHierarchy> btb = makeBtbHierarchy(fe.btb);
    GShare gshare(fe.gshareIndexBits);
    TournamentPredictor tournament(fe.tournament);
    PatternHistory ghr(fe.gshareHistoryBits);
    ReturnAddressStack ras(fe.rasDepth);
    const bool use_tournament =
        fe.direction == DirectionScheme::Tournament;

    // Accumulators for the classes whose outcomes are config-
    // independent; per-member divergence exists only at indirect
    // jumps and calls.
    RatioStat shared_non_indirect;  ///< allBranches minus indirect
    RatioStat cond_direction;
    RatioStat cond_branches;
    RatioStat uncond_direct;
    RatioStat returns;
    RatioStat btb_hits;

    const size_t n = stream.size();
    for (size_t i = 0; i < n; ++i) {
        const MicroOp op = stream.opAt(i);
        const uint64_t pc = stream.pc[i];
        const uint64_t next_pc = stream.target[i];
        const uint64_t fall = stream.fallthrough[i];
        const auto kind = static_cast<BranchKind>(stream.kind[i]);
        const bool taken = stream.taken[i] != 0;

        const BtbProbe probe = btb->lookup(pc);
        const std::optional<BtbPrediction> &btb_pred = probe.pred;
        btb_hits.record(btb_pred.has_value());
        // The late-redirect bubble of an L2-supplied probe, charged
        // only when the branch consumes the probe (as in
        // FrontendPredictor::onInstruction).
        unsigned bubble = probe.bubbleCycles;
        bool correct = true;

        switch (kind) {
          case BranchKind::CondDirect: {
            const bool dir = use_tournament
                                 ? tournament.predict(pc, ghr.value())
                                 : gshare.predict(pc, ghr.value());
            uint64_t predicted = fall;
            if (dir && btb_pred)
                predicted = btb_pred->target;
            if (!dir)
                bubble = 0;
            correct = predicted == next_pc;
            shared_non_indirect.record(correct);
            cond_direction.record(dir == taken);
            cond_branches.record(correct);
            break;
          }

          case BranchKind::UncondDirect:
          case BranchKind::Call: {
            const uint64_t predicted =
                btb_pred ? btb_pred->target : fall;
            correct = predicted == next_pc;
            shared_non_indirect.record(correct);
            uncond_direct.record(correct);
            break;
          }

          case BranchKind::Return: {
            const uint64_t predicted = ras.pop();
            correct = predicted == next_pc;
            shared_non_indirect.record(correct);
            returns.record(correct);
            break;
          }

          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall: {
            // The only per-member work on the whole path: SoA family
            // loops, histories read before any tracker observes this
            // op, matching the per-config ordering.
            batch.predictAll(op, btb_pred.has_value(),
                             btb_pred ? btb_pred->target : 0);
            batch.recordOutcomes(next_pc);
            break;
          }

          case BranchKind::None:
            break;  // forEachBranch never yields these
        }

        if (tape) {
            if (isIndirectNonReturn(kind))
                tape->recordIndirect(stream.pos[i], bubble, batch,
                                     next_pc);
            else
                tape->recordShared(correct, bubble);
        }

        if (kind == BranchKind::Call ||
            kind == BranchKind::IndirectCall) {
            ras.push(fall);
        }

        // --- Training (architectural, hence shared) ---------------
        if (kind == BranchKind::CondDirect) {
            if (use_tournament)
                tournament.update(pc, ghr.value(), taken);
            else
                gshare.update(pc, ghr.value(), taken);
            ghr.update(taken);
        }
        btb->update(op);
        if (isIndirectNonReturn(kind))
            batch.updateAll(next_pc);
        batch.observeTrackers(op);
    }

    // One counted pass over the stream, whatever the batch size.
    creditBtbCounters(btb->hstats());

    // --- Compose per-config statistics ----------------------------
    std::vector<FrontendStats> out(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        FrontendStats &s = out[i];
        s.instructions = stream.opCount;
        s.condDirection = cond_direction;
        s.condBranches = cond_branches;
        s.uncondDirect = uncond_direct;
        s.returns = returns;
        s.btbHits = btb_hits;
        s.indirectJumps = batch.indirectStats(i);
        s.allBranches = shared_non_indirect;
        s.allBranches.merge(batch.indirectStats(i));
    }
    return out;
}

} // namespace

std::vector<FrontendStats>
runSweep(const SharedTrace &trace,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe)
{
    static const obs::Counter streams_built =
        obs::globalMetrics().counter("sweep.streams_built");
    if (configs.empty())
        return {};
    const BranchStream &stream =
        trace.compact().branchStream([] { streams_built.inc(); });
    return runSweep(stream, configs, fe);
}

std::vector<FrontendStats>
runSweep(const BranchStream &stream,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe)
{
    static const obs::Counter batches =
        obs::globalMetrics().counter("sweep.batches");
    static const obs::Counter swept_configs =
        obs::globalMetrics().counter("sweep.configs");
    static const obs::Counter history_groups =
        obs::globalMetrics().counter("sweep.history_groups");
    static const obs::Counter branches_fused =
        obs::globalMetrics().counter("sweep.branches");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.sweep");

    if (configs.empty())
        return {};

    obs::ScopedTimer timed(phase);
    batches.inc();
    swept_configs.inc(configs.size());
    branches_fused.inc(stream.size());

    BatchedPredictors batch(configs);
    history_groups.inc(batch.trackerCount());
    return predictorPass(stream, batch, fe, nullptr);
}

std::vector<CoreResult>
runTimingSweep(const SharedTrace &trace,
               std::span<const IndirectConfig> configs,
               const CoreParams &params, const FrontendConfig &fe)
{
    static const obs::Counter streams_built =
        obs::globalMetrics().counter("sweep.streams_built");
    static const obs::Counter timing_forks =
        obs::globalMetrics().counter("sweep.timing_forks");
    static const obs::Counter shared_cycles =
        obs::globalMetrics().counter("sweep.shared_cycles");
    static const obs::Counter member_cycles =
        obs::globalMetrics().counter("sweep.member_cycles");
    static const obs::Counter timing_runs =
        obs::globalMetrics().counter("experiment.timing_runs");
    static const obs::Counter replayed = obs::globalMetrics().counter(
        "experiment.instructions_replayed");
    static const obs::Counter cycles_simulated =
        obs::globalMetrics().counter("core.cycles_simulated");
    static const obs::Counter instructions_retired =
        obs::globalMetrics().counter("core.instructions_retired");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.sweep_timing");

    if (configs.empty())
        return {};

    obs::ScopedTimer timed(phase);
    // Counter parity with N per-config runTiming() calls.
    timing_runs.inc(configs.size());
    replayed.inc(trace.size() * configs.size());

    // --- Pass 1: every member's predictor, once, onto a tape ------
    const BranchStream &stream =
        trace.compact().branchStream([] { streams_built.inc(); });
    BatchedPredictors batch(configs);
    OutcomeTape tape(configs.size());
    const std::vector<FrontendStats> stats =
        predictorPass(stream, batch, fe, &tape);

    // --- Pass 2: cores replay the tape ----------------------------
    // The lead replays member 0's outcomes.  A member shares the
    // lead's core trajectory up to its first divergent indirect
    // branch; there the lead, suspended just before fetching that op,
    // is copied and the copy continues on the member's outcomes.
    const std::vector<uint64_t> diverge = tape.firstDivergence();
    std::vector<size_t> forks;
    for (size_t k = 1; k < configs.size(); ++k) {
        if (diverge[k] != OutcomeTape::kNever)
            forks.push_back(k);
    }
    std::stable_sort(forks.begin(), forks.end(), [&](size_t a, size_t b) {
        return diverge[a] < diverge[b];
    });

    const uint64_t n = trace.size();
    std::vector<CoreResult> out(configs.size());
    CoreModel lead(params);
    TapeReplay lead_outcomes(tape, 0);
    CompactReplay replay = trace.replay();
    lead.beginSession();
    uint64_t suspended_at = OutcomeTape::kNever;
    for (size_t k : forks) {
        const uint64_t p = diverge[k];
        if (p != suspended_at) {
            const bool suspended =
                lead.runSession(replay, lead_outcomes, n, p);
            assert(suspended && "divergent branch beyond session end");
            (void)suspended;
            suspended_at = p;
        }

        timing_forks.inc();
        const uint64_t inherited = lead.cycles();
        shared_cycles.inc(inherited);
        CoreModel fork(params);
        fork.forkFrom(lead);
        TapeReplay outcomes = lead_outcomes.forMember(k);
        CompactReplay rest = trace.replayAt(p);
        fork.runSession(rest, outcomes, n, UINT64_MAX);
        out[k] = fork.endSession(stats[k]);
        member_cycles.inc(out[k].cycles - inherited);
    }

    // Drain the lead to the end of the trace.
    lead.runSession(replay, lead_outcomes, n, UINT64_MAX);
    assert(lead_outcomes.branches() == tape.branches());
    out[0] = lead.endSession(stats[0]);

    for (size_t k = 1; k < configs.size(); ++k) {
        if (diverge[k] != OutcomeTape::kNever)
            continue;
        // Never diverged: the member's whole core trajectory is the
        // lead's; only its front-end stats are its own.
        out[k] = out[0];
        out[k].frontend = stats[k];
        // The per-config path would have credited this member's core
        // run; keep the deterministic counters identical.
        cycles_simulated.inc(out[k].cycles);
        instructions_retired.inc(out[k].instructions);
    }
    return out;
}

} // namespace tpred
