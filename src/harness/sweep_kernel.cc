#include "harness/sweep_kernel.hh"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

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
     * The op position of member @p m's first indirect branch, from the
     * @p from-th on, whose correctness differs from member 0's — where
     * its core trajectory leaves the lead's — or kNever.
     */
    uint64_t
    nextDivergence(size_t m, size_t from) const
    {
        for (size_t j = from; j < indirectPos_.size(); ++j) {
            if (memberCorrect(j, m) != memberCorrect(j, 0))
                return indirectPos_[j];
        }
        return kNever;
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

    /** Indirect (non-return) branches replayed so far. */
    size_t indirects() const { return indirect_; }

  private:
    const OutcomeTape *tape_;
    size_t member_;
    size_t branch_ = 0;
    size_t indirect_ = 0;
};

/** Adds @p plus - @p minus to every result counter of @p acc (wrapping). */
void
addDifference(CoreResult &acc, const CoreResult &plus,
              const CoreResult &minus)
{
    acc.cycles += plus.cycles - minus.cycles;
    acc.instructions += plus.instructions - minus.instructions;
    for (size_t i = 0; i < acc.stallCyclesByKind.size(); ++i)
        acc.stallCyclesByKind[i] +=
            plus.stallCyclesByKind[i] - minus.stallCyclesByKind[i];
    acc.btbMissStallCycles +=
        plus.btbMissStallCycles - minus.btbMissStallCycles;
    acc.dcache.hits += plus.dcache.hits - minus.dcache.hits;
    acc.dcache.misses += plus.dcache.misses - minus.dcache.misses;
}

/**
 * A non-lead member of a timing batch.  It *rides* the lead — no core
 * of its own, only its offset from the lead's result — until its next
 * indirect branch whose correctness differs from member 0's.  There it
 * continues on a copy of the lead shifted by its cycle offset, and
 * rides again once a check finds that core equal to the lead's up to a
 * cycle shift.
 */
struct Member
{
    /** The member's own core, built at its first divergence, reused. */
    struct Own
    {
        CoreModel core;
        TapeReplay outcomes;
        CompactReplay replay;
        uint64_t since = 0;  ///< op position it last forked at
    };

    /// Member minus lead in every result counter (wrapping); `cycles`
    /// is the cycle shift.  While the member runs its core carries the
    /// shift, and `cycles` is 0.
    CoreResult offset;
    uint64_t next = OutcomeTape::kNever;  ///< riding: next divergence
    bool running = false;
    bool forked = false;     ///< diverged at least once
    uint64_t inherited = 0;  ///< lead cycles at the first divergence
    std::unique_ptr<Own> own;
};

/**
 * The fused predictor pass both sweep entry points share: one walk of
 * @p stream through one architectural front end with every member of
 * @p batch as its indirect stage.  Returns per-member statistics,
 * bit-identical to runAccuracy() per config; with a @p tape it also
 * records what each member's core reads from its front end.
 */
std::vector<FrontendStats>
predictorPass(const BranchStream &stream, BatchedPredictors &batch,
              const FrontendConfig &fe, OutcomeTape *tape)
{
    // Trained only with architectural outcomes, so its trajectory is
    // independent of any member's predictions: one front end stands in
    // for the per-config copies runAccuracy() would build.
    FrontendPredictor frontend(fe);
    const size_t n = stream.size();
    for (size_t i = 0; i < n; ++i) {
        const MicroOp op = stream.opAt(i);
        const PredictionOutcome outcome = frontend.onInstruction(op, batch);
        if (!tape)
            continue;
        if (isIndirectNonReturn(op.branch))
            tape->recordIndirect(stream.pos[i], outcome.fetchBubbleCycles,
                                 batch, op.nextPc);
        else
            tape->recordShared(outcome.correct, outcome.fetchBubbleCycles);
    }
    frontend.skipNonBranches(stream.opCount - n);

    // One counted pass over the stream, whatever the batch size.
    creditBtbCounters(frontend.btb().hstats());

    std::vector<FrontendStats> out(batch.size());
    for (size_t m = 0; m < out.size(); ++m)
        out[m] = frontend.statsWith(batch.indirectStats(m));
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
    static const obs::Counter reforks =
        obs::globalMetrics().counter("rejoin.reforks");
    static const obs::Counter checks =
        obs::globalMetrics().counter("rejoin.checks");
    static const obs::Counter rejoins =
        obs::globalMetrics().counter("rejoin.rejoins");
    static const obs::Counter member_ops =
        obs::globalMetrics().counter("rejoin.member_ops");
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
    // The lead replays member 0's outcomes and is suspended only where
    // a riding member diverges and, while some member runs on its own
    // core, at every kRejoinCheckOps-th op boundary.  Up to a member's
    // divergence its outcomes equal the lead's op for op, and a core
    // equal to the lead's up to a cycle shift makes the lead's
    // decisions from there on, that many cycles later: riding is exact
    // (docs/sweep_kernel.md).
    const uint64_t n = trace.size();
    // members[0] stands for the lead: it never diverges from itself.
    std::vector<Member> members(configs.size());
    for (size_t k = 1; k < members.size(); ++k)
        members[k].next = tape.nextDivergence(k, 0);

    CoreModel lead(params);
    TapeReplay lead_outcomes(tape, 0);
    CompactReplay replay = trace.replay();
    lead.beginSession();
    size_t running = 0;
    for (uint64_t pos = 0;;) {
        uint64_t stop = running > 0
                            ? (pos / kRejoinCheckOps + 1) * kRejoinCheckOps
                            : OutcomeTape::kNever;
        for (const Member &m : members) {
            if (!m.running)
                stop = std::min(stop, m.next);
        }
        if (stop >= n)
            break;
        const bool suspended =
            lead.runSession(replay, lead_outcomes, n, stop);
        assert(suspended && "stop beyond session end");
        (void)suspended;
        pos = stop;

        if (pos % kRejoinCheckOps == 0) {
            for (size_t k = 1; k < members.size(); ++k) {
                Member &m = members[k];
                if (!m.running)
                    continue;
                Member::Own &own = *m.own;
                own.core.runSession(own.replay, own.outcomes, n, pos);
                checks.inc();
                if (!own.core.equalUpToShift(lead))
                    continue;
                rejoins.inc();
                member_ops.inc(pos - own.since);
                addDifference(m.offset, own.core.result(), lead.result());
                m.running = false;
                --running;
                m.next = tape.nextDivergence(k, lead_outcomes.indirects());
            }
        }

        for (size_t k = 1; k < members.size(); ++k) {
            Member &m = members[k];
            if (m.running || m.next != pos)
                continue;
            if (!m.forked) {
                m.forked = true;
                m.inherited = lead.cycles();
                timing_forks.inc();
                shared_cycles.inc(m.inherited);
            } else {
                reforks.inc();
            }
            if (!m.own) {
                m.own = std::make_unique<Member::Own>(
                    CoreModel(params), lead_outcomes, replay);
            }
            Member::Own &own = *m.own;
            own.core.forkFrom(lead, static_cast<int64_t>(m.offset.cycles));
            m.offset.cycles = 0;
            own.outcomes = lead_outcomes.forMember(k);
            own.replay = replay;
            own.since = pos;
            m.running = true;
            ++running;
        }
    }

    // Drain the lead, then every member still on its own core, to the
    // end of the trace.
    lead.runSession(replay, lead_outcomes, n, UINT64_MAX);
    assert(lead_outcomes.branches() == tape.branches());
    std::vector<CoreResult> out(configs.size());
    out[0] = lead.endSession(stats[0]);
    for (size_t k = 1; k < members.size(); ++k) {
        Member &m = members[k];
        if (m.running) {
            Member::Own &own = *m.own;
            own.core.runSession(own.replay, own.outcomes, n, UINT64_MAX);
            member_ops.inc(n - own.since);
            out[k] = own.core.endSession(stats[k]);
            addDifference(out[k], m.offset, CoreResult{});
        } else {
            // Riding to the end: the lead's result, offset.  The
            // per-config path would have credited this member's core
            // run; keep the deterministic counters identical.
            out[k] = out[0];
            out[k].frontend = stats[k];
            addDifference(out[k], m.offset, CoreResult{});
            cycles_simulated.inc(out[k].cycles);
            instructions_retired.inc(out[k].instructions);
        }
        if (m.forked)
            member_cycles.inc(out[k].cycles - m.inherited);
    }
    return out;
}

} // namespace tpred
