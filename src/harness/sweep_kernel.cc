#include "harness/sweep_kernel.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "harness/batched_predictors.hh"
#include "harness/parallel_runner.hh"
#include "obs/metrics.hh"
#include "trace/branch_stream.hh"

namespace tpred
{

namespace
{

/**
 * What the members of a batch disagree on, for a whole trace: each
 * member's correctness at every indirect (non-return) branch, one bit
 * row per member (member-major, as the predictor pass writes it), and
 * each such branch's op position.  Everything else a core reads from
 * its front end — every branch's fetch bubble, and the correctness at
 * the other branches — every member shares, and the front-end tape
 * already holds it.  Recorded by one predictor pass, replayed by every
 * core of the batch (TapeReplay).
 */
class OutcomeTape
{
  public:
    static constexpr uint64_t kNever = UINT64_MAX;

    OutcomeTape(const FrontendTape &front, size_t members)
        : front_(&front), words_(BatchedPredictors::rowWords(front)),
          bits_(members * words_, 0)
    {
        const BranchStream &stream = front.stream();
        indirectPos_.reserve(front.indirectCount());
        for (size_t i = 0; i < stream.size(); ++i) {
            if (isIndirectNonReturn(static_cast<BranchKind>(stream.kind[i])))
                indirectPos_.push_back(stream.pos[i]);
        }
    }

    /** The rows, for BatchedPredictors::run() to fill. */
    std::span<uint64_t> rows() { return bits_; }

    /**
     * The op position of member @p m's first indirect branch, from the
     * @p from-th on, whose correctness differs from member 0's — where
     * its core trajectory leaves the lead's — or kNever.  Compares the
     * two rows a word at a time.
     */
    uint64_t
    nextDivergence(size_t m, size_t from) const
    {
        const uint64_t *lead = bits_.data();
        const uint64_t *own = bits_.data() + m * words_;
        uint64_t below = ~uint64_t{0} << (from % 64);  // skips [0, from)
        for (size_t w = from / 64; w < words_; ++w, below = ~uint64_t{0}) {
            const uint64_t differ = (lead[w] ^ own[w]) & below;
            if (differ != 0)
                return indirectPos_[w * 64 + std::countr_zero(differ)];
        }
        return kNever;
    }

  private:
    friend class TapeReplay;

    bool
    memberCorrect(size_t indirect, size_t m) const
    {
        const uint64_t word = bits_[m * words_ + indirect / 64];
        return (word >> (indirect % 64) & 1) != 0;
    }

    const FrontendTape *front_;
    size_t words_;                       ///< words per member row
    std::vector<uint64_t> bits_;         ///< words_ words per member
    std::vector<uint32_t> indirectPos_;  ///< op position of each
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
        PredictionOutcome outcome = tape_->front_->sharedOutcome(branch_++);
        if (isIndirectNonReturn(op.branch))
            outcome.correct = tape_->memberCorrect(indirect_++, member_);
        return outcome;
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

/** The cached branch stream of @p trace, counting a first build. */
const BranchStream &
sweepStream(const SharedTrace &trace)
{
    static const obs::Counter streams_built =
        obs::globalMetrics().counter("sweep.streams_built");
    return trace.compact().branchStream([] { streams_built.inc(); });
}

/**
 * The fused predictor pass both sweep entry points share: every member
 * of @p batch run over @p tape as its indirect stage, member by member
 * (BatchedPredictors::run()).  Returns per-member statistics,
 * bit-identical to runAccuracy() per config; with @p outcomes it also
 * records what each member's core reads from its front end.
 */
std::vector<FrontendStats>
predictorPass(const FrontendTape &tape, BatchedPredictors &batch,
              OutcomeTape *outcomes)
{
    static const obs::Counter lru_stacks =
        obs::globalMetrics().counter("batch.lru_stacks");

    batch.run(tape, outcomes ? outcomes->rows() : std::span<uint64_t>{});
    lru_stacks.inc(batch.stackCount());

    // Each pass credits one counted walk of the stream, whatever the
    // batch size and however many passes replay the same tape.
    creditBtbCounters(tape.btbStats());

    std::vector<FrontendStats> out(batch.size());
    for (size_t m = 0; m < out.size(); ++m)
        out[m] = tape.sharedStats().withIndirect(batch.indirectStats(m));
    return out;
}

/** The fused accuracy sweep of @p configs, replaying @p tape. */
std::vector<FrontendStats>
sweepBatch(std::span<const IndirectConfig> configs, const FrontendTape &tape)
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

    obs::ScopedTimer timed(phase);
    batches.inc();
    swept_configs.inc(configs.size());
    branches_fused.inc(tape.stream().size());

    BatchedPredictors batch(configs);
    history_groups.inc(batch.trackerCount());
    return predictorPass(tape, batch, nullptr);
}

/**
 * The fused timing sweep of @p configs over @p trace, replaying
 * @p front, recorded from the trace's stream.
 */
std::vector<CoreResult>
timingBatch(const SharedTrace &trace, std::span<const IndirectConfig> configs,
            const CoreParams &params, const FrontendTape &front)
{
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

    obs::ScopedTimer timed(phase);
    // Counter parity with N per-config runTiming() calls.
    timing_runs.inc(configs.size());
    replayed.inc(trace.size() * configs.size());

    // --- Pass 1: every member's predictor, once, onto a tape ------
    BatchedPredictors batch(configs);
    OutcomeTape tape(front, configs.size());
    const std::vector<FrontendStats> stats =
        predictorPass(front, batch, &tape);

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
    assert(lead_outcomes.branches() == front.stream().size());
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

} // namespace

std::vector<FrontendStats>
runSweep(const SharedTrace &trace,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe)
{
    if (configs.empty())
        return {};
    return sweepBatch(configs, FrontendTape(sweepStream(trace), fe));
}

std::vector<FrontendStats>
runSweep(const BranchStream &stream,
         std::span<const IndirectConfig> configs,
         const FrontendConfig &fe)
{
    if (configs.empty())
        return {};
    return sweepBatch(configs, FrontendTape(stream, fe));
}

std::vector<CoreResult>
runTimingSweep(const SharedTrace &trace,
               std::span<const IndirectConfig> configs,
               const CoreParams &params, const FrontendConfig &fe)
{
    if (configs.empty())
        return {};
    return timingBatch(trace, configs, params,
                       FrontendTape(sweepStream(trace), fe));
}

SweepGrid::SweepGrid(std::vector<SharedTrace> traces)
    : traces_(std::move(traces))
{
}

SweepGrid::SweepGrid(std::vector<std::shared_ptr<const BranchStream>> streams)
    : streams_(std::move(streams))
{
}

size_t
SweepGrid::rows() const
{
    return traces_.empty() ? streams_.size() : traces_.size();
}

/**
 * The one batching rule: @p sweep(row, configs, tape) runs each batch
 * of one front end and one history group, members in column order, and
 * returns one cell per member; cells are scattered back into (row,
 * column) order.  Front ends the grid has not met yet are recorded
 * first, one tape per row each, and join the grid only once all their
 * tapes are.
 */
template <typename Cell, typename Sweep>
std::vector<Cell>
SweepGrid::run(std::span<const SweepColumn> columns, const Sweep &sweep)
{
    if (columns.empty() || rows() == 0)
        return {};
    struct Batch
    {
        size_t frontend = 0;  ///< index into frontends
        HistorySpec history;
        std::vector<size_t> columns;
        std::vector<IndirectConfig> configs;
    };
    std::vector<Batch> batches;
    std::vector<FrontendConfig> frontends = frontends_;
    for (size_t c = 0; c < columns.size(); ++c) {
        const SweepColumn &column = columns[c];
        const size_t f = static_cast<size_t>(
            std::find(frontends.begin(), frontends.end(), column.frontend) -
            frontends.begin());
        if (f == frontends.size())
            frontends.push_back(column.frontend);
        auto batch = std::find_if(
            batches.begin(), batches.end(), [&](const Batch &b) {
                return b.frontend == f &&
                       b.history == column.config.history;
            });
        if (batch == batches.end())
            batch = batches.insert(batches.end(),
                                   Batch{f, column.config.history, {}, {}});
        batch->columns.push_back(c);
        batch->configs.push_back(column.config);
    }

    const size_t n = rows();
    const ParallelRunner runner;
    if (frontends.size() > frontends_.size()) {
        const size_t recorded = frontends_.size();
        std::vector<FrontendTape> fresh((frontends.size() - recorded) * n);
        runner.forEach(fresh.size(), [&](size_t j) {
            const size_t r = j % n;
            fresh[j] = FrontendTape(
                traces_.empty() ? *streams_[r] : sweepStream(traces_[r]),
                frontends[recorded + j / n]);
        });
        tapes_.insert(tapes_.end(), std::make_move_iterator(fresh.begin()),
                      std::make_move_iterator(fresh.end()));
        frontends_ = std::move(frontends);
    }

    const size_t per_row = batches.size();
    std::vector<std::vector<Cell>> parts =
        runner.map<std::vector<Cell>>(n * per_row, [&](size_t j) {
            const size_t r = j / per_row;
            const Batch &b = batches[j % per_row];
            return sweep(r, b.configs, tapes_[b.frontend * n + r]);
        });
    std::vector<Cell> cells(n * columns.size());
    for (size_t j = 0; j < parts.size(); ++j) {
        const Batch &b = batches[j % per_row];
        for (size_t k = 0; k < b.columns.size(); ++k)
            cells[j / per_row * columns.size() + b.columns[k]] =
                std::move(parts[j][k]);
    }
    return cells;
}

std::vector<FrontendStats>
SweepGrid::accuracy(std::span<const SweepColumn> columns)
{
    return run<FrontendStats>(
        columns, [](size_t, std::span<const IndirectConfig> configs,
                    const FrontendTape &tape) {
            return sweepBatch(configs, tape);
        });
}

std::vector<CoreResult>
SweepGrid::timing(std::span<const SweepColumn> columns)
{
    if (!streams_.empty())
        throw std::logic_error("SweepGrid::timing: rows are branch "
                               "streams, which carry no timing ops");
    return run<CoreResult>(
        columns, [&](size_t r, std::span<const IndirectConfig> configs,
                     const FrontendTape &tape) {
            return timingBatch(traces_[r], configs, CoreParams{}, tape);
        });
}

} // namespace tpred
