#include "core/frontend_predictor.hh"

#include <cassert>

#include "common/state_io.hh"
#include "obs/metrics.hh"

namespace tpred
{

namespace
{

void
saveRatio(StateWriter &w, const RatioStat &s)
{
    w.u64(s.hits());
    w.u64(s.total());
}

void
restoreRatio(StateReader &r, RatioStat &s)
{
    const uint64_t hits = r.u64();
    const uint64_t total = r.u64();
    s.setCounts(hits, total);
}

} // namespace

FrontendPredictor::FrontendPredictor(const FrontendConfig &config,
                                     IndirectPredictor *indirect,
                                     HistoryTracker *tracker)
    : config_(config),
      btb_(config.btb),
      gshare_(config.gshareIndexBits),
      tournament_(config.tournament),
      ghr_(config.gshareHistoryBits),
      ras_(config.rasDepth),
      live_(indirect, tracker)
{
    assert(!indirect || tracker);
}

namespace
{

/**
 * The stage a FrontendTape is recorded with: it keeps the BTB probe's
 * result at each indirect non-return branch and predicts nothing.
 */
struct ProbeRecorder
{
    bool hit = false;
    uint64_t target = 0;

    void
    predictAll(const MicroOp &, bool btb_hit, uint64_t btb_target)
    {
        hit = btb_hit;
        target = btb_target;
    }

    // The tape keeps no verdict at indirect branches: each replayed
    // stage makes its own.
    uint64_t prediction(size_t) const { return 0; }
    void recordOutcomes(uint64_t) {}
    void updateAll(uint64_t) {}
    void observeTrackers(const MicroOp &) {}
};

} // namespace

FrontendTape::FrontendTape(const BranchStream &stream,
                           const FrontendConfig &config)
    : stream_(stream)
{
    static const obs::Counter recorded =
        obs::globalMetrics().counter("frontend.tapes_recorded");
    static const obs::Timer phase =
        obs::globalMetrics().timer("phase.frontend_tape");

    const obs::ScopedTimer timed(phase);
    FrontendPredictor frontend(config);
    ProbeRecorder probe;
    const size_t n = stream.size();
    branches_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const MicroOp op = stream.opAt(i);
        const PredictionOutcome outcome = frontend.onInstruction(op, probe);
        assert(outcome.fetchBubbleCycles <= UINT32_MAX >> kBubbleShift);
        uint32_t word = outcome.fetchBubbleCycles << kBubbleShift;
        if (isIndirectNonReturn(op.branch)) {
            word |= probe.hit ? kBtbHit : 0;
            targets_.push_back(probe.target);
        } else if (outcome.correct) {
            word |= kCorrect;
        }
        branches_.push_back(word);
    }
    frontend.skipNonBranches(stream.opCount - n);
    shared_ = frontend.shared_;
    btb_ = frontend.btb().hstats();
    recorded.inc();
}

void
FrontendPredictor::saveState(StateWriter &w) const
{
    btb_.saveState(w);
    gshare_.saveState(w);
    tournament_.saveState(w);
    w.u64(ghr_.value());
    ras_.saveState(w);
    w.u64(shared_.instructions);
    saveRatio(w, shared_.allBranches);
    saveRatio(w, shared_.condDirection);
    saveRatio(w, shared_.condBranches);
    saveRatio(w, shared_.uncondDirect);
    saveRatio(w, live_.stat);
    saveRatio(w, shared_.returns);
    saveRatio(w, shared_.btbHits);
}

void
FrontendPredictor::restoreState(StateReader &r)
{
    btb_.restoreState(r);
    gshare_.restoreState(r);
    tournament_.restoreState(r);
    ghr_.restoreValue(r.u64());
    ras_.restoreState(r);
    shared_.instructions = r.u64();
    restoreRatio(r, shared_.allBranches);
    restoreRatio(r, shared_.condDirection);
    restoreRatio(r, shared_.condBranches);
    restoreRatio(r, shared_.uncondDirect);
    restoreRatio(r, live_.stat);
    restoreRatio(r, shared_.returns);
    restoreRatio(r, shared_.btbHits);
}

} // namespace tpred
