#include "core/frontend_predictor.hh"

#include <cassert>

#include "common/state_io.hh"

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

FrontendStats
FrontendPredictor::statsWith(const RatioStat &indirect) const
{
    FrontendStats s = shared_;
    s.indirectJumps = indirect;
    s.allBranches.merge(indirect);
    return s;
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
