/**
 * @file
 * McFarling tournament (combining) direction predictor — the
 * "Combining Branch Predictors" scheme the paper cites [6]: a bimodal
 * (per-PC) component, a gshare (global-history) component, and a
 * per-PC chooser trained toward whichever component was right.
 */

#ifndef TPRED_BPRED_TOURNAMENT_HH
#define TPRED_BPRED_TOURNAMENT_HH

#include <cstdint>
#include <vector>

#include "bpred/gshare.hh"
#include "common/sat_counter.hh"

namespace tpred
{

class StateWriter;
class StateReader;

/** Tournament geometry. */
struct TournamentConfig
{
    unsigned bimodalBits = 12;  ///< log2 bimodal entries
    unsigned gshareBits = 12;   ///< log2 gshare PHT entries
    unsigned chooserBits = 12;  ///< log2 chooser entries

    bool operator==(const TournamentConfig &) const = default;
};

/**
 * The combining predictor.  Like GShare, the global history register
 * lives in the caller so it can be shared with the target cache.
 */
class TournamentPredictor
{
  public:
    explicit TournamentPredictor(const TournamentConfig &config = {});

    /** Direction prediction for @p pc under @p history. */
    bool predict(uint64_t pc, uint64_t history) const;

    /** Trains both components and the chooser. */
    void update(uint64_t pc, uint64_t history, bool taken);

    /** Fraction of predictions the chooser sent to gshare. */
    double gshareShare() const;

    /** Serializes both components, chooser and usage counts. */
    void saveState(StateWriter &w) const;

    /** Restores a saveState() snapshot; geometry must match. */
    void restoreState(StateReader &r);

  private:
    bool bimodalPredict(uint64_t pc) const;

    TournamentConfig config_;
    std::vector<SatCounter> bimodal_;
    GShare gshare_;
    std::vector<SatCounter> chooser_;  ///< taken = use gshare
    mutable uint64_t predictions_ = 0;
    mutable uint64_t gshareUses_ = 0;
};

} // namespace tpred

#endif // TPRED_BPRED_TOURNAMENT_HH
