/**
 * @file
 * Deterministic config-space enumerator for the autotuner.
 *
 * A "space" is a named, ordered set of candidate predictor
 * configurations spanning (predictor family x table geometry x
 * history kind/length x tag width/associativity), each carrying its
 * storage budget in bits (IndirectPredictor::costBits()) and a unique
 * canonical id.  The paper hand-picks a few dozen of these points for
 * Tables 4-9; the preset spaces here enumerate the same axes by the
 * hundreds to thousands so the successive-halving engine
 * (tune/successive_halving.hh) can search them.
 *
 * Determinism rules:
 *
 *  - Enumeration order is fixed by construction (nested loops over
 *    literal axis values), never by wall clock or address order.
 *  - Every candidate id is unique within its space; enumerateSpace()
 *    throws if a preset ever collides.
 *  - When a space exceeds the hard cap, the survivors are selected by
 *    ascending (config hash, id) — a deterministic pseudo-random
 *    subsample seeded by the configs themselves — the truncation is
 *    reported loudly on stderr, and the dropped count is preserved so
 *    reports can surface it (no silent coverage loss).
 */

#ifndef TPRED_TUNE_CONFIG_SPACE_HH
#define TPRED_TUNE_CONFIG_SPACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"

namespace tpred::tune
{

/** One point of a config space. */
struct TuneCandidate
{
    IndirectConfig config;
    /**
     * Front end the candidate runs under.  Most spaces tune the
     * indirect predictor alone and leave this default; the "btb" space
     * makes the BTB hierarchy geometry itself a search axis.
     */
    FrontendConfig frontend{};
    /**
     * Batch key for the front end: candidates sharing a key may be
     * fused into one sweep (empty = the default front end).  When
     * non-empty, storageBits also includes the BTB hierarchy's bits,
     * since the hierarchy is then part of what is being bought.
     */
    std::string frontendKey;
    uint64_t storageBits = 0;  ///< predictor costBits() (+ BTB bits)
    uint64_t hash = 0;         ///< FNV-1a of id (rung-membership seed)
    std::string id;            ///< unique canonical description
};

/** A named, enumerated, possibly capped candidate set. */
struct ConfigSpace
{
    std::string name;
    std::vector<TuneCandidate> candidates;
    size_t enumerated = 0;  ///< size before the cap was applied

    /** Candidates dropped by the cap (0 when the space fit). */
    size_t
    truncated() const
    {
        return enumerated - candidates.size();
    }
};

/** Hard cap applied by default; see enumerateSpace(). */
inline constexpr size_t kDefaultSpaceCap = 4096;

/**
 * Preset space names, in documentation order:
 *   smoke    — a couple dozen configs; CLI smoke tests
 *   tiny     — ~1 dozen; cheap enough for exhaustive differentials
 *   bench    — ~1 hundred; the halving-vs-exhaustive differential
 *   standard — >= 1000 configs across all families (the default)
 *   btb      — BTB hierarchy geometry x indirect predictor: one- and
 *              two-level front ends (docs/btb_hierarchy.md) crossed
 *              with representative target predictors
 */
const std::vector<std::string> &spaceNames();

/** True when @p name is a preset space. */
bool isSpaceName(std::string_view name);

/**
 * Enumerates the preset space @p name.
 *
 * @param cap Hard candidate cap; when exceeded, a deterministic
 *        hash-seeded subsample of exactly @p cap candidates survives
 *        (enumeration order preserved) and the truncation is logged
 *        to stderr.
 * @throws std::invalid_argument for an unknown name.
 * @throws std::logic_error if a preset enumerates duplicate ids.
 */
ConfigSpace enumerateSpace(std::string_view name,
                           size_t cap = kDefaultSpaceCap);

/** FNV-1a 64-bit hash of @p id — the candidate's deterministic seed. */
uint64_t candidateHash(std::string_view id);

/**
 * Canonical unique id of @p config: IndirectConfig::describe() plus
 * the geometry describe() omits (tagged/cascaded tag width).
 */
std::string candidateId(const IndirectConfig &config);

/** Storage budget of @p config in bits (builds the predictor once). */
uint64_t storageBitsOf(const IndirectConfig &config);

} // namespace tpred::tune

#endif // TPRED_TUNE_CONFIG_SPACE_HH
