#include "tune/config_space.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>

#include "harness/paper_tables.hh"

namespace tpred::tune
{

namespace
{

/** Appends @p config to @p space with its derived id/hash/budget. */
void
add(ConfigSpace &space, const IndirectConfig &config)
{
    TuneCandidate c;
    c.config = config;
    c.storageBits = storageBitsOf(config);
    c.id = candidateId(config);
    c.hash = candidateHash(c.id);
    space.candidates.push_back(std::move(c));
}

/**
 * Appends @p config running under @p frontend.  The BTB hierarchy is
 * part of the candidate: its bits join the storage budget and its
 * describe() tag joins the id (distinct hierarchies must not collide).
 */
void
add(ConfigSpace &space, const IndirectConfig &config,
    const FrontendConfig &frontend)
{
    TuneCandidate c;
    c.config = config;
    c.frontend = frontend;
    c.frontendKey = frontend.btb.describe();
    c.storageBits =
        storageBitsOf(config) + frontend.btb.storageBits();
    c.id = candidateId(config) + "@" + c.frontendKey;
    c.hash = candidateHash(c.id);
    space.candidates.push_back(std::move(c));
}

/** Tagged config with every axis explicit (sets stay powers of two). */
IndirectConfig
taggedPoint(TaggedIndexScheme scheme, unsigned entries, unsigned ways,
            unsigned tag_bits, const HistorySpec &history)
{
    IndirectConfig config = taggedConfig(scheme, ways, history, entries);
    config.tagged.tagBits = tag_bits;
    return config;
}

/** Cascaded config with explicit stage-2 geometry. */
IndirectConfig
cascadedPoint(unsigned stage1_entries, unsigned stage2_entries,
              unsigned stage2_ways, const HistorySpec &history)
{
    IndirectConfig config = cascadedConfig(stage1_entries, stage2_ways);
    config.cascaded.stage2.entries = stage2_entries;
    config.cascaded.stage2.historyBits = history.lengthBits;
    config.history = history;
    return config;
}

/** The path-history axis shared by the larger spaces. */
std::vector<HistorySpec>
pathHistories(std::initializer_list<unsigned> lengths,
              std::initializer_list<unsigned> bits_per_target,
              bool per_address)
{
    std::vector<HistorySpec> out;
    for (unsigned len : lengths) {
        for (unsigned bpt : bits_per_target) {
            out.push_back(pathGlobal(PathFilter::Control, len, bpt));
            out.push_back(pathGlobal(PathFilter::IndJmp, len, bpt));
            if (per_address)
                out.push_back(pathPerAddress(len, bpt));
        }
    }
    return out;
}

/** smoke: a couple dozen configs across three families — large enough
 *  to exercise promotion, small enough for CLI smoke tests. */
void
enumerateSmoke(ConfigSpace &space)
{
    for (unsigned entry_bits : {7u, 9u, 11u})
        for (unsigned hist : {6u, 9u})
            add(space, taglessGshare(patternHistory(hist), entry_bits));
    for (unsigned entries : {128u, 256u})
        for (unsigned ways : {2u, 4u})
            for (unsigned tag : {8u, 16u})
                add(space, taggedPoint(TaggedIndexScheme::HistoryXor,
                                       entries, ways, tag,
                                       patternHistory(9)));
    for (unsigned stage1 : {64u, 128u})
        add(space, cascadedPoint(stage1, 256, 4, patternHistory(9)));
    for (unsigned entry_bits : {8u, 10u})
        for (unsigned len : {6u, 9u})
            add(space, taglessGshare(
                           pathGlobal(PathFilter::IndJmp, len, 2),
                           entry_bits));
}

/** tiny: cheap enough that tests can run it exhaustively. */
void
enumerateTiny(ConfigSpace &space)
{
    for (unsigned entry_bits : {6u, 7u, 8u, 9u})
        for (unsigned hist : {6u, 9u})
            add(space, taglessGshare(patternHistory(hist), entry_bits));
    for (unsigned ways : {2u, 4u})
        for (unsigned tag : {8u, 16u})
            add(space, taggedPoint(TaggedIndexScheme::HistoryXor, 256,
                                   ways, tag, patternHistory(9)));
    add(space, cascadedPoint(128, 256, 4, patternHistory(9)));
    add(space, ittageConfig());
}

/** bench: a mid-sized grid (~1 hundred configs). */
void
enumerateBench(ConfigSpace &space)
{
    for (unsigned entry_bits : {6u, 7u, 8u, 9u, 10u, 11u})
        for (unsigned hist : {4u, 6u, 8u, 9u, 10u, 12u})
            add(space, taglessGshare(patternHistory(hist), entry_bits));
    for (auto scheme : {TaggedIndexScheme::Address,
                        TaggedIndexScheme::HistoryXor})
        for (unsigned entries : {128u, 256u, 512u})
            for (unsigned ways : {2u, 4u})
                for (unsigned tag : {8u, 16u})
                    for (unsigned hist : {6u, 9u, 12u})
                        add(space, taggedPoint(scheme, entries, ways,
                                               tag,
                                               patternHistory(hist)));
    for (unsigned stage1 : {64u, 128u, 256u})
        for (unsigned ways : {2u, 4u})
            add(space, cascadedPoint(stage1, 256, ways,
                                     patternHistory(9)));
    add(space, ittageConfig());
}

/** standard: the full axes product, >= 1000 configs. */
void
enumerateStandard(ConfigSpace &space)
{
    const std::initializer_list<unsigned> patterns = {4u, 6u, 8u, 9u,
                                                      10u, 12u, 14u,
                                                      16u};
    // Tagless: gshare over pattern and path histories, plus GAg.
    for (unsigned entry_bits : {6u, 7u, 8u, 9u, 10u, 11u, 12u}) {
        for (unsigned hist : patterns)
            add(space, taglessGshare(patternHistory(hist), entry_bits));
        for (const HistorySpec &h :
             pathHistories({6u, 9u, 12u}, {1u, 2u}, true))
            add(space, taglessGshare(h, entry_bits));
        add(space, taglessGAg(entry_bits));
    }
    // Tagged: scheme x entries x ways x tag width x pattern history.
    for (auto scheme : {TaggedIndexScheme::Address,
                        TaggedIndexScheme::HistoryConcat,
                        TaggedIndexScheme::HistoryXor})
        for (unsigned entries : {64u, 128u, 256u, 512u, 1024u})
            for (unsigned ways : {1u, 2u, 4u, 8u})
                for (unsigned tag : {8u, 12u, 16u})
                    for (unsigned hist : {4u, 6u, 9u, 12u, 14u, 16u})
                        add(space, taggedPoint(scheme, entries, ways,
                                               tag,
                                               patternHistory(hist)));
    // Tagged with path history (the paper's Table 8 axis).
    for (unsigned entries : {256u, 512u})
        for (const HistorySpec &h :
             pathHistories({6u, 9u, 12u}, {1u, 2u}, false))
            add(space, taggedPoint(TaggedIndexScheme::HistoryXor,
                                   entries, 4, 16, h));
    // Cascaded: stage-1 filter size x stage-2 geometry x history.
    for (unsigned stage1 : {64u, 128u, 256u})
        for (unsigned s2_entries : {128u, 256u, 512u})
            for (unsigned ways : {2u, 4u})
                for (unsigned hist : {6u, 9u, 12u})
                    add(space, cascadedPoint(stage1, s2_entries, ways,
                                             patternHistory(hist)));
    add(space, ittageConfig());
}

/**
 * btb: the BTB hierarchy geometry as a search axis (docs/
 * btb_hierarchy.md).  One- and two-level front ends crossed with
 * representative indirect predictors; the budget charges the whole
 * front end, so the frontier answers "is a second BTB level worth its
 * bits here, and with how much L1 in front of it?".
 */
void
enumerateBtb(ConfigSpace &space)
{
    std::vector<FrontendConfig> frontends;
    frontends.push_back({});                    // paper's 1K, 1 level
    frontends.push_back(smallBtbFrontend());    // starved 64-entry L1
    // missPenalty stays at the realistic default: it prices fetch
    // bubbles in the timing model, which accuracy rungs never see —
    // varying it here would only enumerate indistinguishable points.
    for (unsigned l1_sets : {16u, 32u}) {
        for (unsigned l2_sets : {512u, 1024u}) {
            FrontendConfig fe = twoLevelBtbFrontend();
            fe.btb.l1.sets = l1_sets;
            fe.btb.l2.sets = l2_sets;
            frontends.push_back(fe);
        }
    }
    for (const FrontendConfig &fe : frontends) {
        add(space, taglessGshare(patternHistory(9), 9), fe);
        add(space, taggedPoint(TaggedIndexScheme::HistoryXor, 256, 4,
                               16, patternHistory(9)),
            fe);
        add(space, cascadedPoint(128, 256, 4, patternHistory(9)), fe);
    }
}

} // namespace

const std::vector<std::string> &
spaceNames()
{
    static const std::vector<std::string> names = {
        "smoke", "tiny", "bench", "standard", "btb"};
    return names;
}

bool
isSpaceName(std::string_view name)
{
    const auto &names = spaceNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

uint64_t
candidateHash(std::string_view id)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : id) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
candidateId(const IndirectConfig &config)
{
    std::string id = config.describe();
    // describe() omits the tag width; it is a tuning axis here, so the
    // id must carry it or distinct candidates would collide.
    if (config.structure == IndirectStructure::Tagged)
        id += "/t" + std::to_string(config.tagged.tagBits);
    else if (config.structure == IndirectStructure::Cascaded)
        id += "/t" + std::to_string(config.cascaded.stage2.tagBits);
    return id;
}

uint64_t
storageBitsOf(const IndirectConfig &config)
{
    const PredictorStack stack = buildStack(config);
    return stack.predictor ? stack.predictor->costBits() : 0;
}

ConfigSpace
enumerateSpace(std::string_view name, size_t cap)
{
    ConfigSpace space;
    space.name = std::string(name);
    if (name == "smoke")
        enumerateSmoke(space);
    else if (name == "tiny")
        enumerateTiny(space);
    else if (name == "bench")
        enumerateBench(space);
    else if (name == "standard")
        enumerateStandard(space);
    else if (name == "btb")
        enumerateBtb(space);
    else
        throw std::invalid_argument("unknown config space: " +
                                    std::string(name));

    std::unordered_set<std::string_view> ids;
    ids.reserve(space.candidates.size());
    for (const TuneCandidate &c : space.candidates) {
        if (!ids.insert(c.id).second)
            throw std::logic_error("config space '" + space.name +
                                   "' enumerates duplicate id: " + c.id);
    }

    space.enumerated = space.candidates.size();
    if (space.candidates.size() > cap) {
        // Deterministic subsample: keep the cap candidates with the
        // smallest (hash, id), then restore enumeration order.  The
        // selection is seeded by the configs themselves, never by
        // wall clock or iteration scheduling.
        std::vector<size_t> order(space.candidates.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) {
                      const TuneCandidate &ca = space.candidates[a];
                      const TuneCandidate &cb = space.candidates[b];
                      if (ca.hash != cb.hash)
                          return ca.hash < cb.hash;
                      return ca.id < cb.id;
                  });
        order.resize(cap);
        std::sort(order.begin(), order.end());
        std::vector<TuneCandidate> kept;
        kept.reserve(cap);
        for (size_t i : order)
            kept.push_back(std::move(space.candidates[i]));
        space.candidates = std::move(kept);
        std::fprintf(stderr,
                     "tune: space '%s' truncated to %zu of %zu configs "
                     "(hash-seeded subsample; raise the cap to search "
                     "the full space)\n",
                     space.name.c_str(), space.candidates.size(),
                     space.enumerated);
    }
    return space;
}

} // namespace tpred::tune
