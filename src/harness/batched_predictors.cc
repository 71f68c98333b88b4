#include "harness/batched_predictors.hh"

#include <cassert>

#include "common/bits.hh"
#include "core/cascaded.hh"

namespace tpred
{

namespace
{

/**
 * Appends @p spec to @p specs unless an equal spec is already present.
 * @return The index of the (found or appended) spec.
 */
size_t
findOrAppendHistorySpec(std::vector<HistorySpec> &specs,
                        const HistorySpec &spec)
{
    for (size_t k = 0; k < specs.size(); ++k) {
        if (specs[k] == spec)
            return k;
    }
    specs.push_back(spec);
    return specs.size() - 1;
}

} // namespace

// --- Tagged sets -----------------------------------------------------

WayLookup
lookupSet(std::span<const TaggedWay> set, uint64_t tag)
{
    // An invalid way's clock is 0, below every valid one, so the first
    // minimum is the first invalid way when there is one.
    size_t victim = 0;
    for (size_t w = 0; w < set.size(); ++w) {
        if (set[w].tag == tag)
            return {w, true};
        if (set[w].lastUsed < set[victim].lastUsed)
            victim = w;
    }
    return {victim, false};
}

void
BatchedPredictors::TaggedBank::lookup(size_t j, uint64_t set,
                                      uint64_t tag)
{
    const size_t first = base[j] + set * ways[j];
    const WayLookup found =
        lookupSet(std::span(way).subspan(first, ways[j]), tag);
    entry[j] = first + found.way;
    hit[j] = found.hit;
}

// --- BatchedPredictors -----------------------------------------------

BatchedPredictors::BatchedPredictors(
    std::span<const IndirectConfig> configs)
    : members_(configs.size()),
      predicted_(configs.size(), 0),
      indirect_(configs.size())
{
    // Size both way banks once, so the batch holds no growth slack.
    size_t tagged_ways = 0;
    size_t stage2_ways = 0;
    for (const IndirectConfig &c : configs) {
        if (c.structure == IndirectStructure::Tagged)
            tagged_ways += c.tagged.entries;
        else if (c.structure == IndirectStructure::Cascaded)
            stage2_ways += c.cascaded.stage2.entries;
    }
    tagged_.way.reserve(tagged_ways);
    cascaded_.way.reserve(stage2_ways);

    for (size_t i = 0; i < configs.size(); ++i) {
        const IndirectConfig &c = configs[i];
        if (c.structure == IndirectStructure::None) {
            none_.push_back(i);
            continue;
        }

        // One tracker per distinct spec among predictor-carrying
        // members — the same dedup rule the scalar kernel used.
        const size_t t = findOrAppendHistorySpec(specs_, c.history);
        if (t == trackers_.size())
            trackers_.push_back(
                std::make_unique<HistoryTracker>(c.history));

        switch (c.structure) {
          case IndirectStructure::Tagless: {
            // The scalar constructor's invariants.
            assert(c.tagless.entryBits >= 1 &&
                   c.tagless.entryBits <= 24);
            assert(c.tagless.scheme != TaglessIndexScheme::GAs ||
                   c.tagless.historyBits + c.tagless.addrBits ==
                       c.tagless.entryBits);
            taglessHot_.member.push_back(i);
            taglessHot_.tracker.push_back(t);
            taglessHot_.base.push_back(taglessTargets_.size());
            taglessHot_.config.push_back(c.tagless);
            taglessHot_.index.push_back(0);
            taglessTargets_.resize(
                taglessTargets_.size() + c.tagless.entries(), 0);
            break;
          }
          case IndirectStructure::Tagged:
            addTaggedSlot(tagged_, i, t, c.tagged);
            break;
          case IndirectStructure::Cascaded: {
            assert(isPowerOfTwo(c.cascaded.stage1Entries));
            const size_t s1_base = s1Valid_.size();
            const size_t s1_entries = c.cascaded.stage1Entries;
            addTaggedSlot(cascaded_, i, t, c.cascaded.stage2);
            s1Bits_.push_back(floorLog2(s1_entries));
            s1Base_.push_back(s1_base);
            s1Valid_.resize(s1_base + s1_entries, 0);
            s1Tag_.resize(s1_base + s1_entries, 0);
            s1Target_.resize(s1_base + s1_entries, 0);
            break;
          }
          case IndirectStructure::Ittage:
          case IndirectStructure::Oracle:
            scalar_.push_back({i, t, 0, buildStack(c).predictor});
            break;
          case IndirectStructure::None:
            break;  // handled above
        }
    }
    trackerVal_.assign(trackers_.size(), 0);
    keySet_.assign(keys_.size(), 0);
    keyTag_.assign(keys_.size(), 0);
}

void
BatchedPredictors::addTaggedSlot(TaggedBank &bank, size_t m,
                                 size_t tracker,
                                 const TaggedConfig &config)
{
    // The scalar constructor's invariants, enforced on the same
    // geometry here.
    assert(config.ways >= 1);
    assert(config.entries % config.ways == 0);
    assert(isPowerOfTwo(config.sets()));
    assert(config.tagBits >= 1 && config.tagBits <= 32);

    IndexKey key;
    key.tracker = tracker;
    key.setBits = config.sets() > 1 ? floorLog2(config.sets()) : 0;
    key.config = config;
    size_t k = 0;
    while (k < keys_.size() && !keys_[k].sharesDerivation(key))
        ++k;
    if (k == keys_.size())
        keys_.push_back(key);

    bank.member.push_back(m);
    bank.key.push_back(k);
    bank.base.push_back(bank.way.size());
    bank.ways.push_back(config.ways);
    bank.useClock.push_back(0);
    bank.entry.push_back(0);
    bank.hit.push_back(0);
    bank.way.resize(bank.way.size() + config.entries);
}

size_t
BatchedPredictors::stage1Entry(size_t j) const
{
    return s1Base_[j] + cascadedStage1IndexOf(s1Bits_[j], pc_);
}

void
BatchedPredictors::predictAll(const MicroOp &op, bool btb_hit,
                              uint64_t btb_target)
{
    pc_ = op.pc;
    const uint64_t fall = op.fallthrough;

    // One history computation per distinct spec — members sharing a
    // spec no longer re-derive it (per-address path history is a hash
    // lookup per call).
    for (size_t t = 0; t < trackers_.size(); ++t)
        trackerVal_[t] = trackers_[t]->valueFor(pc_);

    // One (set, tag) derivation per distinct index key.
    for (size_t k = 0; k < keys_.size(); ++k) {
        const IndexKey &key = keys_[k];
        const auto [set, tag] =
            taggedIndexOf(key.config, key.setBits, pc_,
                          trackerVal_[key.tracker]);
        keySet_[k] = set;
        keyTag_[k] = tag;
    }

    for (size_t j = 0; j < taglessHot_.size(); ++j) {
        const uint64_t h = trackerVal_[taglessHot_.tracker[j]];
        // The index is cached for update time regardless of the BTB
        // probe: the scalar path captures the history either way.
        const size_t idx =
            taglessHot_.base[j] +
            taglessIndexOf(taglessHot_.config[j], pc_, h);
        taglessHot_.index[j] = idx;
        // A tagless cache always produces a prediction on probe.
        predicted_[taglessHot_.member[j]] =
            btb_hit ? taglessTargets_[idx] : fall;
    }

    for (size_t j = 0; j < tagged_.size(); ++j) {
        const size_t k = tagged_.key[j];
        tagged_.lookup(j, keySet_[k], keyTag_[k]);
        uint64_t p = fall;
        if (btb_hit) {
            p = tagged_.hit[j] ? tagged_.way[tagged_.entry[j]].target
                               : btb_target;
        }
        predicted_[tagged_.member[j]] = p;
    }

    for (size_t j = 0; j < cascaded_.size(); ++j) {
        const size_t k = cascaded_.key[j];
        cascaded_.lookup(j, keySet_[k], keyTag_[k]);
        uint64_t p = fall;
        if (btb_hit) {
            if (cascaded_.hit[j]) {
                p = cascaded_.way[cascaded_.entry[j]].target;
            } else {
                const size_t s1 = stage1Entry(j);
                p = (s1Valid_[s1] && s1Tag_[s1] == (pc_ >> 2))
                        ? s1Target_[s1]
                        : btb_target;
            }
        }
        predicted_[cascaded_.member[j]] = p;
    }

    for (ScalarMember &g : scalar_) {
        g.history = trackerVal_[g.tracker];
        uint64_t p = fall;
        if (btb_hit) {
            g.predictor->prime(op);
            p = g.predictor->predict(pc_, g.history).value_or(btb_target);
        }
        predicted_[g.member] = p;
    }

    for (size_t m : none_)
        predicted_[m] = btb_hit ? btb_target : fall;
}

void
BatchedPredictors::recordOutcomes(uint64_t next_pc)
{
    for (size_t m = 0; m < members_; ++m)
        indirect_[m].record(predicted_[m] == next_pc);
}

void
BatchedPredictors::updateAll(uint64_t next_pc)
{
    for (size_t j = 0; j < taglessHot_.size(); ++j)
        taglessTargets_[taglessHot_.index[j]] = next_pc;

    // A hit fills its own way, a miss the victim; either way the
    // scalar update() writes tag, target and a fresh clock.
    for (size_t j = 0; j < tagged_.size(); ++j)
        tagged_.fill(j, keyTag_[tagged_.key[j]], next_pc);

    for (size_t j = 0; j < cascaded_.size(); ++j) {
        const size_t s1 = stage1Entry(j);
        const bool s1_correct = s1Valid_[s1] &&
                                s1Tag_[s1] == (pc_ >> 2) &&
                                s1Target_[s1] == next_pc;
        // Stage 2 trains a present entry, and allocates only when
        // stage 1 could not cover the jump.
        if (cascaded_.hit[j] || !s1_correct)
            cascaded_.fill(j, keyTag_[cascaded_.key[j]], next_pc);
        s1Valid_[s1] = 1;
        s1Tag_[s1] = pc_ >> 2;
        s1Target_[s1] = next_pc;
    }

    for (ScalarMember &g : scalar_)
        g.predictor->update(pc_, g.history, next_pc);
}

void
BatchedPredictors::observeTrackers(const MicroOp &op)
{
    for (auto &tracker : trackers_)
        tracker->observe(op);
}

} // namespace tpred
