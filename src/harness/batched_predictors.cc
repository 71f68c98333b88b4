#include "harness/batched_predictors.hh"

#include <cassert>

#include "common/bits.hh"
#include "common/simd.hh"
#include "core/cascaded.hh"

namespace tpred
{

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

// --- TaggedBank ------------------------------------------------------

size_t
BatchedPredictors::TaggedBank::addSlot(const TaggedConfig &config)
{
    // The scalar constructor's invariants, enforced on the same
    // geometry here.
    assert(config.ways >= 1);
    assert(config.entries % config.ways == 0);
    assert(isPowerOfTwo(config.sets()));
    assert(config.tagBits >= 1 && config.tagBits <= 32);

    TaggedGeom g;
    g.config = config;
    g.setBits = config.sets() > 1 ? floorLog2(config.sets()) : 0;
    g.base = valid.size();
    valid.resize(g.base + config.entries, 0);
    tag.resize(g.base + config.entries, 0);
    target.resize(g.base + config.entries, 0);
    lastUsed.resize(g.base + config.entries, 0);
    geom.push_back(g);
    useClock.push_back(0);
    return geom.size() - 1;
}

size_t
BatchedPredictors::TaggedBank::probe(size_t slot, uint64_t pc,
                                     uint64_t history) const
{
    const TaggedGeom &g = geom[slot];
    const auto [set, tg] = taggedIndexOf(g.config, g.setBits, pc, history);
    const size_t base = g.base + set * g.config.ways;
    const size_t w = simd::findTagMatch(valid.data() + base,
                                        tag.data() + base,
                                        g.config.ways, tg);
    return w == simd::kNone ? kMiss : base + w;
}

void
BatchedPredictors::TaggedBank::update(size_t slot, uint64_t pc,
                                      uint64_t history, uint64_t tgt)
{
    const TaggedGeom &g = geom[slot];
    const auto [set, tg] = taggedIndexOf(g.config, g.setBits, pc, history);
    const size_t base = g.base + set * g.config.ways;
    const size_t w = simd::findTagMatch(valid.data() + base,
                                        tag.data() + base,
                                        g.config.ways, tg);
    size_t e;
    if (w != simd::kNone) {
        e = base + w;
    } else {
        // Invalid way first, else true-LRU victim — the scalar
        // update()'s allocation scan, order preserved by findVictim.
        e = base + simd::findVictim(valid.data() + base,
                                    lastUsed.data() + base,
                                    g.config.ways);
        valid[e] = 1;
        tag[e] = tg;
    }
    target[e] = tgt;
    lastUsed[e] = ++useClock[slot];
}

// --- BatchedPredictors -----------------------------------------------

BatchedPredictors::BatchedPredictors(
    std::span<const IndirectConfig> configs)
    : members_(configs.size()),
      hist_(configs.size(), 0),
      predicted_(configs.size(), 0),
      taglessIdx_(configs.size(), 0),
      indirect_(configs.size())
{
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
            taglessTargets_.resize(
                taglessTargets_.size() + c.tagless.entries(), 0);
            break;
          }
          case IndirectStructure::Tagged:
            taggedHot_.member.push_back(i);
            taggedHot_.tracker.push_back(t);
            taggedHot_.slot.push_back(tagged_.addSlot(c.tagged));
            break;
          case IndirectStructure::Cascaded: {
            assert(isPowerOfTwo(c.cascaded.stage1Entries));
            const size_t s1_base = s1Valid_.size();
            const size_t s1_entries = c.cascaded.stage1Entries;
            cascadedHot_.member.push_back(i);
            cascadedHot_.tracker.push_back(t);
            cascadedHot_.stage1Bits.push_back(floorLog2(s1_entries));
            cascadedHot_.stage1Base.push_back(s1_base);
            cascadedHot_.slot.push_back(
                cascadedStage2_.addSlot(c.cascaded.stage2));
            s1Valid_.resize(s1_base + s1_entries, 0);
            s1Tag_.resize(s1_base + s1_entries, 0);
            s1Target_.resize(s1_base + s1_entries, 0);
            break;
          }
          case IndirectStructure::Ittage:
          case IndirectStructure::Oracle:
            scalar_.push_back({i, t, buildStack(c).predictor});
            break;
          case IndirectStructure::None:
            break;  // handled above
        }
    }
    trackerVal_.assign(trackers_.size(), 0);
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

    for (size_t j = 0; j < taglessHot_.size(); ++j) {
        const size_t m = taglessHot_.member[j];
        const uint64_t h = trackerVal_[taglessHot_.tracker[j]];
        hist_[m] = h;
        // The index is cached for update time regardless of the BTB
        // probe: the scalar path captures the history either way.
        const size_t idx =
            taglessHot_.base[j] +
            taglessIndexOf(taglessHot_.config[j], pc_, h);
        taglessIdx_[m] = idx;
        // A tagless cache always produces a prediction on probe.
        predicted_[m] = btb_hit ? taglessTargets_[idx] : fall;
    }

    for (size_t j = 0; j < taggedHot_.size(); ++j) {
        const size_t m = taggedHot_.member[j];
        const uint64_t h = trackerVal_[taggedHot_.tracker[j]];
        hist_[m] = h;
        uint64_t p = fall;
        if (btb_hit) {
            const size_t slot = taggedHot_.slot[j];
            const size_t e = tagged_.probe(slot, pc_, h);
            p = btb_target;
            if (e != kMiss) {
                tagged_.touch(slot, e);
                p = tagged_.target[e];
            }
        }
        predicted_[m] = p;
    }

    for (size_t j = 0; j < cascadedHot_.size(); ++j) {
        const size_t m = cascadedHot_.member[j];
        const uint64_t h = trackerVal_[cascadedHot_.tracker[j]];
        hist_[m] = h;
        uint64_t p = fall;
        if (btb_hit) {
            const size_t slot = cascadedHot_.slot[j];
            const size_t e = cascadedStage2_.probe(slot, pc_, h);
            if (e != kMiss) {
                cascadedStage2_.touch(slot, e);
                p = cascadedStage2_.target[e];
            } else {
                const size_t s1 =
                    cascadedHot_.stage1Base[j] +
                    cascadedStage1IndexOf(cascadedHot_.stage1Bits[j],
                                          pc_);
                p = (s1Valid_[s1] && s1Tag_[s1] == (pc_ >> 2))
                        ? s1Target_[s1]
                        : btb_target;
            }
        }
        predicted_[m] = p;
    }

    for (ScalarMember &g : scalar_) {
        const uint64_t h = trackerVal_[g.tracker];
        hist_[g.member] = h;
        uint64_t p = fall;
        if (btb_hit) {
            g.predictor->prime(op);
            p = g.predictor->predict(pc_, h).value_or(btb_target);
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
        taglessTargets_[taglessIdx_[taglessHot_.member[j]]] = next_pc;

    for (size_t j = 0; j < taggedHot_.size(); ++j) {
        tagged_.update(taggedHot_.slot[j], pc_,
                       hist_[taggedHot_.member[j]], next_pc);
    }

    for (size_t j = 0; j < cascadedHot_.size(); ++j) {
        const size_t m = cascadedHot_.member[j];
        const size_t slot = cascadedHot_.slot[j];
        const size_t s1 =
            cascadedHot_.stage1Base[j] +
            cascadedStage1IndexOf(cascadedHot_.stage1Bits[j], pc_);
        const bool s1_hit = s1Valid_[s1] && s1Tag_[s1] == (pc_ >> 2);
        const bool s1_correct = s1_hit && s1Target_[s1] == next_pc;
        // The scalar update()'s presence probe goes through
        // stage2.predict(), which refreshes LRU on a hit — replicated
        // exactly, clock bump and all.
        const size_t e = cascadedStage2_.probe(slot, pc_, hist_[m]);
        if (e != kMiss)
            cascadedStage2_.touch(slot, e);
        if (e != kMiss || !s1_correct)
            cascadedStage2_.update(slot, pc_, hist_[m], next_pc);
        s1Valid_[s1] = 1;
        s1Tag_[s1] = pc_ >> 2;
        s1Target_[s1] = next_pc;
    }

    for (ScalarMember &g : scalar_)
        g.predictor->update(pc_, hist_[g.member], next_pc);
}

void
BatchedPredictors::observeTrackers(const MicroOp &op)
{
    for (auto &tracker : trackers_)
        tracker->observe(op);
}

} // namespace tpred
