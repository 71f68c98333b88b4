#include "harness/batched_predictors.hh"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>

#include "common/bits.hh"

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

/** The scalar TaggedTargetCache constructor's invariants. */
void
assertTaggedGeometry([[maybe_unused]] const TaggedConfig &config)
{
    assert(config.ways >= 1);
    assert(config.entries % config.ways == 0);
    assert(isPowerOfTwo(config.sets()));
    assert(config.tagBits >= 1 && config.tagBits <= 32);
}

/** What the tape handed the stage at one indirect non-return branch. */
struct Probe
{
    uint64_t btbTarget = 0;
    uint32_t branch = 0;  ///< index in the tape's stream
    bool btbHit = false;
};

/** What a member reads at one indirect non-return branch. */
struct Indirect
{
    size_t branch = 0;  ///< index in the tape's stream
    uint64_t pc = 0;
    uint64_t nextPc = 0;
    uint64_t history = 0;  ///< the member's tracker at fetch
    bool btbHit = false;
    /// The prediction when the member's own predictor makes none: the
    /// BTB's target on a BTB hit, else the fall-through.
    uint64_t fallback = 0;
};

/** Where one member's verdicts go. */
struct Verdicts
{
    uint64_t hits = 0;
    std::span<uint64_t> row;        ///< empty, or its outcome row
    std::span<uint64_t> predicted;  ///< empty, or one per indirect

    void
    record(size_t j, uint64_t prediction, uint64_t next_pc)
    {
        const bool correct = prediction == next_pc;
        hits += correct ? 1 : 0;
        if (!row.empty())
            row[j / 64] |= uint64_t{correct} << (j % 64);
        if (!predicted.empty())
            predicted[j] = prediction;
    }
};

/**
 * One LRU stack per set, depth entries deep, most recently used
 * first.  An empty entry's tag is kNoTag, which no real tag (at most
 * 32 bits wide) equals, and empty entries sit below every valid one.
 */
class StackSets
{
  public:
    static constexpr uint64_t kNoTag = UINT64_MAX;

    StackSets(size_t sets, unsigned depth)
        : depth_(depth), tag_(sets * depth, kNoTag), target_(sets * depth)
    {
    }

    /** @p tag's stack distance in @p set: its position, else depth. */
    unsigned
    find(uint64_t set, uint64_t tag) const
    {
        const uint64_t *tags = &tag_[set * depth_];
        unsigned d = 0;
        while (d < depth_ && tags[d] != tag)
            ++d;
        return d;
    }

    /** The target at distance @p d (< depth) of @p set. */
    uint64_t
    target(uint64_t set, unsigned d) const
    {
        return target_[set * depth_ + d];
    }

    /**
     * Makes @p tag, at distance @p d of @p set, the most recent entry,
     * with @p target.  The entries above it move down one; a tag that
     * was not in the stack (d == depth) drops the bottom entry.
     */
    void
    touch(uint64_t set, unsigned d, uint64_t tag, uint64_t target)
    {
        uint64_t *tags = &tag_[set * depth_];
        uint64_t *targets = &target_[set * depth_];
        for (unsigned k = std::min(d, depth_ - 1); k > 0; --k) {
            tags[k] = tags[k - 1];
            targets[k] = targets[k - 1];
        }
        tags[0] = tag;
        targets[0] = target;
    }

  private:
    unsigned depth_;
    std::vector<uint64_t> tag_;     ///< [set * depth + distance]
    std::vector<uint64_t> target_;  ///< [set * depth + distance]
};

/** A cascaded stage-1 entry: the last target of one jump. */
struct Stage1Entry
{
    bool valid = false;
    uint64_t tag = 0;
    uint64_t target = 0;
};

} // namespace

struct BatchedPredictors::Run
{
    explicit Run(const BranchStream &s) : stream(s) {}

    const BranchStream &stream;

    // The chunk: the indirect branches from the first-th on.
    size_t first = 0;
    std::vector<Probe> probes;
    std::vector<uint64_t> history;  ///< [tracker * kChunkBranches + k]

    // Member state, by slot in the batch's plan.
    std::vector<Verdicts> verdicts;                    ///< by member
    std::vector<std::vector<uint64_t>> taglessTargets;  ///< by tagless_
    std::vector<StackSets> stackSets;                  ///< by stacks_
    std::vector<std::vector<Stage1Entry>> stage1;      ///< by stacks_
    std::vector<std::unique_ptr<IndirectPredictor>> scalar;  ///< by scalar_

    /**
     * Calls @p step(j, branch) at each indirect branch of the chunk,
     * j counting from the stream's first, with @p tracker's fetch-time
     * values (none for a member without a tracker).
     */
    template <typename Step>
    void
    forEachIndirect(std::optional<size_t> tracker, Step &&step) const
    {
        const uint64_t *values =
            tracker ? &history[*tracker * kChunkBranches] : nullptr;
        for (size_t k = 0; k < probes.size(); ++k) {
            const Probe &p = probes[k];
            const size_t i = p.branch;
            step(first + k,
                 Indirect{i, stream.pc[i], stream.target[i],
                          values ? values[k] : 0, p.btbHit,
                          p.btbHit ? p.btbTarget : stream.fallthrough[i]});
        }
    }
};

bool
BatchedPredictors::LruStack::sharesKey(size_t t,
                                       const TaggedConfig &cache) const
{
    const unsigned set_bits =
        cache.sets() > 1 ? floorLog2(cache.sets()) : 0;
    return stage1Entries == 0 && tracker == t && setBits == set_bits &&
           config.scheme == cache.scheme &&
           config.tagBits == cache.tagBits &&
           config.historyBits == cache.historyBits;
}

BatchedPredictors::BatchedPredictors(
    std::span<const IndirectConfig> configs)
    : members_(configs.size()), indirect_(configs.size())
{
    const auto new_stack = [](size_t t, const TaggedConfig &cache) {
        assertTaggedGeometry(cache);
        LruStack stack;
        stack.tracker = t;
        stack.setBits = cache.sets() > 1 ? floorLog2(cache.sets()) : 0;
        stack.config = cache;
        return stack;
    };
    for (size_t i = 0; i < configs.size(); ++i) {
        const IndirectConfig &c = configs[i];
        if (c.structure == IndirectStructure::None) {
            none_.push_back(i);
            continue;
        }

        // One tracker per distinct spec among predictor-carrying
        // members — the same dedup rule the scalar kernel used.
        const size_t t = findOrAppendHistorySpec(specs_, c.history);
        switch (c.structure) {
          case IndirectStructure::Tagless:
            // The scalar constructor's invariants.
            assert(c.tagless.entryBits >= 1 &&
                   c.tagless.entryBits <= 24);
            assert(c.tagless.scheme != TaglessIndexScheme::GAs ||
                   c.tagless.historyBits + c.tagless.addrBits ==
                       c.tagless.entryBits);
            tagless_.push_back({i, t, c});
            break;
          case IndirectStructure::Tagged: {
            auto stack = std::find_if(
                stacks_.begin(), stacks_.end(), [&](const LruStack &s) {
                    return s.sharesKey(t, c.tagged);
                });
            if (stack == stacks_.end())
                stack = stacks_.insert(stacks_.end(),
                                       new_stack(t, c.tagged));
            stack->members.push_back(i);
            stack->ways.push_back(c.tagged.ways);
            stack->depth = std::max(stack->depth, c.tagged.ways);
            break;
          }
          case IndirectStructure::Cascaded: {
            // Stage 2 allocates only where stage 1 missed, so its access
            // sequence is its own: a stack of one.
            assert(isPowerOfTwo(c.cascaded.stage1Entries));
            LruStack stack = new_stack(t, c.cascaded.stage2);
            stack.members = {i};
            stack.ways = {c.cascaded.stage2.ways};
            stack.depth = c.cascaded.stage2.ways;
            stack.stage1Entries = c.cascaded.stage1Entries;
            stacks_.push_back(std::move(stack));
            break;
          }
          case IndirectStructure::Ittage:
          case IndirectStructure::Oracle:
            scalar_.push_back({i, t, c});
            break;
          case IndirectStructure::None:
            break;  // handled above
        }
    }
}

void
BatchedPredictors::run(const FrontendTape &tape, std::span<uint64_t> rows,
                       std::span<uint64_t> predicted)
{
    const size_t n = tape.indirectCount();
    const size_t words = rowWords(tape);
    assert(rows.empty() || rows.size() == members_ * words);
    assert(predicted.empty() || predicted.size() == members_ * n);

    Run run(tape.stream());
    run.probes.reserve(kChunkBranches);
    run.history.resize(specs_.size() * kChunkBranches);
    run.verdicts.resize(members_);
    for (size_t m = 0; m < members_; ++m) {
        if (!rows.empty())
            run.verdicts[m].row = rows.subspan(m * words, words);
        if (!predicted.empty())
            run.verdicts[m].predicted = predicted.subspan(m * n, n);
    }
    for (const Member &m : tagless_)
        run.taglessTargets.emplace_back(m.config.tagless.entries(), 0);
    for (const LruStack &stack : stacks_) {
        run.stackSets.emplace_back(size_t{1} << stack.setBits,
                                   stack.depth);
        run.stage1.emplace_back(stack.stage1Entries);
    }
    for (const Member &m : scalar_)
        run.scalar.push_back(buildStack(m.config).predictor);

    // The one walk of the stream: at each indirect non-return branch
    // the tape's probe and every tracker's fetch-time value, at every
    // branch each tracker's advance after that — stageStep()'s order —
    // and the member passes once a chunk is full.
    struct Walk
    {
        const BatchedPredictors &batch;
        Run &run;
        std::vector<HistoryTracker> trackers;
        uint32_t branch = 0;  ///< index of the current branch

        void
        predictAll(const MicroOp &op, bool btb_hit, uint64_t btb_target)
        {
            const size_t k = run.probes.size();
            for (size_t t = 0; t < trackers.size(); ++t)
                run.history[t * kChunkBranches + k] =
                    trackers[t].valueFor(op.pc);
            run.probes.push_back({btb_target, branch, btb_hit});
        }

        void recordOutcomes(uint64_t) {}
        void updateAll(uint64_t) {}

        void
        observeTrackers(const MicroOp &op)
        {
            for (HistoryTracker &tracker : trackers)
                tracker.observe(op);
            ++branch;
            if (run.probes.size() == kChunkBranches)
                batch.runChunk(run);
        }
    };
    Walk walk{*this, run, {}};
    for (const HistorySpec &spec : specs_)
        walk.trackers.emplace_back(spec);
    tape.replay(walk);
    runChunk(run);
    assert(run.first == n);

    for (size_t m = 0; m < members_; ++m)
        indirect_[m].setCounts(run.verdicts[m].hits, n);
}

void
BatchedPredictors::runChunk(Run &run) const
{
    for (size_t s = 0; s < tagless_.size(); ++s) {
        const Member &m = tagless_[s];
        Verdicts &v = run.verdicts[m.member];
        std::vector<uint64_t> &targets = run.taglessTargets[s];
        run.forEachIndirect(m.tracker, [&](size_t j, const Indirect &b) {
            const uint64_t idx =
                taglessIndexOf(m.config.tagless, b.pc, b.history);
            // A tagless cache always predicts on a BTB hit.
            v.record(j, b.btbHit ? targets[idx] : b.fallback, b.nextPc);
            targets[idx] = b.nextPc;
        });
    }

    for (size_t s = 0; s < stacks_.size(); ++s) {
        const LruStack &stack = stacks_[s];
        StackSets &sets = run.stackSets[s];
        std::vector<Stage1Entry> &stage1 = run.stage1[s];
        const unsigned stage1_bits =
            stage1.empty() ? 0 : floorLog2(stage1.size());
        run.forEachIndirect(stack.tracker, [&](size_t j,
                                               const Indirect &b) {
            const auto [set, tag] = taggedIndexOf(
                stack.config, stack.setBits, b.pc, b.history);
            const unsigned d = sets.find(set, tag);
            // A member whose ways exceed the tag's stack distance holds
            // the tag, with the target its latest access wrote.
            const uint64_t hit_target =
                d < stack.depth ? sets.target(set, d) : 0;
            uint64_t miss = b.fallback;
            bool fill = true;
            if (!stage1.empty()) {
                Stage1Entry &s1 =
                    stage1[cascadedStage1IndexOf(stage1_bits, b.pc)];
                const bool s1_hit = s1.valid && s1.tag == (b.pc >> 2);
                if (b.btbHit && s1_hit)
                    miss = s1.target;
                // Stage 2 trains a present entry, and allocates only
                // when stage 1 could not cover the jump.
                fill = d < stack.depth ||
                       !(s1_hit && s1.target == b.nextPc);
                s1 = {true, b.pc >> 2, b.nextPc};
            }
            for (size_t k = 0; k < stack.members.size(); ++k) {
                const bool hit = b.btbHit && d < stack.ways[k];
                run.verdicts[stack.members[k]].record(
                    j, hit ? hit_target : miss, b.nextPc);
            }
            if (fill)
                sets.touch(set, d, tag, b.nextPc);
        });
    }

    for (size_t s = 0; s < scalar_.size(); ++s) {
        const Member &m = scalar_[s];
        Verdicts &v = run.verdicts[m.member];
        IndirectPredictor &predictor = *run.scalar[s];
        run.forEachIndirect(m.tracker, [&](size_t j, const Indirect &b) {
            uint64_t p = b.fallback;
            if (b.btbHit) {
                predictor.prime(run.stream.opAt(b.branch));
                p = predictor.predict(b.pc, b.history).value_or(p);
            }
            v.record(j, p, b.nextPc);
            predictor.update(b.pc, b.history, b.nextPc);
        });
    }

    for (size_t m : none_) {
        Verdicts &v = run.verdicts[m];
        run.forEachIndirect(std::nullopt, [&](size_t j, const Indirect &b) {
            v.record(j, b.fallback, b.nextPc);
        });
    }

    run.first += run.probes.size();
    run.probes.clear();
}

} // namespace tpred
