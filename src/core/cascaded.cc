#include "core/cascaded.hh"

#include <cassert>

#include "common/bits.hh"
#include "common/state_io.hh"

namespace tpred
{

CascadedPredictor::CascadedPredictor(const CascadedConfig &config)
    : config_(config),
      stage1Bits_(floorLog2(config.stage1Entries)),
      stage1_(config.stage1Entries),
      stage2_(config.stage2)
{
    assert(isPowerOfTwo(config.stage1Entries));
}

CascadedPredictor::Stage1Entry &
CascadedPredictor::stage1Slot(uint64_t pc)
{
    return stage1_[cascadedStage1IndexOf(stage1Bits_, pc)];
}

std::optional<uint64_t>
CascadedPredictor::predict(uint64_t pc, uint64_t history)
{
    ++probes_;
    if (auto t = stage2_.predict(pc, history)) {
        ++stage2Hits_;
        return t;
    }
    Stage1Entry &s1 = stage1Slot(pc);
    if (s1.valid && s1.tag == (pc >> 2))
        return s1.target;
    return std::nullopt;
}

void
CascadedPredictor::update(uint64_t pc, uint64_t history, uint64_t target)
{
    Stage1Entry &s1 = stage1Slot(pc);
    const bool s1_hit = s1.valid && s1.tag == (pc >> 2);
    const bool s1_correct = s1_hit && s1.target == target;

    // Stage 2: train an existing entry whenever present; allocate only
    // when the cheap stage could not cover this jump (filtered
    // allocation keeps polymorphic jumps from being crowded out).
    const bool s2_present = stage2_.predict(pc, history).has_value();
    if (s2_present || !s1_correct)
        stage2_.update(pc, history, target);

    // Stage 1 is a plain last-target table.
    s1.valid = true;
    s1.tag = pc >> 2;
    s1.target = target;
}

std::string
CascadedPredictor::describe() const
{
    return "cascaded(s1=" + std::to_string(config_.stage1Entries) +
           ", s2=" + stage2_.describe() + ")";
}

uint64_t
CascadedPredictor::costBits() const
{
    // Stage 1 entry: 32-bit target + 30-bit tag + valid.
    return static_cast<uint64_t>(config_.stage1Entries) * 63 +
           stage2_.costBits();
}

double
CascadedPredictor::stage2Share() const
{
    return probes_ ? static_cast<double>(stage2Hits_) / probes_ : 0.0;
}

void
CascadedPredictor::saveState(StateWriter &w) const
{
    for (const Stage1Entry &e : stage1_) {
        w.b(e.valid);
        w.u64(e.tag);
        w.u64(e.target);
    }
    stage2_.saveState(w);
    w.u64(stage2Hits_);
    w.u64(probes_);
}

void
CascadedPredictor::restoreState(StateReader &r)
{
    for (Stage1Entry &e : stage1_) {
        e.valid = r.b();
        e.tag = r.u64();
        e.target = r.u64();
    }
    stage2_.restoreState(r);
    stage2Hits_ = r.u64();
    probes_ = r.u64();
}

} // namespace tpred
