/**
 * @file
 * Fused sweep-kernel tests: runSweep() must return FrontendStats
 * bit-identical to per-config runAccuracy() — across every Table 4-9
 * configuration on all workloads and seeds, under non-default front
 * ends, and on hostile traces that force forEachBranch's block-decode
 * fallback — plus HistorySpec grouping, BranchStream caching, and
 * serial-vs-parallel determinism of the sweep.* counters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/paper_tables.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "workloads/workload.hh"

namespace tpred
{
namespace
{

void
expectSameStats(const FrontendStats &want, const FrontendStats &got,
                const std::string &context)
{
    const auto ratio_eq = [&](const RatioStat &x, const RatioStat &y,
                              const char *field) {
        EXPECT_EQ(x.hits(), y.hits()) << context << " " << field;
        EXPECT_EQ(x.total(), y.total()) << context << " " << field;
    };
    EXPECT_EQ(want.instructions, got.instructions) << context;
    ratio_eq(want.allBranches, got.allBranches, "allBranches");
    ratio_eq(want.condDirection, got.condDirection, "condDirection");
    ratio_eq(want.condBranches, got.condBranches, "condBranches");
    ratio_eq(want.uncondDirect, got.uncondDirect, "uncondDirect");
    ratio_eq(want.indirectJumps, got.indirectJumps, "indirectJumps");
    ratio_eq(want.returns, got.returns, "returns");
    ratio_eq(want.btbHits, got.btbHits, "btbHits");
}

/** Tables 5/6/8's five path-history schemes. */
HistorySpec
schemeHistory(size_t scheme, unsigned bits_per_target,
              unsigned addr_bit_offset)
{
    switch (scheme) {
      case 0:
        return pathPerAddress(9, bits_per_target, addr_bit_offset);
      case 1:
        return pathGlobal(PathFilter::Branch, 9, bits_per_target,
                          addr_bit_offset);
      case 2:
        return pathGlobal(PathFilter::Control, 9, bits_per_target,
                          addr_bit_offset);
      case 3:
        return pathGlobal(PathFilter::IndJmp, 9, bits_per_target,
                          addr_bit_offset);
      default:
        return pathGlobal(PathFilter::CallRet, 9, bits_per_target,
                          addr_bit_offset);
    }
}

/** Every indirect-predictor configuration Tables 4-9 evaluate. */
std::vector<IndirectConfig>
allTableConfigs()
{
    const std::vector<unsigned> assocs = {1, 2, 4, 8, 16};
    std::vector<IndirectConfig> configs;
    // Table 4: tagless indexing schemes.
    configs.push_back(baselineConfig());
    configs.push_back(taglessGAg(9));
    configs.push_back(taglessGAs(8, 1));
    configs.push_back(taglessGAs(7, 2));
    configs.push_back(taglessGshare());
    // Table 5: path-history address-bit selection.
    for (unsigned offset : {2u, 4u, 6u, 8u, 10u})
        for (size_t s = 0; s < 5; ++s)
            configs.push_back(
                taglessGshare(schemeHistory(s, 1, offset)));
    // Table 6: bits per recorded target.
    for (unsigned bits = 1; bits <= 4; ++bits)
        for (size_t s = 0; s < 5; ++s)
            configs.push_back(
                taglessGshare(schemeHistory(s, bits, 2)));
    // Table 7: tagged set-index schemes x associativity.
    for (TaggedIndexScheme scheme :
         {TaggedIndexScheme::Address, TaggedIndexScheme::HistoryConcat,
          TaggedIndexScheme::HistoryXor})
        for (unsigned ways : assocs)
            configs.push_back(taggedConfig(scheme, ways));
    // Table 8: tagged cache over path histories.
    for (unsigned ways : assocs)
        for (size_t s = 0; s < 5; ++s)
            configs.push_back(
                taggedConfig(TaggedIndexScheme::HistoryXor, ways,
                             schemeHistory(s, 1, 2)));
    // Table 9: pattern-history length.
    for (unsigned ways : assocs)
        for (unsigned bits : {9u, 16u})
            configs.push_back(
                taggedConfig(TaggedIndexScheme::HistoryXor, ways,
                             patternHistory(bits)));
    return configs;
}

/**
 * A trace violating the fast branch-scan preconditions (redirects on
 * non-branch ops, memAddr/selector on branches, register escapes), so
 * every consumer — including BranchStream::extract — runs through
 * forEachBranch's block-decode fallback.  Indirect jumps rotate
 * through per-site target sets so the predictors have real work.
 */
std::vector<MicroOp>
hostileOps(size_t count)
{
    std::vector<MicroOp> ops;
    ops.reserve(count);
    uint64_t pc = 0x1000;
    size_t phase = 0;
    while (ops.size() < count) {
        MicroOp op;
        op.pc = pc;
        op.fallthrough = pc + 4;
        switch (phase++ % 7) {
          case 0:  // plain op
            op.nextPc = op.fallthrough;
            break;
          case 1:  // redirect on a non-branch (kills the fast scan)
            op.nextPc = pc + 0x40;
            break;
          case 2: {  // indirect jump with rotating targets + memAddr
            op.cls = InstClass::Branch;
            op.branch = (phase % 2) != 0 ? BranchKind::IndirectJump
                                         : BranchKind::IndirectCall;
            op.taken = true;
            op.memAddr = 0xbeef;  // hostile: memAddr on a branch
            op.selector = phase % 5;
            op.nextPc = 0x8000 + (phase % 3) * 0x100 + (pc & 0xff0);
            break;
          }
          case 3: {  // conditional, alternating direction
            op.cls = InstClass::Branch;
            op.branch = BranchKind::CondDirect;
            op.taken = (phase % 3) != 0;
            op.nextPc = op.taken ? pc + 0x80 : op.fallthrough;
            break;
          }
          case 4: {  // call
            op.cls = InstClass::Branch;
            op.branch = BranchKind::Call;
            op.taken = true;
            op.nextPc = pc + 0x200;
            op.dstReg = 300;  // hostile: register escape
            break;
          }
          case 5: {  // return to a mismatched address now and then
            op.cls = InstClass::Branch;
            op.branch = BranchKind::Return;
            op.taken = true;
            op.nextPc = (phase % 4 == 0) ? 0x4444 : pc - 0x1fc;
            break;
          }
          default:  // discontinuity: pc does not chain
            op.nextPc = op.fallthrough;
            pc += 0x1000;
            break;
        }
        pc = op.nextPc != 0 ? op.nextPc : pc + 4;
        ops.push_back(op);
    }
    return ops;
}

TEST(SweepKernel, GroupByHistoryPartitionsBySpec)
{
    const std::vector<IndirectConfig> configs = {
        taglessGshare(patternHistory(9)),   // group 0
        taglessGshare(patternHistory(8)),   // group 1
        taglessGAg(9),                      // group 0 (same spec)
        taglessGshare(pathGlobal(PathFilter::Branch)),   // group 2
        taglessGshare(pathGlobal(PathFilter::Control)),  // group 3
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),  // group 0
    };
    const auto groups = groupByHistory(configs);
    ASSERT_EQ(groups.size(), 4u);
    EXPECT_EQ(groups[0], (std::vector<size_t>{0, 2, 5}));
    EXPECT_EQ(groups[1], (std::vector<size_t>{1}));
    EXPECT_EQ(groups[2], (std::vector<size_t>{3}));
    EXPECT_EQ(groups[3], (std::vector<size_t>{4}));
}

TEST(SweepKernel, EmptyBatchReturnsEmpty)
{
    const SharedTrace trace = cachedTrace("perl", 2000);
    EXPECT_TRUE(runSweep(trace, {}).empty());
}

TEST(SweepKernel, BranchStreamIsBuiltLazilyAndCached)
{
    const SharedTrace trace = recordWorkload("compress", 4000);
    EXPECT_FALSE(trace.compact().branchStreamBuilt());
    const BranchStream &first = trace.branchStream();
    EXPECT_TRUE(trace.compact().branchStreamBuilt());
    const BranchStream &second = trace.branchStream();
    EXPECT_EQ(&first, &second) << "stream must be built exactly once";
    EXPECT_EQ(first.opCount, trace.size());

    size_t builds = 0;
    (void)trace.compact().branchStream([&builds] { ++builds; });
    EXPECT_EQ(builds, 0u) << "cached stream must not rebuild";
}

/** The stream must match forEachBranch op-for-op, coherent traces. */
TEST(SweepKernel, BranchStreamMatchesForEachBranch)
{
    const SharedTrace trace = recordWorkload("gcc", 15000);
    const BranchStream &stream = trace.branchStream();
    size_t i = 0;
    trace.compact().forEachBranch([&](const MicroOp &op, size_t pos) {
        ASSERT_LT(i, stream.size());
        EXPECT_EQ(stream.pos[i], pos);
        EXPECT_EQ(stream.pc[i], op.pc);
        EXPECT_EQ(stream.target[i], op.nextPc);
        EXPECT_EQ(stream.fallthrough[i], op.fallthrough);
        EXPECT_EQ(static_cast<BranchKind>(stream.kind[i]), op.branch);
        EXPECT_EQ(stream.taken[i] != 0, op.taken);
        ++i;
    });
    EXPECT_EQ(i, stream.size());
}

/**
 * The headline equivalence claim: one fused batch over every Table
 * 4-9 configuration reproduces per-config runAccuracy() exactly, on
 * all eight workloads and two seeds each.
 */
TEST(SweepKernel, FusedMatchesSequentialOnAllTableConfigs)
{
    const std::vector<IndirectConfig> configs = allTableConfigs();
    for (const std::string &name : spec95Names()) {
        for (uint64_t seed : {1u, 2u}) {
            const SharedTrace trace = recordWorkload(name, 6000, seed);
            const std::vector<FrontendStats> fused =
                runSweep(trace, configs);
            ASSERT_EQ(fused.size(), configs.size());
            for (size_t c = 0; c < configs.size(); ++c) {
                expectSameStats(
                    runAccuracy(trace, configs[c]), fused[c],
                    name + "/seed" + std::to_string(seed) + "/" +
                        configs[c].describe());
            }
        }
    }
}

/**
 * Non-default front ends must fuse just as exactly: the 2-bit and
 * tournament direction schemes on perl, and the BTB-pressure grid's
 * small and two-level hierarchies on the BTB-hungry server trace.
 */
TEST(SweepKernel, FusedMatchesSequentialUnderAlternateFrontends)
{
    const std::vector<IndirectConfig> configs = {
        baselineConfig(), taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
        cascadedConfig(), ittageConfig(), oracleConfig(),
    };
    FrontendConfig tourney;
    tourney.direction = DirectionScheme::Tournament;
    const std::vector<std::pair<std::string, FrontendConfig>> cases = {
        {"perl", twoBitBtbFrontend()},
        {"perl", tourney},
        {"server-dispatch", smallBtbFrontend()},
        {"server-dispatch", twoLevelBtbFrontend()},
    };
    for (const auto &[name, fe] : cases) {
        const SharedTrace trace = recordWorkload(name, 12000);
        const std::vector<FrontendStats> fused =
            runSweep(trace, configs, fe);
        ASSERT_EQ(fused.size(), configs.size());
        for (size_t c = 0; c < configs.size(); ++c)
            expectSameStats(runAccuracy(trace, configs[c], fe),
                            fused[c], name + "/" + configs[c].describe());
    }
}

/**
 * Hostile traces take forEachBranch's block-decode fallback; the
 * BranchStream extractor rides the same path, so the fused kernel
 * must still be bit-identical to the sequential one.
 */
TEST(SweepKernel, FusedMatchesSequentialOnHostileTraces)
{
    const SharedTrace trace(hostileOps(3000), "hostile");
    ASSERT_FALSE(trace.compact().fastBranchScan())
        << "trace must force the block-decode fallback";

    const std::vector<IndirectConfig> configs = {
        baselineConfig(),
        taglessGshare(),
        taglessGshare(pathPerAddress(9)),
        taglessGshare(pathGlobal(PathFilter::CallRet)),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
        cascadedConfig(),
        ittageConfig(),
        oracleConfig(),
    };
    const std::vector<FrontendStats> fused = runSweep(trace, configs);
    ASSERT_EQ(fused.size(), configs.size());
    EXPECT_GT(fused[1].indirectJumps.total(), 0u)
        << "hostile trace must actually exercise indirect jumps";
    for (size_t c = 0; c < configs.size(); ++c)
        expectSameStats(runAccuracy(trace, configs[c]), fused[c],
                        configs[c].describe());
}

void
expectSameCoreResult(const CoreResult &want, const CoreResult &got,
                     const std::string &context)
{
    EXPECT_EQ(want.cycles, got.cycles) << context;
    EXPECT_EQ(want.instructions, got.instructions) << context;
    EXPECT_EQ(want.stallCyclesByKind, got.stallCyclesByKind)
        << context << " penalty breakdown";
    EXPECT_EQ(want.btbMissStallCycles, got.btbMissStallCycles)
        << context << " BTB-miss bubbles";
    EXPECT_EQ(want.dcache.hits, got.dcache.hits) << context;
    EXPECT_EQ(want.dcache.misses, got.dcache.misses) << context;
    expectSameStats(want.frontend, got.frontend, context);
}

/** One config per predictor family, lead first. */
std::vector<IndirectConfig>
timingFamilyConfigs()
{
    return {
        taglessGshare(),                                  // lead
        baselineConfig(),                                 // BTB-only
        taglessGshare(patternHistory(12), 9),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
        taggedConfig(TaggedIndexScheme::Address, 2),
        cascadedConfig(),
        ittageConfig(),  // scalar, stateful predict()
        oracleConfig(),  // scalar, stateful predict()
    };
}

/**
 * Identical tagged geometry, shrinking tags: wide tags rarely alias,
 * so the members rarely diverge from the 16-bit lead.
 */
std::vector<IndirectConfig>
tagWidthConfigs()
{
    std::vector<IndirectConfig> configs;
    for (unsigned tag_bits : {16u, 15u, 14u, 13u, 12u, 11u}) {
        IndirectConfig c = taggedConfig(TaggedIndexScheme::HistoryXor, 4);
        c.tagged.tagBits = tag_bits;
        configs.push_back(c);
    }
    return configs;
}

/**
 * The fused-timing equivalence claim: one shared core trajectory plus
 * copy-on-divergence forks reproduces per-config runTiming() exactly
 * — cycles, penalty breakdown, front-end stats and dcache — for every
 * predictor family, and for a batch that differs only in tag width,
 * across workloads and seeds.
 */
TEST(SweepKernel, FusedTimingMatchesPerConfig)
{
    for (const std::vector<IndirectConfig> &configs :
         {timingFamilyConfigs(), tagWidthConfigs()}) {
        for (const char *name : {"gcc", "perl", "xlisp"}) {
            for (uint64_t seed : {1u, 2u}) {
                const SharedTrace trace =
                    recordWorkload(name, 8000, seed);
                const std::vector<CoreResult> fused =
                    runTimingSweep(trace, configs);
                ASSERT_EQ(fused.size(), configs.size());
                for (size_t c = 0; c < configs.size(); ++c) {
                    expectSameCoreResult(
                        runTiming(trace, configs[c]), fused[c],
                        std::string(name) + "/seed" +
                            std::to_string(seed) + "/" +
                            configs[c].describe());
                }
            }
        }
    }
}

/** Non-default core and front-end parameters must fuse exactly too. */
TEST(SweepKernel, FusedTimingMatchesPerConfigUnderAlternateMachines)
{
    const std::vector<IndirectConfig> configs = {
        taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
        cascadedConfig(),
    };
    const SharedTrace trace = recordWorkload("perl", 10000);

    CoreParams narrow;
    narrow.width = 4;
    narrow.window = 32;
    narrow.fuCount = 4;
    FrontendConfig tourney;
    tourney.direction = DirectionScheme::Tournament;

    const std::vector<CoreResult> fused =
        runTimingSweep(trace, configs, narrow, tourney);
    for (size_t c = 0; c < configs.size(); ++c)
        expectSameCoreResult(
            runTiming(trace, configs[c], narrow, tourney), fused[c],
            configs[c].describe());
}

/**
 * Member 0 leads the shared core, so a scalar lead (ITTAGE or the
 * oracle, whose predict() mutates state) must fuse exactly too.
 */
TEST(SweepKernel, FusedTimingMatchesPerConfigWithScalarLead)
{
    const SharedTrace trace = recordWorkload("perl", 10000);
    for (const IndirectConfig &lead : {ittageConfig(), oracleConfig()}) {
        const std::vector<IndirectConfig> configs = {
            lead,
            taglessGshare(),
            baselineConfig(),
            taggedConfig(TaggedIndexScheme::HistoryXor, 4),
            lead.structure == IndirectStructure::Ittage ? oracleConfig()
                                                        : ittageConfig(),
        };
        const std::vector<CoreResult> fused =
            runTimingSweep(trace, configs);
        ASSERT_EQ(fused.size(), configs.size());
        for (size_t c = 0; c < configs.size(); ++c)
            expectSameCoreResult(runTiming(trace, configs[c]), fused[c],
                                 lead.describe() + " lead/" +
                                     configs[c].describe());
    }
}

/**
 * The outcome tape carries each branch's BTB-miss fetch bubble: the
 * fused sweep must charge exactly the per-config bubbles under front
 * ends whose BTB misses (small, two-level) or trains differently
 * (2-bit), on a SPEC analogue and on the BTB-hungry server workload.
 */
TEST(SweepKernel, FusedTimingMatchesPerConfigUnderBtbFrontends)
{
    const std::vector<IndirectConfig> configs = timingFamilyConfigs();
    const std::vector<std::pair<std::string, FrontendConfig>> fronts = {
        {"two-level", twoLevelBtbFrontend()},
        {"small", smallBtbFrontend()},
        {"two-bit", twoBitBtbFrontend()},
    };
    for (const char *name : {"gcc", "server-dispatch"}) {
        const SharedTrace trace = recordWorkload(name, 8000);
        for (const auto &[label, fe] : fronts) {
            const std::vector<CoreResult> fused =
                runTimingSweep(trace, configs, CoreParams{}, fe);
            ASSERT_EQ(fused.size(), configs.size());
            if (label == "two-level") {
                EXPECT_GT(fused[0].btbMissStallCycles, 0u)
                    << name << ": the two-level front end charges bubbles";
            }
            for (size_t c = 0; c < configs.size(); ++c) {
                expectSameCoreResult(
                    runTiming(trace, configs[c], CoreParams{}, fe),
                    fused[c],
                    std::string(name) + "/" + label + "/" +
                        configs[c].describe());
            }
        }
    }
}

/**
 * Hostile traces force the block-decode fallback in the branch-stream
 * extractor, and the fused loop suspends the lead core at stream.pos
 * boundaries — both must stay exact there.
 */
TEST(SweepKernel, FusedTimingMatchesPerConfigOnHostileTraces)
{
    // The core model contracts registers to [0, kNumArchRegs); clamp
    // the fixture's deliberate register escapes (the accuracy tests
    // keep them — they never touch the core).  The redirect-on-non-
    // branch and memAddr-on-branch ops still force the fallback scan.
    std::vector<MicroOp> ops = hostileOps(3000);
    for (MicroOp &op : ops) {
        if (op.dstReg != kNoReg && op.dstReg >= kNumArchRegs)
            op.dstReg = 33;
    }
    const SharedTrace trace(std::move(ops), "hostile");
    ASSERT_FALSE(trace.compact().fastBranchScan());
    const std::vector<IndirectConfig> configs = {
        taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
        cascadedConfig(),
        baselineConfig(),
    };
    const std::vector<CoreResult> fused = runTimingSweep(trace, configs);
    for (size_t c = 0; c < configs.size(); ++c)
        expectSameCoreResult(runTiming(trace, configs[c]), fused[c],
                             configs[c].describe());
}

/**
 * Deterministic-counter contract of the fused timing sweep: the
 * core.* and experiment.* counters must equal N per-config runTiming()
 * calls exactly, and the fork accounting (sweep.timing_forks /
 * shared_cycles / member_cycles, phase.sweep_timing) must be
 * populated.
 */
TEST(SweepKernel, FusedTimingCountersMatchPerConfig)
{
    const std::vector<IndirectConfig> configs = timingFamilyConfigs();
    const SharedTrace trace = recordWorkload("gcc", 10000);
    (void)trace.branchStream();  // both paths see a cached stream

    obs::globalMetrics().reset();
    for (const IndirectConfig &config : configs)
        (void)runTiming(trace, config);
    const obs::MetricsSnapshot ref = obs::globalMetrics().snapshot();

    obs::globalMetrics().reset();
    (void)runTimingSweep(trace, configs);
    const obs::MetricsSnapshot fused = obs::globalMetrics().snapshot();

    for (const char *key :
         {"core.cycles_simulated", "core.instructions_retired",
          "experiment.timing_runs", "experiment.instructions_replayed"})
        EXPECT_EQ(fused.counters.at(key), ref.counters.at(key)) << key;

    // This family mix diverges quickly, so forks must have happened,
    // and every fork splits the member's cycles into a shared prefix
    // and a private suffix.
    EXPECT_GT(fused.counters.at("sweep.timing_forks"), 0u);
    EXPECT_GT(fused.counters.at("sweep.shared_cycles"), 0u);
    EXPECT_GT(fused.counters.at("sweep.member_cycles"), 0u);
    EXPECT_GT(fused.timers.at("phase.sweep_timing").count, 0u);

    // The per-config path never forks (the counter is either absent
    // or zero, depending on what ran earlier in this process).
    const auto ref_forks = ref.counters.find("sweep.timing_forks");
    EXPECT_TRUE(ref_forks == ref.counters.end() ||
                ref_forks->second == 0u);
}

/** A counter's value, 0 when nothing registered it. */
uint64_t
counterOf(const obs::MetricsSnapshot &snap, const char *name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/**
 * Table 7's grid led by the BTB-only baseline: the tagged members
 * predict better than the lead, run ahead of it and ride it with
 * negative cycle shifts, re-forking and rejoining along the way.
 * Fused must still equal per-config runTiming() exactly, under the
 * default and the two-level BTB front ends.
 */
TEST(SweepKernel, FusedTimingRejoinsAheadOfTheLead)
{
    std::vector<IndirectConfig> configs = {baselineConfig()};
    for (TaggedIndexScheme scheme :
         {TaggedIndexScheme::Address, TaggedIndexScheme::HistoryConcat,
          TaggedIndexScheme::HistoryXor})
        for (unsigned ways : {1u, 2u, 4u, 8u, 16u})
            configs.push_back(taggedConfig(scheme, ways));
    const std::vector<std::pair<std::string, FrontendConfig>> fronts = {
        {"default", FrontendConfig{}},
        {"two-level", twoLevelBtbFrontend()},
    };
    for (const char *name : {"gcc", "perl"}) {
        const SharedTrace trace = recordWorkload(name, 12000);
        for (const auto &[label, fe] : fronts) {
            const std::string where = std::string(name) + "/" + label;
            obs::globalMetrics().reset();
            const std::vector<CoreResult> fused =
                runTimingSweep(trace, configs, CoreParams{}, fe);
            const obs::MetricsSnapshot snap =
                obs::globalMetrics().snapshot();
            EXPECT_GT(counterOf(snap, "rejoin.rejoins"), 0u) << where;
            EXPECT_GT(counterOf(snap, "rejoin.reforks"), 0u) << where;
            size_t ahead = 0;
            for (const CoreResult &r : fused)
                ahead += r.cycles < fused[0].cycles ? 1 : 0;
            EXPECT_GT(ahead, 0u) << where << ": no member beat the lead";

            ASSERT_EQ(fused.size(), configs.size());
            for (size_t c = 0; c < configs.size(); ++c) {
                expectSameCoreResult(
                    runTiming(trace, configs[c], CoreParams{}, fe), fused[c],
                    where + "/" + configs[c].describe());
            }
        }
    }
}

/**
 * Cores are suspended only at the engine's own events.  The lead runs
 * to each distinct divergence and each check point (one every
 * kRejoinCheckOps ops while a member runs), then drains; a member
 * runs to each of its checks, and drains once per fork or re-fork
 * that no rejoin ends.  So a batch makes at most
 *   1 + forks + check points       lead segments, plus
 *   checks + forks - rejoins       member segments
 * runSession() calls, forks counting re-forks.  Suspending the lead
 * at every indirect branch would break this.
 */
TEST(SweepKernel, FusedTimingRunsFewSessions)
{
    const std::vector<IndirectConfig> configs = timingFamilyConfigs();
    const SharedTrace trace = recordWorkload("gcc", 10000);

    obs::globalMetrics().reset();
    (void)runTimingSweep(trace, configs);
    const obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();

    const uint64_t forks = counterOf(snap, "sweep.timing_forks") +
                           counterOf(snap, "rejoin.reforks");
    const uint64_t checks = counterOf(snap, "rejoin.checks");
    const uint64_t rejoins = counterOf(snap, "rejoin.rejoins");
    const uint64_t check_points = (trace.size() - 1) / kRejoinCheckOps;
    const uint64_t sessions = snap.timers.at("phase.core_run").count;
    EXPECT_GT(forks, 0u);
    EXPECT_GT(rejoins, 0u);
    EXPECT_LE(sessions,
              (1 + forks + check_points) + (checks + forks - rejoins));
}

/**
 * sweep.* counters are deterministic: one-thread and four-thread
 * renders of the same fused table must produce identical values (the
 * serial-vs-parallel cell equality itself is covered by the fused
 * drivers inside test_paper_tables_differential).
 */
TEST(SweepKernel, CountersAgreeSerialVsParallel)
{
    const auto run = [](unsigned threads) {
        obs::globalMetrics().reset();
        globalTraceCache().clear();
        const TableOptions opt{.ops = 20000, .threads = threads};
        (void)renderTable4(opt);
        return obs::globalMetrics().snapshot();
    };
    const obs::MetricsSnapshot serial = run(1);
    const obs::MetricsSnapshot parallel = run(4);
    EXPECT_EQ(serial.counters, parallel.counters);
    EXPECT_GT(serial.counters.at("sweep.batches"), 0u);
    EXPECT_GT(serial.counters.at("sweep.configs"),
              serial.counters.at("sweep.batches"))
        << "Table 4 batches multiple configs per sweep";
    EXPECT_GT(serial.counters.at("sweep.branches"), 0u);
    // Two headline workloads, one cached stream each.
    EXPECT_EQ(serial.counters.at("sweep.streams_built"), 2u);
}

} // namespace
} // namespace tpred
