/**
 * @file
 * Fused sweep-kernel tests: runSweep() must return FrontendStats
 * bit-identical to per-config runAccuracy() — across every Table 4-9
 * configuration on all workloads and seeds, over the tuner's whole
 * standard space, under non-default front ends, and on hostile traces
 * that force forEachBranch's block-decode fallback — plus a
 * high-conflict fuzz of the batched tagged banks against the scalar
 * caches, HistorySpec grouping, BranchStream caching, and
 * serial-vs-parallel determinism of the sweep.* counters.  A SweepGrid
 * records one FrontendTape per (row, front end) and replays it in every
 * later batch, on many threads: its cells must equal one-shot sweeps
 * and per-config runs, credit btb.* per pass, and its batches follow
 * (row x front end x history group).
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "harness/batched_predictors.hh"
#include "harness/paper_tables.hh"
#include "harness/parallel_runner.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "test_util.hh"
#include "tune/config_space.hh"
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
 * The autotuner's whole standard space as one batch, histories mixed.
 * Its tagged caches share index keys across (entries, ways) pairs of
 * equal set count, which no paper table does, so this is where shared
 * (set, tag) derivations meet the per-config path.
 */
TEST(SweepKernel, FusedMatchesSequentialOnTheStandardSpace)
{
    const tune::ConfigSpace space = tune::enumerateSpace("standard");
    ASSERT_EQ(space.truncated(), 0u);
    std::vector<IndirectConfig> configs;
    for (const tune::TuneCandidate &c : space.candidates) {
        ASSERT_TRUE(c.frontendKey.empty()) << c.id;
        configs.push_back(c.config);
    }
    for (const char *name : {"gcc", "perl"}) {
        const SharedTrace trace = recordWorkload(name, 4000);
        const std::vector<FrontendStats> fused = runSweep(trace, configs);
        ASSERT_EQ(fused.size(), configs.size());
        EXPECT_GT(fused[0].indirectJumps.total(), 0u) << name;
        for (size_t c = 0; c < configs.size(); ++c) {
            expectSameStats(runAccuracy(trace, configs[c]), fused[c],
                            std::string(name) + "/" +
                                space.candidates[c].id);
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
 * High-conflict differential of the batch's LRU stacks against the
 * scalar TaggedTargetCache and CascadedPredictor: 1-16 ways, one to
 * four sets, a few PCs, targets and history values, so sets start
 * all-invalid, overflow and evict, under a two-entry BTB that misses
 * and mistargets often.  Each batch leads with caches that share one
 * index key: three tagged members — the first not the largest, one of
 * them 16-way — and a cascaded cache whose stage 2 has the same key,
 * which must keep a stack of its own.  run() reports every member's
 * predicted target at every indirect branch, and each must equal the
 * scalar cache's, given the same BTB probe and fetch-time history.
 */
TEST(BatchedPredictors, TaggedAndCascadedMatchScalarUnderConflict)
{
    std::mt19937_64 rng(0x5e7a55);
    const TaggedIndexScheme schemes[] = {TaggedIndexScheme::Address,
                                         TaggedIndexScheme::HistoryConcat,
                                         TaggedIndexScheme::HistoryXor};
    FrontendConfig fe;
    fe.btb.l1 = BtbConfig{1, 2};
    for (int trial = 0; trial < 60; ++trial) {
        const HistorySpec histories[] = {
            patternHistory(1 + rng() % 4),
            pathGlobal(PathFilter::IndJmp, 1 + rng() % 4)};
        const auto random_cache = [&](unsigned sets, unsigned ways) {
            TaggedConfig cache;
            cache.scheme = schemes[rng() % 3];
            cache.ways = ways;
            cache.entries = sets * ways;
            cache.tagBits = 2 + rng() % 8;
            cache.historyBits = 1 + rng() % 4;
            return cache;
        };
        const auto tagged = [](const HistorySpec &h, TaggedConfig cache) {
            IndirectConfig c;
            c.structure = IndirectStructure::Tagged;
            c.history = h;
            c.tagged = cache;
            return c;
        };
        const auto cascaded = [&](const HistorySpec &h,
                                  TaggedConfig cache) {
            IndirectConfig c;
            c.structure = IndirectStructure::Cascaded;
            c.history = h;
            c.cascaded.stage1Entries = 1u << (rng() % 3);
            c.cascaded.stage2 = cache;
            return c;
        };

        // One shared key: tagged at 1-8 ways, 16 ways and 1-16 ways,
        // and a cascaded stage 2 of the same key.
        const HistorySpec &key_history = histories[rng() % 2];
        const TaggedConfig key =
            random_cache(1u << (rng() % 3), 1 + rng() % 8);
        const auto twin = [&](unsigned ways) {
            TaggedConfig cache = key;
            cache.ways = ways;
            cache.entries = key.sets() * ways;
            return cache;
        };
        std::vector<IndirectConfig> configs = {
            tagged(key_history, key),
            tagged(key_history, twin(16)),
            cascaded(key_history, twin(1 + rng() % 16)),
            tagged(key_history, twin(1 + rng() % 16)),
        };
        for (int i = 0; i < 10; ++i) {
            const TaggedConfig cache =
                random_cache(1u << (rng() % 3), 1 + rng() % 16);
            const HistorySpec &h = histories[rng() % 2];
            configs.push_back(rng() % 3 == 0 ? cascaded(h, cache)
                                             : tagged(h, cache));
        }

        // Long enough for the member passes to cross chunk boundaries.
        BranchStreamBuilder builder;
        constexpr int kSteps = 4000;
        for (int step = 0; step < kSteps; ++step) {
            MicroOp op;
            op.cls = InstClass::Branch;
            op.pc = 0x1000 + 4 * (rng() % 6);
            op.fallthrough = op.pc + 4;
            op.taken = true;
            if (rng() % 3 == 0) {
                // Moves the pattern history only.
                op.branch = BranchKind::CondDirect;
                op.taken = rng() % 2 != 0;
                op.nextPc = op.taken ? op.pc + 0x40 : op.fallthrough;
            } else {
                op.branch = BranchKind::IndirectJump;
                op.nextPc = 0x8000 + 4 * (rng() % 8);
            }
            builder.append(static_cast<size_t>(step), op);
        }
        builder.opCount = kSteps;
        const BranchStream stream = std::move(builder).finish();
        const FrontendTape tape(stream, fe);
        const size_t n = tape.indirectCount();
        ASSERT_GT(n, 2 * BatchedPredictors::kChunkBranches);

        BatchedPredictors batch(configs);
        std::vector<uint64_t> predicted(configs.size() * n);
        batch.run(tape, {}, predicted);

        // The reference: a live front end whose stage runs every scalar
        // cache, given the same BTB probe and fetch-time history.
        struct ScalarStage
        {
            std::vector<PredictorStack> scalar;
            size_t indirects = 0;
            std::vector<uint64_t> want;  ///< [member * indirects + j]
            std::vector<uint64_t> history;
            std::vector<uint64_t> correct;
            uint64_t pc = 0;
            size_t j = 0;
            size_t btbHits = 0;

            void
            predictAll(const MicroOp &op, bool btb_hit, uint64_t btb_target)
            {
                btbHits += btb_hit ? 1 : 0;
                for (size_t m = 0; m < scalar.size(); ++m) {
                    history[m] = scalar[m].tracker->valueFor(op.pc);
                    want[m * indirects + j] =
                        btb_hit ? scalar[m]
                                      .predictor->predict(op.pc, history[m])
                                      .value_or(btb_target)
                                : op.fallthrough;
                }
                pc = op.pc;
            }
            uint64_t prediction(size_t) const { return 0; }
            void
            recordOutcomes(uint64_t next_pc)
            {
                for (size_t m = 0; m < scalar.size(); ++m)
                    correct[m] += want[m * indirects + j] == next_pc;
            }
            void
            updateAll(uint64_t next_pc)
            {
                for (size_t m = 0; m < scalar.size(); ++m)
                    scalar[m].predictor->update(pc, history[m], next_pc);
                ++j;
            }
            void
            observeTrackers(const MicroOp &op)
            {
                for (PredictorStack &s : scalar)
                    s.tracker->observe(op);
            }
        };
        ScalarStage reference;
        for (const IndirectConfig &c : configs)
            reference.scalar.push_back(buildStack(c));
        reference.indirects = n;
        reference.want.resize(configs.size() * n);
        reference.history.resize(configs.size());
        reference.correct.resize(configs.size());
        FrontendPredictor live(fe);
        for (size_t i = 0; i < stream.size(); ++i)
            (void)live.onInstruction(stream.opAt(i), reference);
        ASSERT_EQ(reference.j, n);
        EXPECT_GT(reference.btbHits, 0u);
        EXPECT_LT(reference.btbHits, n) << "the BTB must miss sometimes";

        for (size_t m = 0; m < configs.size(); ++m) {
            for (size_t k = 0; k < n; ++k) {
                ASSERT_EQ(predicted[m * n + k], reference.want[m * n + k])
                    << "trial " << trial << " indirect " << k << " "
                    << configs[m].describe();
            }
            EXPECT_EQ(batch.indirectStats(m).hits(), reference.correct[m]);
            EXPECT_EQ(batch.indirectStats(m).total(), n);
        }
    }
}

/**
 * Tagged caches share a stack exactly when they share an index key:
 * tracker, scheme, set bits, tag bits and history bits.  Ways and the
 * entry count that follows from them may differ; a cascaded stage 2
 * never shares, not even with a key of its own shape.
 */
TEST(BatchedPredictors, StacksShareIndexKeysOnly)
{
    const auto tagged = [](unsigned entries, unsigned ways,
                           unsigned history = 9) {
        return taggedConfig(TaggedIndexScheme::HistoryXor, ways,
                            patternHistory(history), entries);
    };
    IndirectConfig narrow_tag = tagged(64, 2);
    narrow_tag.tagged.tagBits = 8;
    IndirectConfig cascade = cascadedConfig(128, 4);
    cascade.cascaded.stage2 = tagged(128, 4).tagged;
    const std::vector<IndirectConfig> configs = {
        tagged(64, 2),    // 32 sets: one key ...
        tagged(256, 8),   // ... the same key
        tagged(32, 1),    // ... and again
        tagged(128, 4),   // ... and again
        narrow_tag,       // another tag width
        tagged(64, 4),    // 16 sets
        tagged(64, 2, 5), // another history: another tracker
        cascade,          // 32 sets, the first key's shape: apart
        cascade,          // and apart from its equal, too
        taglessGshare(),
        baselineConfig(),
    };
    const BatchedPredictors batch(configs);
    EXPECT_EQ(batch.stackCount(), 6u);
    EXPECT_EQ(batch.trackerCount(), 2u);
}

/**
 * hostileOps() as a trace the core model accepts.  The core contracts
 * registers to [0, kNumArchRegs), so the fixture's deliberate register
 * escapes are clamped (the accuracy tests keep them — they never touch
 * the core); the redirect-on-non-branch and memAddr-on-branch ops
 * still force the fallback scan.
 */
SharedTrace
hostileTimingTrace(size_t ops)
{
    std::vector<MicroOp> raw = hostileOps(ops);
    for (MicroOp &op : raw) {
        if (op.dstReg >= static_cast<RegIndex>(kNumArchRegs))
            op.dstReg = 33;
    }
    return SharedTrace(std::move(raw), "hostile");
}

/**
 * Hostile traces force the block-decode fallback in the branch-stream
 * extractor, and the fused loop suspends the lead core at stream.pos
 * boundaries — both must stay exact there.
 */
TEST(SweepKernel, FusedTimingMatchesPerConfigOnHostileTraces)
{
    const SharedTrace trace = hostileTimingTrace(3000);
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
 * The paper drivers run every timing cell as a runTimingSweep() batch,
 * the BTB-only baselines and btb_pressure's stall cells as batches of
 * one.  On a trace whose branch stream is built, a batch of one is
 * runTiming() exactly: the same result and the same delta of every
 * core.*, sweep.*, btb.* and experiment.* counter.
 */
TEST(SweepKernel, OneMemberTimingSweepMatchesRunTiming)
{
    struct Cell
    {
        const char *label;
        IndirectConfig config;
        FrontendConfig fe;
    };
    const std::vector<Cell> cells = {
        {"baseline/default", baselineConfig(), FrontendConfig{}},
        {"tagless/default", taglessGshare(), FrontendConfig{}},
        {"tagless/small", taglessGshare(), smallBtbFrontend()},
        {"tagless/two-level", taglessGshare(), twoLevelBtbFrontend()},
    };
    // Nonzero values only: a counter one path never registered reads 0.
    const auto deltas = [] {
        const obs::MetricsSnapshot snap = obs::globalMetrics().snapshot();
        std::map<std::string, uint64_t> out;
        for (const auto *kind : {&snap.counters, &snap.runtime})
            for (const auto &[name, value] : *kind)
                for (const char *prefix :
                     {"core.", "sweep.", "btb.", "experiment."})
                    if (name.starts_with(prefix) && value != 0)
                        out[name] = value;
        return out;
    };
    for (const char *name : {"gcc", "server-dispatch"}) {
        const SharedTrace trace = recordWorkload(name, 10000);
        (void)trace.branchStream();
        for (const Cell &cell : cells) {
            const std::string where = std::string(name) + "/" + cell.label;
            obs::globalMetrics().reset();
            const CoreResult live =
                runTiming(trace, cell.config, CoreParams{}, cell.fe);
            const auto want = deltas();

            obs::globalMetrics().reset();
            const std::vector<CoreResult> taped = runTimingSweep(
                trace, std::span(&cell.config, 1), CoreParams{}, cell.fe);
            const auto got = deltas();

            ASSERT_EQ(taped.size(), 1u) << where;
            expectSameCoreResult(live, taped[0], where);
            EXPECT_EQ(want, got) << where;
            EXPECT_TRUE(want.contains("core.cycles_simulated")) << where;
            EXPECT_TRUE(want.contains("btb.l1_hits")) << where;
            EXPECT_TRUE(want.contains("experiment.timing_runs")) << where;
        }
    }
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

/** The front ends the tape tests cover, by label. */
std::vector<std::pair<std::string, FrontendConfig>>
tapeFrontends()
{
    FrontendConfig tourney;
    tourney.direction = DirectionScheme::Tournament;
    return {
        {"default", FrontendConfig{}},
        {"two-bit", twoBitBtbFrontend()},
        {"small", smallBtbFrontend()},
        {"two-level", twoLevelBtbFrontend()},
        {"tournament", tourney},
    };
}

/** @p configs cut into batches of at most @p size, in order. */
std::vector<std::vector<IndirectConfig>>
batchesOf(const std::vector<IndirectConfig> &configs, size_t size)
{
    std::vector<std::vector<IndirectConfig>> out;
    for (size_t i = 0; i < configs.size(); i += size)
        out.emplace_back(configs.begin() + static_cast<std::ptrdiff_t>(i),
                         configs.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(configs.size(),
                                                        i + size)));
    return out;
}

/** @p configs as grid columns under @p fe. */
std::vector<SweepColumn>
columnsOf(const std::vector<IndirectConfig> &configs,
          const FrontendConfig &fe)
{
    std::vector<SweepColumn> columns;
    for (const IndirectConfig &config : configs)
        columns.push_back({config, fe});
    return columns;
}

/**
 * One grid per trace, called once per batch of columns and front
 * end: it records one tape per (trace, front end) and every later call
 * replays it.  Every call's cells equal a one-shot runSweep() and
 * runTimingSweep() of the same batch, and per-config runAccuracy() and
 * runTiming() — stats, cycles, penalty breakdown and BTB-miss bubbles
 * — on SPEC traces and on a hostile one, under the default, 2-bit,
 * small, two-level and tournament front ends.
 */
TEST(FrontendTape, ReplayedByManyBatchesMatchesOneShotAndPerConfig)
{
    const std::vector<IndirectConfig> configs = timingFamilyConfigs();
    const std::vector<SharedTrace> traces = {
        recordWorkload("gcc", 6000),
        recordWorkload("perl", 6000),
        hostileTimingTrace(3000),
    };
    ASSERT_FALSE(traces[2].compact().fastBranchScan());
    for (const SharedTrace &trace : traces) {
        SweepGrid grid({trace});
        for (const auto &[label, fe] : tapeFrontends()) {
            const std::string where = trace.name() + "/" + label;
            obs::globalMetrics().reset();
            for (const auto &batch : batchesOf(configs, 3)) {
                const auto columns = columnsOf(batch, fe);
                const auto replayed = grid.accuracy(columns);
                const auto one_shot = runSweep(trace, batch, fe);
                const auto timed = grid.timing(columns);
                const auto timed_one_shot =
                    runTimingSweep(trace, batch, CoreParams{}, fe);
                ASSERT_EQ(replayed.size(), batch.size()) << where;
                ASSERT_EQ(timed.size(), batch.size()) << where;
                for (size_t k = 0; k < batch.size(); ++k) {
                    const std::string cell =
                        where + "/" + batch[k].describe();
                    expectSameStats(one_shot[k], replayed[k], cell);
                    expectSameStats(runAccuracy(trace, batch[k], fe),
                                    replayed[k], cell);
                    expectSameCoreResult(timed_one_shot[k], timed[k], cell);
                    expectSameCoreResult(
                        runTiming(trace, batch[k], CoreParams{}, fe),
                        timed[k], cell);
                }
            }
            // The grid recorded this front end's tape once; each
            // one-shot sweep recorded its own.
            const size_t batches = batchesOf(configs, 3).size();
            EXPECT_EQ(counterOf(obs::globalMetrics().snapshot(),
                                "frontend.tapes_recorded"),
                      1 + 2 * batches)
                << where;
        }
    }
}

/**
 * Each pass over a grid's tape credits btb.* once, exactly as a
 * per-config run does, whether the call recorded the tape or replays
 * it: the recording itself credits nothing.
 */
TEST(FrontendTape, EachReplayedPassCreditsBtbLikePerConfig)
{
    const auto btb_deltas = [] {
        std::map<std::string, uint64_t> out;
        for (const auto &[name, value] :
             obs::globalMetrics().snapshot().counters)
            if (name.starts_with("btb."))
                out[name] = value;
        return out;
    };
    // One history group: one pass per call.
    const std::vector<IndirectConfig> batch = {
        taglessGshare(), taggedConfig(TaggedIndexScheme::HistoryXor, 4)};
    for (const char *name : {"gcc", "server-dispatch"}) {
        const SharedTrace trace = recordWorkload(name, 8000);
        for (const auto &[label, fe] : tapeFrontends()) {
            const std::string where = std::string(name) + "/" + label;
            obs::globalMetrics().reset();
            (void)runAccuracy(trace, batch[0], fe);
            const auto want = btb_deltas();
            ASSERT_GT(want.at("btb.l1_hits"), 0u) << where;

            SweepGrid grid({trace});
            const auto columns = columnsOf(batch, fe);
            for (int pass = 0; pass < 3; ++pass) {
                obs::globalMetrics().reset();
                (void)grid.accuracy(columns);
                EXPECT_EQ(btb_deltas(), want)
                    << where << " accuracy pass " << pass;

                obs::globalMetrics().reset();
                (void)grid.timing(columns);
                EXPECT_EQ(btb_deltas(), want)
                    << where << " timing pass " << pass;
            }
            obs::globalMetrics().reset();
            (void)runTiming(trace, batch[0], CoreParams{}, fe);
            EXPECT_EQ(btb_deltas(), want) << where << " runTiming";
        }
    }
}

/**
 * A grid's tape shared by the jobs of its history groups, at 1, 4 and
 * 8 jobs, gives the same cells at every job count, equal to per-config
 * runs (and races nowhere under the tsan preset).
 */
TEST(FrontendTape, SharedAcrossRunnerThreadsIsIdentical)
{
    const SharedTrace trace = recordWorkload("perl", 6000);
    const FrontendConfig fe = twoLevelBtbFrontend();
    const auto columns = columnsOf(allTableConfigs(), fe);
    const auto timed = columnsOf(timingFamilyConfigs(), fe);

    const auto run = [&](unsigned jobs) {
        const test::ScopedJobs scoped(jobs);
        SweepGrid grid({trace});
        auto stats = grid.accuracy(columns);
        return std::make_pair(std::move(stats), grid.timing(timed));
    };
    const auto [serial_stats, serial_cores] = run(1);
    for (size_t c = 0; c < columns.size(); ++c)
        expectSameStats(runAccuracy(trace, columns[c].config, fe),
                        serial_stats[c], columns[c].config.describe());
    for (size_t k = 0; k < timed.size(); ++k)
        expectSameCoreResult(runTiming(trace, timed[k].config, CoreParams{}, fe),
                             serial_cores[k], timed[k].config.describe());
    for (unsigned jobs : {4u, 8u}) {
        const auto [stats, cores] = run(jobs);
        for (size_t c = 0; c < columns.size(); ++c)
            expectSameStats(serial_stats[c], stats[c],
                            std::to_string(jobs) + " jobs/" +
                                columns[c].config.describe());
        for (size_t k = 0; k < timed.size(); ++k)
            expectSameCoreResult(serial_cores[k], cores[k],
                                 std::to_string(jobs) + " jobs/" +
                                     timed[k].config.describe());
    }
}

/**
 * The grid's batching rule.  One call with mixed front ends and
 * histories, then a one-member call on the same rows: the first
 * records one tape per (row, front end) and the second none, and each
 * call's sweep.batches and sweep.history_groups equal its (row x front
 * end x history group) triples.  Cells come back in (row, column)
 * order, equal to per-config runAccuracy().
 */
TEST(SweepGrid, RecordsOneTapePerRowAndFrontEnd)
{
    const std::vector<SharedTrace> traces = {recordWorkload("gcc", 4000),
                                             recordWorkload("perl", 4000)};
    const FrontendConfig small = smallBtbFrontend();
    // Default front end: {pattern(9): 0, 2, 5}, {path-branch: 3}.
    // Small: {pattern(8): 1}, {path-control: 4}, {pattern(9): 6}.
    const std::vector<SweepColumn> columns = {
        {taglessGshare(patternHistory(9))},
        {taglessGshare(patternHistory(8)), small},
        {taglessGAg(9)},
        {taglessGshare(pathGlobal(PathFilter::Branch))},
        {taglessGshare(pathGlobal(PathFilter::Control)), small},
        {taggedConfig(TaggedIndexScheme::HistoryXor, 4)},
        {taggedConfig(TaggedIndexScheme::HistoryXor, 4), small},
    };
    const uint64_t triples = traces.size() * 5;
    const auto count = [](const char *name) {
        return counterOf(obs::globalMetrics().snapshot(), name);
    };

    SweepGrid grid(traces);
    obs::globalMetrics().reset();
    const auto cells = grid.accuracy(columns);
    EXPECT_EQ(count("frontend.tapes_recorded"), traces.size() * 2);
    EXPECT_EQ(count("sweep.batches"), triples);
    EXPECT_EQ(count("sweep.history_groups"), triples);

    const SweepColumn solo[] = {columns[1]};
    obs::globalMetrics().reset();
    const auto again = grid.accuracy(solo);
    EXPECT_EQ(count("frontend.tapes_recorded"), 0u);
    EXPECT_EQ(count("sweep.batches"), traces.size());
    EXPECT_EQ(count("sweep.history_groups"), traces.size());

    ASSERT_EQ(cells.size(), traces.size() * columns.size());
    for (size_t r = 0; r < traces.size(); ++r) {
        for (size_t c = 0; c < columns.size(); ++c)
            expectSameStats(runAccuracy(traces[r], columns[c].config,
                                        columns[c].frontend),
                            cells[r * columns.size() + c],
                            traces[r].name() + "/" +
                                columns[c].config.describe());
        expectSameStats(cells[r * columns.size() + 1], again[r],
                        traces[r].name() + "/again");
    }

    SweepGrid streams({std::make_shared<const BranchStream>(
        traces[0].branchStream())});
    EXPECT_THROW((void)streams.timing(solo), std::logic_error);
}

/**
 * A paper render simulates each (trace, front end) once: Table 7
 * (two traces, one front end, a baseline and 15 grid cells each)
 * records two tapes, Table 2 (eight traces, two front ends) sixteen,
 * and btb_pressure (five traces, three hierarchies) fifteen.
 */
TEST(FrontendTape, PaperRendersRecordOneTapePerTraceAndFrontEnd)
{
    const test::ScopedJobs jobs(2);
    const auto tapes_recorded = [&](std::string (*render)(
                                        const TableOptions &)) {
        obs::globalMetrics().reset();
        (void)render({.ops = 20000});
        return counterOf(obs::globalMetrics().snapshot(),
                         "frontend.tapes_recorded");
    };
    EXPECT_EQ(tapes_recorded(renderTable7), 2u);
    EXPECT_EQ(tapes_recorded(renderTable2), 16u);
    EXPECT_EQ(tapes_recorded(renderBtbPressure), 15u);
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
        const test::ScopedJobs jobs(threads);
        const test::ScopedNoCorpus recorded_here;
        obs::globalMetrics().reset();
        globalTraceCache().clear();
        (void)renderTable4({.ops = 20000});
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
