/**
 * @file
 * Sharded-vs-continuous differential: for every workload, replaying a
 * segmented container's accuracy in shards (with checkpoint restore +
 * warm-up) must be bit-identical to continuous serial replay —
 * FrontendStats and the deterministic observability counters agree,
 * and every shard's boundary proofs hold.  Shard counts include 7
 * over 7 segments (uneven region/segment alignment) and 1
 * (degenerate).  Also covers the streaming primitives: streaming
 * timing vs resident runTiming, SegmentedReplay vs resident decode,
 * extractBranchStream vs BranchStream::extract, and the fused sweep
 * on segments.  Last, every timing entry (and tpredsim) on a trace
 * whose registers the core cannot track.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "corpus/corpus.hh"
#include "corpus/segmented_trace.hh"
#include "harness/paper_tables.hh"
#include "harness/shard_replay.hh"
#include "harness/sweep_kernel.hh"
#include "obs/metrics.hh"
#include "test_util.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace tpred
{
namespace
{

constexpr size_t kOps = 40000;
constexpr size_t kSegmentOps = 6000;  // 7 segments over 40k ops

/** Fresh empty directory under the system temp dir. */
std::string
makeTempDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path dir = fs::temp_directory_path() /
                         ("tpred_shard_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

struct TempDir
{
    explicit TempDir(const std::string &tag) : path(makeTempDir(tag)) {}
    ~TempDir() { fs::remove_all(path); }
    std::string path;
};

/** Builds a segmented container for @p workload in @p dir. */
std::shared_ptr<const SegmentedTrace>
makeSegmented(const std::string &dir, const std::string &workload,
              uint64_t seed, size_t ops = kOps,
              size_t segment_ops = kSegmentOps)
{
    CorpusManager corpus(dir);
    const CorpusKey key{workload, seed, ops};
    auto source = makeWorkload(workload, seed);
    corpus.storeSegmentedFromSource(key, *source, source->name(),
                                    segment_ops);
    auto trace = corpus.loadSegmented(key, segment_ops);
    EXPECT_NE(trace, nullptr);
    return trace;
}

bool
sameStats(const FrontendStats &a, const FrontendStats &b)
{
    auto ratio_eq = [](const RatioStat &x, const RatioStat &y) {
        return x.hits() == y.hits() && x.total() == y.total();
    };
    return a.instructions == b.instructions &&
           ratio_eq(a.allBranches, b.allBranches) &&
           ratio_eq(a.condDirection, b.condDirection) &&
           ratio_eq(a.condBranches, b.condBranches) &&
           ratio_eq(a.uncondDirect, b.uncondDirect) &&
           ratio_eq(a.indirectJumps, b.indirectJumps) &&
           ratio_eq(a.returns, b.returns) &&
           ratio_eq(a.btbHits, b.btbHits);
}

bool
sameResult(const CoreResult &a, const CoreResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.stallCyclesByKind == b.stallCyclesByKind &&
           sameStats(a.frontend, b.frontend);
}

class ShardWorkloads
    : public ::testing::TestWithParam<const char *>
{
};

/**
 * The tentpole differential: for 2 seeds x shard counts {1, 2, 4, 7},
 * sharded accuracy replay equals streaming replay equals resident
 * runAccuracy(), every checkpoint proof holds, and the deterministic
 * counter deltas of streaming and sharded runs are identical but for
 * the runner's count of the shard fan-out (a sharded replay is
 * otherwise counter-indistinguishable from a continuous one).
 */
TEST_P(ShardWorkloads, AccuracyShardedIsBitIdentical)
{
    const std::string workload = GetParam();
    const TempDir dir("acc_" + workload);
    const IndirectConfig config =
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(9));

    for (const uint64_t seed : {1u, 2u}) {
        const auto seg = makeSegmented(dir.path, workload, seed);
        ASSERT_EQ(seg->segmentCount(), 7u);
        const SharedTrace resident =
            recordWorkload(workload, kOps, seed);
        const FrontendStats expected = runAccuracy(resident, config);

        const auto before = obs::globalMetrics().snapshot();
        const FrontendStats streaming =
            runAccuracyStreaming(seg, config);
        const auto mid = obs::globalMetrics().snapshot();
        EXPECT_TRUE(sameStats(streaming, expected))
            << workload << " seed " << seed;

        for (const unsigned shards : {1u, 2u, 4u, 7u}) {
            const auto pre = obs::globalMetrics().snapshot();
            const ShardedAccuracyResult sharded = runAccuracySharded(
                seg, config, {.shards = shards});
            const auto post = obs::globalMetrics().snapshot();

            EXPECT_TRUE(sharded.verified())
                << workload << " seed " << seed << " shards "
                << shards;
            ASSERT_EQ(sharded.shards.size(), shards);
            for (const ShardProof &p : sharded.shards) {
                EXPECT_TRUE(p.entryMatched) << p.beginOp;
                EXPECT_TRUE(p.exitMatched) << p.endOp;
                EXPECT_TRUE(p.error.empty()) << p.error;
            }
            EXPECT_TRUE(sameStats(sharded.stats, expected));
            EXPECT_TRUE(sameStats(sharded.serial, expected));
            EXPECT_GT(sharded.checkpointBytes, 0u);

            // Deterministic counters must not see the difference
            // between one continuous replay and a sharded one, apart
            // from the shard fan-out itself: one runner batch of one
            // job per shard.
            auto want = obs::snapshotDelta(before, mid).counters;
            want["runner.batches"] += 1;
            want["runner.jobs"] += shards;
            EXPECT_EQ(want, obs::snapshotDelta(pre, post).counters)
                << workload << " shards " << shards;
        }
    }
}

/** Streaming timing replay equals resident runTiming() on a workload
 *  subset (the core model is ~20x the cost of the accuracy path). */
TEST(ShardReplay, TimingStreamingIsBitIdentical)
{
    const IndirectConfig config =
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(9));
    for (const std::string workload : {"gcc", "perl"}) {
        const TempDir dir("timing_" + workload);
        const auto seg = makeSegmented(dir.path, workload, 1);
        const SharedTrace resident = recordWorkload(workload, kOps, 1);
        const CoreResult expected = runTiming(resident, config);

        const CoreResult streaming = runTimingStreaming(seg, config);
        EXPECT_TRUE(sameResult(streaming, expected)) << workload;
    }
}

/** Shard counts that exceed the segment count or the op count still
 *  verify (degenerate regions collapse to zero-length warm-ups). */
TEST(ShardReplay, MoreShardsThanSegmentsStillVerifies)
{
    const TempDir dir("tiny");
    const auto seg = makeSegmented(dir.path, "compress", 3, 2000, 700);
    ASSERT_EQ(seg->segmentCount(), 3u);
    const ShardedAccuracyResult sharded = runAccuracySharded(
        seg, taglessGshare(), {.shards = 11});
    EXPECT_TRUE(sharded.verified());
    EXPECT_TRUE(sameStats(sharded.stats, sharded.serial));
}

/** SegmentedReplay must yield exactly the resident op sequence,
 *  opening each segment window once. */
TEST(ShardReplay, SegmentedReplayMatchesResidentDecode)
{
    const TempDir dir("replay");
    const auto seg = makeSegmented(dir.path, "go", 5);
    const SharedTrace resident = recordWorkload("go", kOps, 5);
    const std::vector<MicroOp> ops = resident.compact().decodeAll();
    ASSERT_EQ(ops.size(), seg->totalOps());

    size_t windows = 0;
    SegmentedReplay replay(seg, [&] { ++windows; });
    MicroOp op;
    for (size_t i = 0; i < ops.size(); ++i) {
        ASSERT_TRUE(replay.next(op)) << "op " << i;
        EXPECT_EQ(op.pc, ops[i].pc) << "op " << i;
        EXPECT_EQ(op.nextPc, ops[i].nextPc) << "op " << i;
        EXPECT_EQ(op.cls, ops[i].cls) << "op " << i;
        EXPECT_EQ(op.branch, ops[i].branch) << "op " << i;
    }
    EXPECT_FALSE(replay.next(op));
    EXPECT_EQ(windows, seg->segmentCount());
}

/** extractBranchStream must equal the resident extraction, and the
 *  fused sweep kernel must produce identical stats over it. */
TEST(ShardReplay, BranchStreamAndSweepMatchResident)
{
    const TempDir dir("sweep");
    const auto seg = makeSegmented(dir.path, "vortex", 2);
    const SharedTrace resident = recordWorkload("vortex", kOps, 2);

    const BranchStream from_seg = extractBranchStream(*seg);
    const BranchStream from_res =
        BranchStream::extract(resident.compact());
    ASSERT_EQ(from_seg.size(), from_res.size());
    EXPECT_EQ(from_seg.opCount, from_res.opCount);
    EXPECT_TRUE(from_seg == from_res);

    const std::vector<IndirectConfig> configs = {
        taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(9)),
        cascadedConfig(),
    };
    const auto swept = runSweep(from_seg, configs);
    ASSERT_EQ(swept.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(sameStats(swept[i],
                              runAccuracy(resident, configs[i])))
            << "config " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ShardWorkloads,
    ::testing::Values("compress", "gcc", "go", "ijpeg", "m88ksim",
                      "perl", "vortex", "xlisp"),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * A hand-built trace whose registers lie outside the core's
 * [0, kNumArchRegs): legal in every container, which carries any i16
 * register.  Op 700 reads register 150 (a plain register byte), op
 * 1200 writes 200 and op 1500 reads -7 (an escape).
 */
std::vector<MicroOp>
outOfRangeRegisterOps()
{
    std::vector<MicroOp> ops = test::randomTrace(7, 2000);
    ops[700].srcRegs[0] = 150;
    ops[1200].dstReg = 200;
    ops[1500].srcRegs[1] = -7;
    return ops;
}

/** Runs @p entry, which must throw RegisterRangeError at op 700. */
template <typename Entry>
void
expectRejectedAtOp700(Entry &&entry, const std::string &context)
{
    try {
        entry();
        ADD_FAILURE() << context << ": accepted the trace";
    } catch (const RegisterRangeError &e) {
        EXPECT_EQ(e.opIndex(), 700u) << context;
        EXPECT_NE(std::string(e.what()).find("op 700 names register 150"),
                  std::string::npos)
            << context << ": " << e.what();
    }
}

TEST(RegisterRange, EveryTimingEntryNamesTheFirstBadOp)
{
    const std::vector<MicroOp> ops = outOfRangeRegisterOps();
    const SharedTrace trace(ops, "bad-registers");
    const IndirectConfig tagged =
        taggedConfig(TaggedIndexScheme::HistoryXor, 4);
    const std::vector<IndirectConfig> batch = {tagged, baselineConfig(),
                                               taglessGshare()};

    expectRejectedAtOp700([&] { runTiming(trace, tagged); }, "runTiming");
    expectRejectedAtOp700([&] { runTimingSweep(trace, batch); },
                          "runTimingSweep");

    // Segments of 600 ops: the first bad op lies in the second window.
    const TempDir dir("registers");
    CorpusManager corpus(dir.path);
    const CorpusKey key{"bad-registers", 1, ops.size()};
    VectorTraceSource source(ops, "bad-registers");
    corpus.storeSegmentedFromSource(key, source, source.name(), 600);
    const auto seg = corpus.loadSegmented(key, 600);
    ASSERT_NE(seg, nullptr);
    expectRejectedAtOp700([&] { runTimingStreaming(seg, tagged); },
                          "runTimingStreaming");
}

TEST(RegisterRange, TpredsimTimingExitsNonZero)
{
    const TempDir dir("registers_cli");
    const SharedTrace trace(outOfRangeRegisterOps(), "bad-registers");
    const std::string path = dir.path + "/bad.tpr";
    const std::string log = dir.path + "/stderr.txt";
    saveTraceFile(path, trace.compact(), trace.name());

    const std::string cmd = std::string(TPRED_TPREDSIM) +
                            " --load-trace " + path +
                            " --timing > /dev/null 2> " + log;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_NE(WEXITSTATUS(status), 0) << cmd;
    std::ifstream in(log);
    const std::string err((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(err.find("op 700 names register 150"), std::string::npos)
        << err;
}

} // namespace
} // namespace tpred
