/**
 * @file
 * Branch-stream pipeline tests: the TPBS container codec
 * (round-trips, determinism, edge-case traces), the TraceCache
 * stream tier and its counters, the hardware-vs-software CRC32C
 * proof, and corpus ls/gc behaviour for derived stream containers.
 * Stream-container corruption is covered with the other kinds by
 * ContainerCorruption in test_corpus.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/crc32c.hh"
#include "corpus/corpus.hh"
#include "harness/paper_tables.hh"
#include "harness/shard_replay.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "test_util.hh"
#include "trace/branch_stream.hh"
#include "trace/compact_io.hh"
#include "trace/stream_io.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace tpred
{
namespace
{

/** Fresh empty directory under the system temp dir. */
std::string
makeTempDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path dir = fs::temp_directory_path() /
                         ("tpred_stream_" + tag + "_" +
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

/** Registry counter value; every counter is registered at 0. */
uint64_t
counterOf(const obs::MetricsRegistry &reg, const std::string &name)
{
    return reg.snapshot().counters.at(name);
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
           ratio_eq(a.indirectJumps, b.indirectJumps) &&
           ratio_eq(a.returns, b.returns) &&
           ratio_eq(a.btbHits, b.btbHits);
}

std::vector<IndirectConfig>
sweepBatch()
{
    return {
        taglessGshare(),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(9)),
        cascadedConfig(),
    };
}

CompactTrace
sampleTrace(size_t ops = 5000)
{
    auto workload = makeWorkload("perl", 7);
    return CompactTrace::encode(drainTrace(*workload, ops));
}

/** Serializes then reopens @p stream, verifying the name round-trip. */
BranchStream
roundTrip(const BranchStream &stream, const std::string &name)
{
    auto image = std::make_shared<std::vector<uint8_t>>(
        serializeBranchStream(stream, name));
    std::string got_name;
    const BranchStream back = openBranchStreamContainer(
        *image, image, got_name, "image");
    EXPECT_EQ(got_name, name);
    return back;
}

// ---------------------------------------------------------------
// TPBS container codec
// ---------------------------------------------------------------

TEST(StreamContainer, RoundTripIsLossless)
{
    const CompactTrace trace = sampleTrace();
    const BranchStream stream = BranchStream::extract(trace);
    ASSERT_GT(stream.size(), 0u);

    const BranchStream back = roundTrip(stream, "perl");
    EXPECT_TRUE(stream == back);
    EXPECT_EQ(back.opCount, trace.size());

    // The reopened (zero-copy) stream drives the fused sweep to the
    // exact statistics of the freshly extracted one.
    const std::vector<FrontendStats> want = runSweep(stream,
                                                     sweepBatch());
    const std::vector<FrontendStats> got = runSweep(back, sweepBatch());
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_TRUE(sameStats(want[i], got[i]));
}

TEST(StreamContainer, SerializationIsDeterministic)
{
    const BranchStream stream =
        BranchStream::extract(sampleTrace(3000));
    EXPECT_EQ(serializeBranchStream(stream, "perl"),
              serializeBranchStream(stream, "perl"));
}

TEST(StreamContainer, PeekReportsHeaderSummary)
{
    const CompactTrace trace = sampleTrace(4000);
    const BranchStream stream = BranchStream::extract(trace);
    const std::vector<uint8_t> image =
        serializeBranchStream(stream, "perl");

    const ContainerInfo info = peekBranchStreamContainer(image, "image");
    EXPECT_EQ(info.name, "perl");
    EXPECT_EQ(info.opCount, trace.size());
    EXPECT_EQ(info.branchCount, stream.size());
    EXPECT_EQ(info.version, kStreamVersion);
    EXPECT_EQ(info.fileBytes, image.size());
}

TEST(StreamContainer, EmptyTraceRoundTrips)
{
    const CompactTrace trace = CompactTrace::encode({});
    const BranchStream stream = BranchStream::extract(trace);
    EXPECT_EQ(stream.size(), 0u);
    EXPECT_EQ(stream.opCount, 0u);

    const BranchStream back = roundTrip(stream, "empty");
    EXPECT_TRUE(stream == back);
}

TEST(StreamContainer, BranchlessTraceRoundTrips)
{
    // All plain ops: a valid trace whose stream has zero branches but
    // a nonzero op count (every op still counts one instruction).
    std::vector<MicroOp> ops;
    for (uint64_t i = 0; i < 64; ++i)
        ops.push_back(test::plainOp(0x1000 + i * 4));
    const CompactTrace trace = CompactTrace::encode(ops);

    const BranchStream stream = BranchStream::extract(trace);
    EXPECT_EQ(stream.size(), 0u);
    EXPECT_EQ(stream.opCount, 64u);

    const BranchStream back = roundTrip(stream, "branchless");
    EXPECT_TRUE(stream == back);
    EXPECT_EQ(back.opCount, 64u);
}

/** Ops that defeat the encode-time fast scan (see test_sweep.cc). */
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
        switch (phase++ % 5) {
          case 0:  // plain op
            op.nextPc = op.fallthrough;
            break;
          case 1:  // redirect on a non-branch (kills the fast scan)
            op.nextPc = pc + 0x40;
            break;
          case 2: {  // indirect jump with memAddr on a branch
            op.cls = InstClass::Branch;
            op.branch = BranchKind::IndirectJump;
            op.taken = true;
            op.memAddr = 0xbeef;
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

TEST(StreamContainer, HostileTraceExtractsAndRoundTrips)
{
    // Extraction must take the block-decode fallback and still match
    // what forEachBranch reports; the container must round-trip it.
    const std::vector<MicroOp> ops = hostileOps(4000);
    const CompactTrace trace = CompactTrace::encode(ops);
    const BranchStream stream = BranchStream::extract(trace);

    size_t branches = 0;
    for (const MicroOp &op : ops)
        if (op.cls == InstClass::Branch)
            ++branches;
    ASSERT_EQ(stream.size(), branches);
    EXPECT_EQ(stream.opCount, ops.size());

    const BranchStream back = roundTrip(stream, "hostile");
    EXPECT_TRUE(stream == back);
}

TEST(StreamContainer, GarbageBytesAreRejected)
{
    const std::vector<uint8_t> junk(256, 0xA5);
    std::string name;
    EXPECT_THROW(openBranchStreamContainer(junk, nullptr, name, "junk"),
                 CompactFormatError);
    EXPECT_THROW(peekBranchStreamContainer(junk, "junk"),
                 CompactFormatError);
}

// ---------------------------------------------------------------
// TraceCache stream tier
// ---------------------------------------------------------------

TEST(StreamTier, CacheMemoizesAndPersistsStreams)
{
    const TempDir dir("tier");
    const std::string workload = "xlisp";
    const size_t ops = 20000;

    std::shared_ptr<const BranchStream> first;
    {
        TraceCache cache;
        cache.attachCorpus(std::make_shared<CorpusManager>(dir.path));
        first = cache.getStream(workload, ops);
        ASSERT_NE(first, nullptr);
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.stream_misses"), 1u);
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.stream_extractions"), 1u);
        EXPECT_EQ(counterOf(cache.corpus()->metricsRegistry(),
                            "stream_corpus.stores"), 1u);

        // Memo hit on re-request: same shared stream, no new work.
        EXPECT_EQ(cache.getStream(workload, ops), first);
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.stream_hits"), 1u);
    }
    ASSERT_TRUE(fs::exists(
        fs::path(dir.path) /
        CorpusManager::streamFileName({workload, 1, ops})));

    // Second process (simulated): the stream tier serves from disk —
    // zero-copy, no trace decode, no extraction pass.
    TraceCache cache;
    cache.attachCorpus(std::make_shared<CorpusManager>(dir.path));
    const auto warm = cache.getStream(workload, ops);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(counterOf(cache.metricsRegistry(),
                        "trace_cache.stream_corpus_hits"), 1u);
    EXPECT_EQ(counterOf(cache.metricsRegistry(),
                        "trace_cache.stream_extractions"), 0u);
    EXPECT_EQ(cache.recordings(), 0u)
        << "warm stream load must not regenerate the workload";
    EXPECT_TRUE(*warm == *first);
}

TEST(StreamTier, WarmTraceLoadAdoptsStoredStream)
{
    const TempDir dir("adopt");
    const std::string workload = "go";
    const size_t ops = 20000;
    {
        TraceCache cache;
        cache.attachCorpus(std::make_shared<CorpusManager>(dir.path));
        cache.get(workload, ops);            // persists the trace
        cache.getStream(workload, ops);      // persists the stream
    }

    // A warm get() adopts the stored stream into the trace's lazy
    // BranchStream box, so sweep consumers skip extraction too.
    TraceCache cache;
    cache.attachCorpus(std::make_shared<CorpusManager>(dir.path));
    const SharedTrace trace = cache.get(workload, ops);
    EXPECT_EQ(counterOf(cache.corpus()->metricsRegistry(),
                        "stream_corpus.hits"), 1u);
    const BranchStream &adopted = trace.compact().branchStream();
    EXPECT_TRUE(adopted == BranchStream::extract(trace.compact()));
}

// ---------------------------------------------------------------
// CRC32C hardware/software differential
// ---------------------------------------------------------------

TEST(Crc32c, HardwareAndSoftwarePathsAgree)
{
    std::mt19937_64 rng(0xc5c5);
    std::vector<uint8_t> buf(4096);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng());

    for (size_t trial = 0; trial < 2000; ++trial) {
        const size_t offset = rng() % 16;           // every alignment
        const size_t len = rng() % (buf.size() - offset);
        const uint8_t *p = buf.data() + offset;

        const uint32_t soft = crc32cUpdateSoftware(0, p, len);
        EXPECT_EQ(crc32cUpdate(0, p, len), soft);

        // Incremental chunking must be split-point invariant, and the
        // two implementations must interop mid-stream.
        const size_t cut = len > 0 ? rng() % len : 0;
        EXPECT_EQ(crc32cUpdate(crc32cUpdate(0, p, cut), p + cut,
                               len - cut),
                  soft);
        EXPECT_EQ(crc32cUpdate(crc32cUpdateSoftware(0, p, cut), p + cut,
                               len - cut),
                  soft);
    }
}

TEST(Crc32c, KnownAnswer)
{
    // RFC 3720 test vector: CRC32C of 32 zero bytes.
    const uint8_t zeros[32] = {};
    EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
    EXPECT_EQ(crc32cUpdateSoftware(0, zeros, sizeof(zeros)),
              0x8A9136AAu);
}

// ---------------------------------------------------------------
// Corpus ls / gc for derived stream containers
// ---------------------------------------------------------------

TEST(StreamCorpus, ListReportsArtifactKinds)
{
    const TempDir dir("kinds");
    CorpusManager corpus(dir.path);
    const CorpusKey key{"compress", 1, 10000};
    const SharedTrace trace = recordWorkload("compress", 10000, 1);
    corpus.store(key, trace.compact(), trace.name());
    const auto source = makeWorkload("compress", 1);
    corpus.storeSegmentedFromSource(key, *source, trace.name(), 2500);
    corpus.storeStream(key, trace.compact().branchStream(),
                       trace.name());

    size_t plain = 0, segmented = 0, streams = 0;
    for (const CorpusEntry &e : corpus.list(true)) {
        EXPECT_TRUE(e.ok) << e.file << ": " << e.error;
        EXPECT_GT(e.fileBytes, 0u);
        switch (e.kind) {
          case CorpusArtifact::Plain:
            ++plain;
            break;
          case CorpusArtifact::Segmented:
            ++segmented;
            break;
          case CorpusArtifact::BranchStream:
            ++streams;
            EXPECT_EQ(e.file, CorpusManager::streamFileName(key));
            break;
        }
    }
    EXPECT_EQ(plain, 1u);
    EXPECT_EQ(segmented, 1u);
    EXPECT_EQ(streams, 1u);

    EXPECT_STREQ(corpusArtifactName(CorpusArtifact::Plain), "plain");
    EXPECT_STREQ(corpusArtifactName(CorpusArtifact::Segmented),
                 "segmented");
    EXPECT_STREQ(corpusArtifactName(CorpusArtifact::BranchStream),
                 "branch-stream");
}

TEST(StreamCorpus, GcCollectsOrphanedStreams)
{
    const TempDir dir("orphan");
    CorpusManager corpus(dir.path);
    const CorpusKey kept{"compress", 1, 10000};
    const CorpusKey orphan{"ijpeg", 1, 10000};
    for (const CorpusKey &key : {kept, orphan}) {
        const SharedTrace trace =
            recordWorkload(key.workload, key.ops, key.seed);
        corpus.store(key, trace.compact(), trace.name());
        corpus.storeStream(key, trace.compact().branchStream(),
                           trace.name());
    }

    // Both parents live: gc removes nothing.
    EXPECT_EQ(corpus.gc(), 0u);
    EXPECT_TRUE(fs::exists(corpus.streamPathFor(kept)));
    EXPECT_TRUE(fs::exists(corpus.streamPathFor(orphan)));

    // Drop one parent trace: its stream is now an orphan and must be
    // collected; the stream with a live parent must survive.
    ASSERT_TRUE(fs::remove(corpus.pathFor(orphan)));
    EXPECT_EQ(corpus.gc(), 1u);
    EXPECT_TRUE(fs::exists(corpus.streamPathFor(kept)));
    EXPECT_FALSE(fs::exists(corpus.streamPathFor(orphan)));
}

} // namespace
} // namespace tpred
