/**
 * @file
 * Persistent corpus tests: container round-trips, zero-copy mmap
 * equality, cache layering (a warm corpus means zero trace
 * generation), and the corruption suite — bit flips, truncation and
 * header skew must quarantine the file and regenerate bit-identical
 * results, never crash or silently serve damaged data.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <unistd.h>

#include "corpus/corpus.hh"
#include "corpus/mapped_file.hh"
#include "corpus/segmented_trace.hh"
#include "harness/paper_tables.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "test_util.hh"
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
                         ("tpred_corpus_" + tag + "_" +
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

CompactTrace
sampleTrace(size_t ops = 5000)
{
    auto workload = makeWorkload("perl", 7);
    return CompactTrace::encode(drainTrace(*workload, ops));
}

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.pc == b.pc && a.nextPc == b.nextPc &&
           a.memAddr == b.memAddr && a.selector == b.selector &&
           a.fallthrough == b.fallthrough && a.cls == b.cls &&
           a.branch == b.branch && a.taken == b.taken &&
           a.dstReg == b.dstReg && a.srcRegs == b.srcRegs;
}

bool
sameOps(const CompactTrace &a, const CompactTrace &b)
{
    const std::vector<MicroOp> da = a.decodeAll();
    const std::vector<MicroOp> db = b.decodeAll();
    if (da.size() != db.size())
        return false;
    for (size_t i = 0; i < da.size(); ++i)
        if (!sameOp(da[i], db[i]))
            return false;
    return true;
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

// ---------------------------------------------------------------
// Container codec
// ---------------------------------------------------------------

TEST(CompactContainer, RoundTripIsLossless)
{
    const CompactTrace trace = sampleTrace();
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, "perl");

    std::string name;
    const CompactTrace back =
        openCompactContainer(image, nullptr, name, "image");
    EXPECT_EQ(name, "perl");
    EXPECT_EQ(back.size(), trace.size());
    EXPECT_EQ(back.fastBranchScan(), trace.fastBranchScan());
    EXPECT_TRUE(sameOps(trace, back));
}

TEST(CompactContainer, SerializationIsDeterministic)
{
    const CompactTrace trace = sampleTrace();
    EXPECT_EQ(serializeCompactTrace(trace, "perl"),
              serializeCompactTrace(trace, "perl"));
}

TEST(CompactContainer, EmptyTraceRoundTrips)
{
    const CompactTrace trace = CompactTrace::encode({});
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, "");
    std::string name;
    const CompactTrace back =
        openCompactContainer(image, nullptr, name, "image");
    EXPECT_EQ(back.size(), 0u);
    EXPECT_TRUE(name.empty());
}

TEST(CompactContainer, PeekReportsCountsWithoutFullVerify)
{
    const CompactTrace trace = sampleTrace();
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, "perl");
    const ContainerInfo info = peekCompactContainer(image, "image");
    EXPECT_EQ(info.name, "perl");
    EXPECT_EQ(info.opCount, trace.size());
    EXPECT_EQ(info.branchCount, trace.branchPositions().size());
    EXPECT_EQ(info.version, kCompactVersion);
    EXPECT_EQ(info.fileBytes, image.size());
}

TEST(CompactContainer, ErrorsNameTheSource)
{
    const std::vector<uint8_t> junk(64, 0xAB);
    std::string name;
    try {
        openCompactContainer(junk, nullptr, name, "/some/file.tpct");
        FAIL() << "expected CompactFormatError";
    } catch (const CompactFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("/some/file.tpct"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------
// CorpusManager basics
// ---------------------------------------------------------------

TEST(Corpus, StoreThenLoadIsIdenticalAndZeroCopy)
{
    const TempDir dir("roundtrip");
    CorpusManager corpus(dir.path);
    const CompactTrace trace = sampleTrace();
    const CorpusKey key{"perl", 7, 5000};

    corpus.store(key, trace, "perl");
    std::string name;
    const auto loaded = corpus.load(key, &name);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(name, "perl");
    EXPECT_TRUE(sameOps(trace, *loaded));

    // Counters read straight off the metrics registry.
    const obs::MetricsSnapshot snap =
        corpus.metricsRegistry().snapshot();
    EXPECT_EQ(snap.counters.at("corpus.stores"), 1u);
    EXPECT_EQ(snap.counters.at("corpus.hits"), 1u);
    EXPECT_EQ(snap.counters.at("corpus.misses"), 0u);
    EXPECT_GT(snap.counters.at("corpus.bytes_stored"), 0u);
    EXPECT_EQ(snap.counters.at("corpus.bytes_loaded"),
              snap.counters.at("corpus.bytes_stored"));
}

TEST(Corpus, MissingEntryIsAMiss)
{
    const TempDir dir("miss");
    CorpusManager corpus(dir.path);
    EXPECT_EQ(corpus.load(CorpusKey{"perl", 1, 1000}), nullptr);
    EXPECT_EQ(counterOf(corpus.metricsRegistry(), "corpus.misses"),
              1u);
}

TEST(Corpus, KeysWithDashesInWorkloadNamesAreDistinct)
{
    const TempDir dir("dashes");
    CorpusManager corpus(dir.path);
    const CompactTrace trace = sampleTrace(500);
    corpus.store(CorpusKey{"cpp-virtual", 1, 500}, trace, "cpp-virtual");
    corpus.store(CorpusKey{"cpp-virtual", 2, 500}, trace, "cpp-virtual");

    const auto entries = corpus.list(true);
    ASSERT_EQ(entries.size(), 2u);
    for (const CorpusEntry &e : entries) {
        EXPECT_TRUE(e.ok) << e.error;
        EXPECT_EQ(e.key.workload, "cpp-virtual");
        EXPECT_EQ(e.key.ops, 500u);
    }
    EXPECT_EQ(entries[0].key.seed + entries[1].key.seed, 3u);
}

TEST(Corpus, ManifestIsRegeneratedFromHeaders)
{
    const TempDir dir("manifest");
    CorpusManager corpus(dir.path);
    corpus.store(CorpusKey{"perl", 7, 5000}, sampleTrace(), "perl");

    std::ifstream in(corpus.manifestPath());
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"tpred-corpus-manifest\""), std::string::npos);
    EXPECT_NE(text.find("\"workload\": \"perl\""), std::string::npos);
    EXPECT_NE(text.find("\"crc32c\": "), std::string::npos);
    EXPECT_NE(text.find(CorpusManager::kGeneratorVersion),
              std::string::npos);
}

TEST(Corpus, GcRemovesQuarantinedAndTempFiles)
{
    const TempDir dir("gc");
    CorpusManager corpus(dir.path);
    corpus.store(CorpusKey{"perl", 7, 5000}, sampleTrace(), "perl");

    std::ofstream(fs::path(dir.path) / "stale.tpct.quarantined")
        << "junk";
    std::ofstream(fs::path(dir.path) / "x.tpct.tmp123") << "junk";
    EXPECT_EQ(corpus.gc(), 2u);
    ASSERT_EQ(corpus.list(true).size(), 1u);
    EXPECT_TRUE(corpus.list(true)[0].ok);
}

// ---------------------------------------------------------------
// Cache layering: warm corpus => zero trace generation
// ---------------------------------------------------------------

TEST(Corpus, TraceCacheUsesCorpusSecondLevel)
{
    const TempDir dir("cache");
    const std::string workload = "xlisp";
    const size_t ops = 20000;

    // First process (simulated): cold corpus — the trace is
    // generated once and persisted.
    FrontendStats first_stats;
    {
        TraceCache cache;
        cache.attachCorpus(std::make_shared<CorpusManager>(dir.path));
        const SharedTrace trace = cache.get(workload, ops);
        first_stats = runAccuracy(trace, taglessGshare());
        EXPECT_EQ(cache.recordings(), 1u);
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.corpus_hits"), 0u);
        EXPECT_EQ(counterOf(cache.corpus()->metricsRegistry(),
                            "corpus.stores"), 1u);
    }

    // Second process (simulated): warm corpus — zero generation,
    // served entirely from disk, identical results.
    {
        TraceCache cache;
        cache.attachCorpus(std::make_shared<CorpusManager>(dir.path));
        const SharedTrace trace = cache.get(workload, ops);
        EXPECT_EQ(cache.recordings(), 0u) <<
            "warm corpus must not regenerate the trace";
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.corpus_hits"), 1u);
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.misses"), 1u);
        EXPECT_EQ(counterOf(cache.corpus()->metricsRegistry(),
                            "corpus.hits"), 1u);

        // Memo hit on re-request: no second corpus load either.
        cache.get(workload, ops);
        EXPECT_EQ(counterOf(cache.metricsRegistry(),
                            "trace_cache.hits"), 1u);
        EXPECT_EQ(counterOf(cache.corpus()->metricsRegistry(),
                            "corpus.hits"), 1u);

        EXPECT_TRUE(sameStats(first_stats,
                              runAccuracy(trace, taglessGshare())));
    }
}

TEST(Corpus, CacheWithoutCorpusStillWorks)
{
    TraceCache cache;
    const SharedTrace trace = cache.get("compress", 5000);
    EXPECT_EQ(trace.size(), 5000u);
    EXPECT_EQ(cache.recordings(), 1u);
    EXPECT_EQ(counterOf(cache.metricsRegistry(),
                        "trace_cache.misses"), 1u);
}

// ---------------------------------------------------------------
// Corruption suite, over every artifact kind
// ---------------------------------------------------------------

/** Ops per segment of the segmented entries below. */
constexpr size_t kSegmentOps = 3000;

/** Accuracy stats of a segmented entry via streaming replay. */
FrontendStats
segmentedStats(const std::shared_ptr<const SegmentedTrace> &trace)
{
    PredictorStack stack = buildStack(taglessGshare());
    FrontendPredictor frontend(FrontendConfig{}, stack.predictor.get(),
                               stack.tracker.get());
    SegmentedReplay replay(trace);
    MicroOp op;
    while (replay.next(op))
        frontend.onInstruction(op);
    return frontend.stats();
}

/** Every FrontendStats counter, comparable with ==. */
std::string
statsDigest(const FrontendStats &s)
{
    std::string out = std::to_string(s.instructions);
    for (const RatioStat *r : {&s.allBranches, &s.condDirection,
                               &s.indirectJumps, &s.returns, &s.btbHits})
        out += " " + std::to_string(r->hits()) + "/" +
               std::to_string(r->total());
    return out;
}

/** One load of a corpus entry through its production path. */
struct KindLoad
{
    std::string result;    ///< what the consumer saw
    uint64_t regenerated;  ///< recordings + extractions it paid
    uint64_t quarantined;  ///< the kind's quarantine counter
};

/** An artifact kind as the corruption suite drives it. */
struct CorruptionKind
{
    const char *name;
    /// Corpus basename of the entry for @p key.
    std::string (*file)(const CorpusKey &key);
    /// Loads the entry, regenerating and storing it when absent or
    /// damaged.
    KindLoad (*load)(const std::string &dir, const CorpusKey &key);
};

void
PrintTo(const CorruptionKind &kind, std::ostream *os)
{
    *os << kind.name;
}

KindLoad
loadPlainEntry(const std::string &dir, const CorpusKey &key)
{
    TraceCache cache;
    cache.attachCorpus(std::make_shared<CorpusManager>(dir));
    const SharedTrace trace = cache.get(key.workload, key.ops);
    return {statsDigest(runAccuracy(trace, taglessGshare())),
            cache.recordings(),
            counterOf(cache.corpus()->metricsRegistry(),
                      "corpus.quarantined")};
}

KindLoad
loadSegmentedEntry(const std::string &dir, const CorpusKey &key)
{
    CorpusManager corpus(dir);
    uint64_t regenerated = 0;
    auto trace = corpus.loadSegmented(key, kSegmentOps);
    if (!trace) {
        auto source = makeWorkload(key.workload, key.seed);
        corpus.storeSegmentedFromSource(key, *source, key.workload,
                                        kSegmentOps);
        trace = corpus.loadSegmented(key, kSegmentOps);
        ++regenerated;
    }
    return {trace ? statsDigest(segmentedStats(trace)) : "unloadable",
            regenerated,
            counterOf(corpus.metricsRegistry(), "corpus.quarantined")};
}

KindLoad
loadStreamEntry(const std::string &dir, const CorpusKey &key)
{
    TraceCache cache;
    cache.attachCorpus(std::make_shared<CorpusManager>(dir));
    const auto stream = cache.getStream(key.workload, key.ops);
    const std::vector<uint8_t> image = serializeBranchStream(*stream, "");
    return {std::string(image.begin(), image.end()),
            cache.recordings() +
                counterOf(cache.metricsRegistry(),
                          "trace_cache.stream_extractions"),
            counterOf(cache.corpus()->metricsRegistry(),
                      "stream_corpus.quarantined")};
}

std::string
segmentedFileName(const CorpusKey &key)
{
    return CorpusManager::segmentedFileName(key, kSegmentOps);
}

const CorruptionKind kPlainKind = {"plain", CorpusManager::fileName,
                                   loadPlainEntry};
const CorruptionKind kSegmentedKind = {"segmented", segmentedFileName,
                                       loadSegmentedEntry};
const CorruptionKind kStreamKind = {
    "stream", CorpusManager::streamFileName, loadStreamEntry};

/**
 * Builds one entry of @p kind, damages its file via @p mutate, and
 * checks that the next load quarantines it — never trusts it — and
 * regenerates exactly that entry, bit-identically.
 */
template <typename Mutate>
void
corruptionCase(const CorruptionKind &kind, Mutate &&mutate)
{
    const TempDir dir(std::string("corrupt_") + kind.name);
    const CorpusKey key{"m88ksim", 1, 20000};
    const KindLoad clean = kind.load(dir.path, key);
    ASSERT_GT(clean.regenerated, 0u);

    const fs::path path = fs::path(dir.path) / kind.file(key);
    ASSERT_TRUE(fs::exists(path));
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
        in.close();
        mutate(bytes);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    const KindLoad damaged = kind.load(dir.path, key);
    EXPECT_EQ(damaged.quarantined, 1u);
    EXPECT_TRUE(fs::exists(path.string() + ".quarantined"))
        << "damaged file must be moved aside";
    EXPECT_EQ(damaged.regenerated, 1u)
        << "the damaged entry, and only it, must be regenerated";
    EXPECT_EQ(damaged.result, clean.result);

    // The entry now back under the original name is the fresh store:
    // it must fully verify, and the next load is warm.
    bool verified = false;
    for (const CorpusEntry &e : CorpusManager(dir.path).list(true))
        if (e.file == kind.file(key))
            verified = e.ok;
    EXPECT_TRUE(verified);
    const KindLoad warm = kind.load(dir.path, key);
    EXPECT_EQ(warm.regenerated, 0u);
    EXPECT_EQ(warm.quarantined, 0u);
    EXPECT_EQ(warm.result, clean.result);
}

class ContainerCorruption : public ::testing::TestWithParam<CorruptionKind>
{
};

TEST_P(ContainerCorruption, PayloadBitFlipIsQuarantined)
{
    corruptionCase(GetParam(), [](std::vector<char> &bytes) {
        ASSERT_GT(bytes.size(), 300u);
        bytes[bytes.size() / 2] ^= 0x10;  // flip one payload bit
    });
}

TEST_P(ContainerCorruption, TruncationIsQuarantined)
{
    corruptionCase(GetParam(), [](std::vector<char> &bytes) {
        ASSERT_GT(bytes.size(), 100u);
        bytes.resize(bytes.size() / 2);
    });
}

TEST_P(ContainerCorruption, HeaderVersionSkewIsQuarantined)
{
    corruptionCase(GetParam(), [](std::vector<char> &bytes) {
        ASSERT_GT(bytes.size(), 8u);
        bytes[4] = 99;  // FileHeader.version (header CRC now stale
                        // too; either check may fire — both reject)
    });
}

TEST_P(ContainerCorruption, ZeroLengthFileIsQuarantined)
{
    corruptionCase(GetParam(),
                   [](std::vector<char> &bytes) { bytes.clear(); });
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ContainerCorruption,
                         ::testing::Values(kPlainKind, kSegmentedKind,
                                           kStreamKind),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

// ---------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------

TEST(MappedFile, MissingFileErrorNamesThePath)
{
    try {
        MappedFile::open("/nonexistent/dir/corpus.tpct");
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent/dir"),
                  std::string::npos);
    }
}

TEST(MappedFile, MapsWrittenBytesBack)
{
    const TempDir dir("map");
    const fs::path path = fs::path(dir.path) / "blob";
    const std::string payload = "forty-two bytes of corpus payload";
    std::ofstream(path, std::ios::binary) << payload;

    const auto mapping = MappedFile::open(path.string());
    ASSERT_EQ(mapping->size(), payload.size());
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(
                              mapping->bytes().data()),
                          mapping->size()),
              payload);
}

TEST(MappedFile, RangeViewsReturnExactWindows)
{
    const TempDir dir("range");
    const fs::path path = fs::path(dir.path) / "blob";
    std::string payload(100000, '\0');
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 31);
    std::ofstream(path, std::ios::binary) << payload;

    // Unaligned offsets (straddling page boundaries) must still
    // yield exactly the requested bytes.
    for (const uint64_t offset : {0u, 1u, 4095u, 4096u, 65537u}) {
        const size_t len = 1000;
        const auto view =
            MappedFile::openRange(path.string(), offset, len);
        ASSERT_EQ(view->size(), len) << "offset " << offset;
        EXPECT_EQ(std::string(reinterpret_cast<const char *>(
                                  view->bytes().data()),
                              len),
                  payload.substr(offset, len))
            << "offset " << offset;
    }
    EXPECT_THROW(
        MappedFile::openRange(path.string(), payload.size() - 10, 11),
        std::runtime_error);
}

// ---------------------------------------------------------------
// Segmented containers
// ---------------------------------------------------------------

TEST(SegmentedCorpus, StreamingStoreMatchesWholeTraceStore)
{
    const TempDir dir("seg_store");
    CorpusManager corpus(dir.path);
    const std::string workload = "ijpeg";
    const size_t ops = 20000, seg_ops = 3000;
    const CorpusKey key{workload, 1, ops};

    // Same trace two ways: the plain container of the resident
    // recording, and the segmented container streamed from the
    // generator.
    const SharedTrace resident = recordWorkload(workload, ops, 1);
    corpus.store(key, resident.compact(), workload);
    const auto plain = corpus.load(key);
    ASSERT_NE(plain, nullptr);

    auto source = makeWorkload(workload, 1);
    corpus.storeSegmentedFromSource(key, *source, workload, seg_ops);
    const auto segmented = corpus.loadSegmented(key, seg_ops);
    ASSERT_NE(segmented, nullptr);
    EXPECT_EQ(segmented->totalOps(), ops);
    EXPECT_EQ(segmented->segmentCount(), 7u);  // ceil(20000/3000)
    EXPECT_EQ(segmented->totalBranches(),
              plain->branchPositions().size());

    // Decoding every segment reproduces the plain entry's ops.
    std::vector<MicroOp> decoded;
    for (size_t i = 0; i < segmented->segmentCount(); ++i) {
        const auto segment = segmented->openSegment(i);
        const std::vector<MicroOp> part = segment->decodeAll();
        decoded.insert(decoded.end(), part.begin(), part.end());
    }
    const std::vector<MicroOp> expected = plain->decodeAll();
    ASSERT_EQ(decoded.size(), expected.size());
    for (size_t i = 0; i < decoded.size(); ++i)
        ASSERT_TRUE(sameOp(decoded[i], expected[i])) << "op " << i;

    // And streaming replay of the segments gives the stats of the
    // resident trace.
    EXPECT_TRUE(sameStats(segmentedStats(segmented),
                          runAccuracy(resident, taglessGshare())));
}

TEST(SegmentedCorpus, PlainV2ContainersAreUnaffected)
{
    const TempDir dir("seg_plain");
    CorpusManager corpus(dir.path);
    const CompactTrace trace = sampleTrace();
    const CorpusKey key{"perl", 7, 5000};
    corpus.store(key, trace, "perl");

    // The plain (unsegmented) v2 container loads exactly as before.
    const auto loaded = corpus.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(sameOps(trace, *loaded));

    // And the two layouts reject each other with telling errors.
    EXPECT_THROW(SegmentedTrace::open(corpus.pathFor(key)),
                 CompactFormatError);
    auto source = makeWorkload("perl", 8);
    corpus.storeSegmentedFromSource(CorpusKey{"perl", 8, 5000}, *source,
                                    "perl", 1000);
    const auto mapping = MappedFile::open(
        corpus.segmentedPathFor(CorpusKey{"perl", 8, 5000}, 1000));
    std::string name;
    EXPECT_THROW(openCompactContainer(mapping->bytes(), nullptr, name,
                                      "segmented"),
                 CompactFormatError);
}

TEST(SegmentedCorruption, SegmentPayloadBitFlipIsQuarantined)
{
    corruptionCase(kSegmentedKind, [](std::vector<char> &bytes) {
        // Mid-file lands inside a segment payload: only that
        // segment's CRC breaks, which verifyAllSegments must catch.
        ASSERT_GT(bytes.size(), 1000u);
        bytes[bytes.size() / 2] ^= 0x04;
    });
}

TEST(SegmentedCorruption, MidSegmentTruncationIsQuarantined)
{
    corruptionCase(kSegmentedKind, [](std::vector<char> &bytes) {
        ASSERT_GT(bytes.size(), 1000u);
        bytes.resize(bytes.size() * 3 / 5);  // cut inside a segment
    });
}

TEST(SegmentedCorruption, IndexRecordCorruptionIsQuarantined)
{
    corruptionCase(kSegmentedKind, [](std::vector<char> &bytes) {
        // The index sits between the last segment and the 24-byte
        // footer; flip a byte inside the last record.
        ASSERT_GT(bytes.size(), 24u + 56u);
        bytes[bytes.size() - 24 - 28] ^= 0xFF;
    });
}

TEST(SegmentedCorruption, FooterCorruptionIsQuarantined)
{
    corruptionCase(kSegmentedKind, [](std::vector<char> &bytes) {
        ASSERT_GT(bytes.size(), 24u);
        bytes[bytes.size() - 1] ^= 0x01;
    });
}

TEST(SegmentedCorpus, GcKeepsHealthySegmentedEntries)
{
    const TempDir dir("seg_gc");
    CorpusManager corpus(dir.path);
    auto source = makeWorkload("go", 1);
    corpus.storeSegmentedFromSource(CorpusKey{"go", 1, 9000}, *source,
                                    "go", 2000);

    std::ofstream(fs::path(dir.path) / "stale.tpcs.quarantined")
        << "junk";
    EXPECT_EQ(corpus.gc(), 1u);
    const auto entries = corpus.list(true);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].ok) << entries[0].error;
    EXPECT_EQ(entries[0].segmentCount, 5u);  // ceil(9000/2000)
    EXPECT_EQ(entries[0].opCount, 9000u);
}

// ---------------------------------------------------------------
// Golden containers: bytes written by an earlier build
// (tests/golden/README.md says how they were made)
// ---------------------------------------------------------------

const CorpusKey kGoldenKey{"gcc", 1, 1536};
constexpr size_t kGoldenSegmentOps = 512;

std::string
goldenPath(const std::string &file)
{
    return (fs::path(TPRED_GOLDEN_DIR) / file).string();
}

std::vector<uint8_t>
readGolden(const std::string &file)
{
    std::ifstream in(goldenPath(file), std::ios::binary);
    EXPECT_TRUE(in.good()) << goldenPath(file);
    return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
}

TEST(GoldenContainers, PlainMatchesARecordingAndReserializes)
{
    const std::string file = CorpusManager::fileName(kGoldenKey);
    const std::vector<uint8_t> image = readGolden(file);
    std::string name;
    const CompactTrace golden =
        openCompactContainer(image, nullptr, name, file);

    const SharedTrace fresh = recordWorkload(
        kGoldenKey.workload, kGoldenKey.ops, kGoldenKey.seed);
    EXPECT_EQ(name, fresh.name());
    EXPECT_TRUE(sameOps(golden, fresh.compact()));
    EXPECT_EQ(serializeCompactTrace(golden, name), image);
    EXPECT_EQ(serializeCompactTrace(fresh.compact(), name), image);
}

TEST(GoldenContainers, SegmentedMatchesARecordingAndReserializes)
{
    const std::string file =
        CorpusManager::segmentedFileName(kGoldenKey, kGoldenSegmentOps);
    const auto golden = SegmentedTrace::open(goldenPath(file));
    ASSERT_EQ(golden->segmentCount(), 3u);
    golden->verifyAllSegments();

    // Rewrite the golden segments through the writer: same bytes.
    const TempDir dir("golden_seg");
    const std::string copy = (fs::path(dir.path) / file).string();
    SegmentedFileWriter writer(copy, golden->name());
    std::vector<MicroOp> decoded;
    for (size_t i = 0; i < golden->segmentCount(); ++i) {
        const auto segment = golden->openSegment(i);
        writer.addSegment(*segment);
        const std::vector<MicroOp> part = segment->decodeAll();
        decoded.insert(decoded.end(), part.begin(), part.end());
    }
    writer.finish();

    const SharedTrace fresh = recordWorkload(
        kGoldenKey.workload, kGoldenKey.ops, kGoldenKey.seed);
    EXPECT_EQ(golden->name(), fresh.name());
    EXPECT_TRUE(sameOps(CompactTrace::encode(decoded), fresh.compact()));
    std::ifstream in(copy, std::ios::binary);
    const std::vector<uint8_t> rewritten(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(rewritten, readGolden(file));
}

TEST(GoldenContainers, StreamMatchesARecordingAndReserializes)
{
    const std::string file = CorpusManager::streamFileName(kGoldenKey);
    const std::vector<uint8_t> image = readGolden(file);
    std::string name;
    const BranchStream golden =
        openBranchStreamContainer(image, nullptr, name, file);

    const SharedTrace fresh = recordWorkload(
        kGoldenKey.workload, kGoldenKey.ops, kGoldenKey.seed);
    EXPECT_EQ(name, fresh.name());
    EXPECT_TRUE(golden == BranchStream::extract(fresh.compact()));
    EXPECT_EQ(serializeBranchStream(golden, name), image);
}

} // namespace
} // namespace tpred
