/**
 * @file
 * Structured container fuzzer and the open-time checks it holds in
 * place.
 *
 * Deterministic, seed-driven mutations of TPCC, TPBS and TPCS images
 * that work on fields, not bits: header (version, flags, name length,
 * section or segment count, op count), every section record (id,
 * element size, offset, length), every segment record (offset,
 * length, op and branch counts, first op and branch), the footer
 * (magic, length, reserved word) and the TPCC payload columns the
 * decoder indexes by (branch positions, register bytes, flags).  Each
 * field takes boundary values — 0, 1, old +/- 1, old +/- 8, 2^32 - 1,
 * 2^63, 2^64 - 8 and the image size — and after each mutation every
 * CRC is recomputed, so the damage reaches the structural checks
 * instead of stopping at a checksum.
 *
 * The oracle: an envelope mutation must throw CompactFormatError or
 * load columns equal to the original's; a payload mutation must throw
 * or load and fully decode (forEachOp, forEachBranch).  Under the
 * asan preset (labels asan;corpus) an out-of-bounds read or undefined
 * behaviour aborts the test, so "decodes" means "decodes cleanly".
 * Header fields the columns do not pin — the stream name, the TPBS
 * source op count above its last branch, the TPCC fast-scan flag on a
 * trace that is equally correct either way — may change without a
 * rejection; the columns may not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/crc32c.hh"
#include "corpus/segmented_trace.hh"
#include "test_util.hh"
#include "trace/compact_io.hh"
#include "trace/container.hh"
#include "trace/segmented_io.hh"
#include "trace/stream_io.hh"
#include "trace/trace_source.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;

namespace tpred
{
namespace
{

using Image = std::vector<uint8_t>;

template <typename T>
T
get(std::span<const uint8_t> img, size_t at)
{
    T value{};
    std::memcpy(&value, img.data() + at, sizeof(T));
    return value;
}

template <typename T>
void
put(std::span<uint8_t> img, size_t at, const T &value)
{
    std::memcpy(img.data() + at, &value, sizeof(T));
}

// ---------------------------------------------------------------
// Resealing: every CRC recomputed as far as the fields still reach
// ---------------------------------------------------------------

/** TPCC/TPBS: section CRCs, header CRC, whole-file CRC. */
void
resealSections(std::span<uint8_t> img)
{
    if (img.size() < sizeof(FileHeader) + sizeof(Footer))
        return;
    const FileHeader h = get<FileHeader>(img, 0);
    const uint64_t footer_at = img.size() - sizeof(Footer);
    const uint64_t table = align8(sizeof(FileHeader) + h.nameLen);
    for (uint64_t i = 0; i < h.sectionCount; ++i) {
        const uint64_t at = table + i * sizeof(SectionRecord);
        if (at + sizeof(SectionRecord) > footer_at)
            break;
        SectionRecord rec = get<SectionRecord>(img, at);
        if (rec.offset <= footer_at &&
            rec.byteLen <= footer_at - rec.offset) {
            rec.crc = crc32c(img.data() + rec.offset, rec.byteLen);
            put(img, at, rec);
        }
    }
    put(img, offsetof(FileHeader, headerCrc),
        crc32c(img.data(), offsetof(FileHeader, headerCrc)));
    put(img, footer_at + offsetof(Footer, totalCrc),
        crc32c(img.data(), footer_at));
}

/** TPCS: each segment image, its index CRC, header, metadata CRC. */
void
resealSegmented(std::span<uint8_t> img)
{
    if (img.size() < sizeof(FileHeader) + sizeof(Footer))
        return;
    const FileHeader h = get<FileHeader>(img, 0);
    put(img, offsetof(FileHeader, headerCrc),
        crc32c(img.data(), offsetof(FileHeader, headerCrc)));
    const uint64_t tail =
        sizeof(Footer) + uint64_t{h.sectionCount} * sizeof(SegmentRecord);
    if (tail > img.size())
        return;
    const uint64_t index_at = img.size() - tail;
    for (uint64_t i = 0; i < h.sectionCount; ++i) {
        const uint64_t at = index_at + i * sizeof(SegmentRecord);
        SegmentRecord rec = get<SegmentRecord>(img, at);
        if (rec.offset <= index_at &&
            rec.byteLen <= index_at - rec.offset) {
            resealSections(img.subspan(rec.offset, rec.byteLen));
            rec.crc = crc32c(img.data() + rec.offset, rec.byteLen);
            put(img, at, rec);
        }
    }
    const uint64_t head =
        std::min<uint64_t>(sizeof(FileHeader) + h.nameLen, index_at);
    const uint32_t crc =
        crc32cUpdate(crc32c(img.data(), head), img.data() + index_at,
                     tail - sizeof(Footer));
    put(img, img.size() - sizeof(Footer) + offsetof(Footer, totalCrc),
        crc);
}

// ---------------------------------------------------------------
// Fields and values
// ---------------------------------------------------------------

/** One mutable field of an image. */
struct Field
{
    std::string what;
    size_t at;
    size_t width;   ///< bytes: 1, 4 or 8
    bool payload;   ///< decode oracle (else: equal-columns oracle)
};

uint64_t
readField(std::span<const uint8_t> img, const Field &f)
{
    uint64_t value = 0;
    std::memcpy(&value, img.data() + f.at, f.width);
    return value;
}

void
writeField(std::span<uint8_t> img, const Field &f, uint64_t value)
{
    std::memcpy(img.data() + f.at, &value, f.width);
}

/** The boundary values of a @p width-byte field holding @p old. */
std::vector<uint64_t>
boundaryValues(uint64_t old, size_t width, uint64_t image_size)
{
    const uint64_t mask =
        width == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
    std::vector<uint64_t> out;
    for (uint64_t v : {uint64_t{0}, uint64_t{1}, old + 1, old - 1,
                       old + 8, old - 8, uint64_t{0xFFFFFFFF},
                       uint64_t{1} << 63, ~uint64_t{0} - 7, image_size}) {
        v &= mask;
        if (v != (old & mask) &&
            std::find(out.begin(), out.end(), v) == out.end())
            out.push_back(v);
    }
    return out;
}

/** Header and footer fields of the envelope at @p base. */
void
addHeaderAndFooter(std::span<const uint8_t> img, size_t base,
                   std::vector<Field> &out)
{
    auto header = [&](const char *name, size_t at, size_t width) {
        out.push_back({std::string("header.") + name, base + at, width,
                       false});
    };
    header("version", offsetof(FileHeader, version), 4);
    header("opCount", offsetof(FileHeader, opCount), 8);
    header("flags", offsetof(FileHeader, flags), 4);
    header("nameLen", offsetof(FileHeader, nameLen), 4);
    header("sectionCount", offsetof(FileHeader, sectionCount), 4);
    const size_t footer = base + img.size() - sizeof(Footer);
    out.push_back({"footer.magic", footer + offsetof(Footer, magic), 4,
                   false});
    out.push_back({"footer.fileLen", footer + offsetof(Footer, fileLen),
                   8, false});
    out.push_back({"footer.reserved",
                   footer + offsetof(Footer, reserved), 8, false});
}

/** The section records of the TPCC/TPBS image at @p base. */
void
addSectionRecords(std::span<const uint8_t> img, size_t base,
                  std::vector<Field> &out)
{
    const FileHeader h = get<FileHeader>(img, 0);
    const size_t table = align8(sizeof(FileHeader) + h.nameLen);
    for (size_t i = 0; i < h.sectionCount; ++i) {
        const size_t at = base + table + i * sizeof(SectionRecord);
        const std::string rec = "section[" + std::to_string(i) + "].";
        out.push_back({rec + "id", at + offsetof(SectionRecord, id), 4,
                       false});
        out.push_back({rec + "elemSize",
                       at + offsetof(SectionRecord, elemSize), 4, false});
        out.push_back({rec + "offset",
                       at + offsetof(SectionRecord, offset), 8, false});
        out.push_back({rec + "byteLen",
                       at + offsetof(SectionRecord, byteLen), 8, false});
    }
}

/**
 * The first, last and @p sampled seeded-random elements of section
 * @p index of the image at @p base, as payload fields.
 */
void
addColumn(std::span<const uint8_t> img, size_t base, size_t index,
          const char *name, std::mt19937_64 &rng, size_t sampled,
          std::vector<Field> &out)
{
    const FileHeader h = get<FileHeader>(img, 0);
    const size_t table = align8(sizeof(FileHeader) + h.nameLen);
    const SectionRecord rec =
        get<SectionRecord>(img, table + index * sizeof(SectionRecord));
    const size_t n = rec.byteLen / rec.elemSize;
    if (n == 0)
        return;
    std::vector<size_t> picks = {0, n - 1};
    for (size_t i = 0; i < sampled; ++i)
        picks.push_back(rng() % n);
    for (const size_t e : picks)
        out.push_back({std::string(name) + "[" + std::to_string(e) + "]",
                       base + rec.offset + e * rec.elemSize,
                       rec.elemSize, true});
}

/** The TPCC payload columns the decoder indexes by. */
void
addTraceColumns(std::span<const uint8_t> img, size_t base,
                std::mt19937_64 &rng, std::vector<Field> &out)
{
    addColumn(img, base, 0, "flags", rng, 6, out);
    addColumn(img, base, 1, "regBytes", rng, 6, out);
    addColumn(img, base, 12, "branchPos", rng, 6, out);
}

// ---------------------------------------------------------------
// Loading and the oracle
// ---------------------------------------------------------------

template <typename T>
void
appendColumn(std::string &out, std::span<const T> column)
{
    out += std::to_string(column.size()) + ":";
    out.append(reinterpret_cast<const char *>(column.data()),
               column.size_bytes());
}

std::string
columnsDigest(const CompactColumns &c)
{
    std::string out;
    appendColumn(out, c.flags);
    appendColumn(out, c.regBytes);
    appendColumn(out, c.regEscapes);
    appendColumn(out, c.targetDeltas);
    appendColumn(out, c.discontPos);
    appendColumn(out, c.discontPc);
    appendColumn(out, c.memPos);
    appendColumn(out, c.memDeltas);
    appendColumn(out, c.selPos);
    appendColumn(out, c.selVals);
    appendColumn(out, c.fallPos);
    appendColumn(out, c.fallVals);
    appendColumn(out, c.branchPos);
    return out;
}

/** Where decodes leave their sums, so none is optimized away. */
volatile uint64_t decodeSink = 0;

/** Decodes every op both ways; the sum keeps the work observable. */
uint64_t
decodeFully(const CompactTrace &trace)
{
    uint64_t sum = 0;
    auto fold = [&](const MicroOp &op) {
        sum += op.pc ^ op.nextPc ^ op.memAddr ^ op.selector ^
               op.fallthrough ^ static_cast<uint64_t>(op.dstReg) ^
               static_cast<uint64_t>(op.srcRegs[0]) ^
               static_cast<uint64_t>(op.srcRegs[1]) ^
               static_cast<uint64_t>(op.branch);
    };
    trace.forEachOp(fold);
    trace.forEachBranch([&](const MicroOp &op, size_t pos) {
        fold(op);
        sum += pos;
    });
    return sum;
}

std::string
loadCompact(std::span<const uint8_t> img)
{
    auto bytes = std::make_shared<const Image>(img.begin(), img.end());
    std::string name;
    const CompactTrace trace =
        openCompactContainer(*bytes, bytes, name, "fuzz");
    decodeSink = decodeFully(trace);
    return columnsDigest(trace.columns());
}

std::string
loadStream(std::span<const uint8_t> img)
{
    auto bytes = std::make_shared<const Image>(img.begin(), img.end());
    std::string name;
    const BranchStream stream =
        openBranchStreamContainer(*bytes, bytes, name, "fuzz");
    std::string out;
    appendColumn(out, stream.pos);
    appendColumn(out, stream.pc);
    appendColumn(out, stream.target);
    appendColumn(out, stream.fallthrough);
    appendColumn(out, stream.kind);
    appendColumn(out, stream.taken);
    return out;
}

/** A scratch file for the TPCS cases (SegmentedTrace opens paths). */
struct ScratchFile
{
    ScratchFile()
        : path((fs::temp_directory_path() /
                ("tpred_fuzz_" + std::to_string(::getpid()) + ".tpcs"))
                   .string())
    {
    }
    ~ScratchFile() { fs::remove(path); }
    std::string path;
};

std::string
loadSegmented(std::span<const uint8_t> img, const std::string &path)
{
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(img.data()),
                  static_cast<std::streamsize>(img.size()));
    }
    const auto trace = SegmentedTrace::open(path);
    trace->verifyAllSegments();
    std::string out;
    for (size_t i = 0; i < trace->segmentCount(); ++i) {
        const auto segment = trace->openSegment(i);
        decodeSink = decodeFully(*segment);
        out += columnsDigest(segment->columns());
    }
    return out;
}

/** Outcome counts, so a vacuous run (all rejected) is visible. */
struct Tally
{
    size_t rejected = 0;
    size_t loaded = 0;
};

/**
 * Applies every boundary value of every field of @p fields to
 * @p original, reseals, loads, and checks the oracle.
 */
Tally
fuzz(const Image &original, const std::vector<Field> &fields,
     void (*reseal)(std::span<uint8_t>),
     const std::function<std::string(std::span<const uint8_t>)> &load)
{
    // Resealing an intact image must be the identity, or every
    // mutation below would die at a checksum instead.
    Image resealed = original;
    reseal(resealed);
    EXPECT_EQ(resealed, original);

    const std::string expected = load(original);
    Tally tally;
    for (const Field &field : fields) {
        const uint64_t old = readField(original, field);
        for (const uint64_t value :
             boundaryValues(old, field.width, original.size())) {
            Image mutated = original;
            writeField(mutated, field, value);
            reseal(mutated);
            try {
                const std::string got = load(mutated);
                ++tally.loaded;
                if (!field.payload) {
                    EXPECT_TRUE(got == expected)
                        << field.what << " = " << value
                        << " loaded columns unlike the original's";
                }
            } catch (const CompactFormatError &) {
                ++tally.rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << field.what << " = " << value
                              << " threw a non-format error: "
                              << e.what();
            }
        }
    }
    return tally;
}

// ---------------------------------------------------------------
// Source images
// ---------------------------------------------------------------

constexpr size_t kOps = 1536;

/** A recorded workload: coherent, so forEachBranch fast-scans. */
CompactTrace
workloadTrace()
{
    auto workload = makeWorkload("gcc", 1);
    return CompactTrace::encode(drainTrace(*workload, kOps));
}

/** Every sparse column populated, fast scan off. */
CompactTrace
hostileTrace()
{
    std::vector<MicroOp> ops = test::randomTrace(7, kOps);
    for (size_t i = 0; i < ops.size(); ++i) {
        MicroOp &op = ops[i];
        if (i % 13 == 0)
            op.dstReg = static_cast<RegIndex>(300 + i % 500);
        if (i % 17 == 0)
            op.fallthrough = op.pc + 12;
        if (i % 19 == 0 && op.branch == BranchKind::None)
            op.nextPc = op.pc + 64;
        if (i % 23 == 0)
            op.selector = i;
    }
    return CompactTrace::encode(ops);
}

/** A TPCS image of @p trace in segments of kOps / 3 ops. */
Image
segmentedImage(const CompactTrace &trace, const std::string &path)
{
    const std::vector<MicroOp> ops = trace.decodeAll();
    {
        SegmentedFileWriter writer(path, "fuzz");
        for (size_t at = 0; at < ops.size(); at += kOps / 3)
            writer.addSegment(CompactTrace::encode(std::vector<MicroOp>(
                ops.begin() + at,
                ops.begin() + std::min(ops.size(), at + kOps / 3))));
        writer.finish();
    }
    std::ifstream in(path, std::ios::binary);
    return Image((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
}

void
expectBothOutcomes(const Tally &tally)
{
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.loaded, 0u);
}

TEST(ContainerFuzz, CompactTraceImages)
{
    std::mt19937_64 rng(0x7c0c);
    for (const CompactTrace &trace : {workloadTrace(), hostileTrace()}) {
        const Image image = serializeCompactTrace(trace, "fuzz");
        std::vector<Field> envelope;
        addHeaderAndFooter(image, 0, envelope);
        addSectionRecords(image, 0, envelope);
        std::vector<Field> payload;
        addTraceColumns(image, 0, rng, payload);
        expectBothOutcomes(
            fuzz(image, envelope, resealSections, loadCompact));
        expectBothOutcomes(
            fuzz(image, payload, resealSections, loadCompact));
    }
}

TEST(ContainerFuzz, BranchStreamImages)
{
    std::mt19937_64 rng(0x7b5);
    for (const CompactTrace &trace : {workloadTrace(), hostileTrace()}) {
        const Image image =
            serializeBranchStream(BranchStream::extract(trace), "fuzz");
        std::vector<Field> envelope;
        addHeaderAndFooter(image, 0, envelope);
        addSectionRecords(image, 0, envelope);
        std::vector<Field> payload;
        addColumn(image, 0, 0, "pos", rng, 6, payload);
        expectBothOutcomes(
            fuzz(image, envelope, resealSections, loadStream));
        expectBothOutcomes(
            fuzz(image, payload, resealSections, loadStream));
    }
}

TEST(ContainerFuzz, SegmentedTraceImages)
{
    const ScratchFile scratch;
    auto load = [&](std::span<const uint8_t> img) {
        return loadSegmented(img, scratch.path);
    };
    std::mt19937_64 rng(0x7c5);
    for (const CompactTrace &trace : {workloadTrace(), hostileTrace()}) {
        const Image image = segmentedImage(trace, scratch.path);
        std::vector<Field> envelope;
        addHeaderAndFooter(image, 0, envelope);
        std::vector<Field> payload;
        const FileHeader h = get<FileHeader>(image, 0);
        const size_t index_at = image.size() - sizeof(Footer) -
                                h.sectionCount * sizeof(SegmentRecord);
        for (size_t i = 0; i < h.sectionCount; ++i) {
            const size_t at = index_at + i * sizeof(SegmentRecord);
            const std::string rec = "segment[" + std::to_string(i) + "].";
            for (const auto &[name, offset] :
                 {std::pair{"offset", offsetof(SegmentRecord, offset)},
                  std::pair{"byteLen", offsetof(SegmentRecord, byteLen)},
                  std::pair{"opCount", offsetof(SegmentRecord, opCount)},
                  std::pair{"branchCount",
                            offsetof(SegmentRecord, branchCount)},
                  std::pair{"firstOp", offsetof(SegmentRecord, firstOp)},
                  std::pair{"firstBranch",
                            offsetof(SegmentRecord, firstBranch)}})
                envelope.push_back({rec + name, at + offset, 8, false});
            const SegmentRecord seg = get<SegmentRecord>(image, at);
            addTraceColumns(std::span<const uint8_t>(image).subspan(
                                seg.offset, seg.byteLen),
                            seg.offset, rng, payload);
        }
        expectBothOutcomes(fuzz(image, envelope, resealSegmented, load));
        expectBothOutcomes(fuzz(image, payload, resealSegmented, load));
    }
}

// ---------------------------------------------------------------
// Open-time checks the fuzzer found, one test each
// ---------------------------------------------------------------

/** Section @p index's payload offset in a TPCC/TPBS image. */
size_t
payloadAt(const Image &img, size_t index)
{
    const FileHeader h = get<FileHeader>(img, 0);
    const size_t table = align8(sizeof(FileHeader) + h.nameLen);
    return get<SectionRecord>(img, table + index * sizeof(SectionRecord))
        .offset;
}

/** A 64-op trace: straight-line ops with a jump every eighth. */
CompactTrace
smallTrace()
{
    std::vector<MicroOp> ops;
    uint64_t pc = 0x1000;
    for (size_t i = 0; i < 64; ++i) {
        ops.push_back(i % 8 == 7
                          ? test::branchOp(pc, BranchKind::UncondDirect,
                                           pc + 0x40)
                          : test::plainOp(pc));
        pc = ops.back().nextPc;
    }
    return CompactTrace::encode(ops);
}

void
expectRejected(const Image &img)
{
    std::string name;
    EXPECT_THROW(openCompactContainer(img, nullptr, name, "test"),
                 CompactFormatError);
}

TEST(ContainerChecks, BranchPositionPastTheOpCountIsRejected)
{
    const CompactTrace trace = smallTrace();
    ASSERT_TRUE(trace.fastBranchScan());
    Image img = serializeCompactTrace(trace, "t");
    const size_t last = payloadAt(img, 12) +
                        4 * (trace.branchPositions().size() - 1);
    put<uint32_t>(img, last, 0x7fffff00);
    resealSections(img);
    expectRejected(img);
}

TEST(ContainerChecks, DescendingBranchPositionsAreRejected)
{
    const CompactTrace trace = smallTrace();
    Image img = serializeCompactTrace(trace, "t");
    put<uint32_t>(img, payloadAt(img, 12), 40);  // first entry > second
    resealSections(img);
    expectRejected(img);
}

TEST(ContainerChecks, RegisterEscapeWithoutEntryIsRejected)
{
    const CompactTrace trace = smallTrace();
    ASSERT_TRUE(trace.columns().regEscapes.empty());
    Image img = serializeCompactTrace(trace, "t");
    img[payloadAt(img, 1) + 5] = 0xFF;  // escape byte, no escape entry
    resealSections(img);
    expectRejected(img);
}

TEST(ContainerChecks, RedirectWithoutTargetDeltaIsRejected)
{
    const CompactTrace trace = smallTrace();
    Image img = serializeCompactTrace(trace, "t");
    img[payloadAt(img, 0) + 2] |= 0x80;  // redirect bit on a plain op
    resealSections(img);
    expectRejected(img);
}

TEST(ContainerChecks, NonzeroFooterReservedWordIsRejected)
{
    const CompactTrace trace = smallTrace();
    const Image plain = serializeCompactTrace(trace, "t");
    const Image stream =
        serializeBranchStream(BranchStream::extract(trace), "t");
    for (Image img : {plain, stream}) {
        put<uint64_t>(img,
                      img.size() - sizeof(Footer) +
                          offsetof(Footer, reserved),
                      1);
        resealSections(img);  // the reserved word is outside every CRC
        std::string name;
        if (get<uint32_t>(img, 0) == kCompactMagic)
            EXPECT_THROW(openCompactContainer(img, nullptr, name, "t"),
                         CompactFormatError);
        else
            EXPECT_THROW(
                openBranchStreamContainer(img, nullptr, name, "t"),
                CompactFormatError);
    }
    const ScratchFile scratch;
    Image segmented = segmentedImage(workloadTrace(), scratch.path);
    put<uint64_t>(segmented,
                  segmented.size() - sizeof(Footer) +
                      offsetof(Footer, reserved),
                  1);
    resealSegmented(segmented);
    EXPECT_THROW(loadSegmented(segmented, scratch.path),
                 CompactFormatError);
}

} // namespace
} // namespace tpred
