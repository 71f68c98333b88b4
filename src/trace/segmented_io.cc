#include "trace/segmented_io.hh"

#include <cstring>

#include "common/crc32c.hh"

namespace tpred
{

namespace
{

constexpr uint32_t kMaxSegments = 1u << 24;

/** The TPCC magic pair from version 2 on, with no section table. */
constexpr ContainerLayout kLayout = {
    "segmented trace",
    kCompactMagic,
    kCompactFooterMagic,
    2,
    kCompactVersion,
    kCompactFlagSegmented | kCompactFlagFastBranchScan,
    {},
};

uint32_t
metadataCrc(std::span<const uint8_t> header_name,
            std::span<const uint8_t> index)
{
    const uint32_t crc = crc32c(header_name.data(), header_name.size());
    return crc32cUpdate(crc, index.data(), index.size());
}

} // namespace

uint64_t
segmentedHeaderMaxBytes()
{
    return sizeof(FileHeader) + kMaxNameLen;
}

SegmentedIndex
parseSegmentedHeader(std::span<const uint8_t> head,
                     const std::string &whence)
{
    const FileHeader h = readHeader(kLayout, head, whence);
    if (!(h.flags & kCompactFlagSegmented))
        throwFormatError(whence, "not a segmented container (plain "
                                 "layout; use openCompactContainer)");
    if (h.sectionCount == 0 || h.sectionCount > kMaxSegments)
        throwFormatError(whence, "implausible segment count " +
                                     std::to_string(h.sectionCount));
    if (head.size() < sizeof(FileHeader) + h.nameLen)
        throwFormatError(whence, "truncated stream name");

    SegmentedIndex index;
    index.info.name.assign(reinterpret_cast<const char *>(head.data()) +
                               sizeof(FileHeader),
                           h.nameLen);
    index.info.opCount = h.opCount;
    index.info.version = h.version;
    index.info.segmentCount = h.sectionCount;
    index.info.fastBranchScan =
        (h.flags & kCompactFlagFastBranchScan) != 0;
    index.headerNameBytes = sizeof(FileHeader) + h.nameLen;
    index.firstSegmentOffset = align8(index.headerNameBytes);
    return index;
}

uint64_t
segmentedTailBytes(uint64_t segment_count)
{
    return sizeof(Footer) + segment_count * sizeof(SegmentRecord);
}

void
parseSegmentedTail(std::span<const uint8_t> tail,
                   std::span<const uint8_t> header_name,
                   uint64_t file_len, const std::string &whence,
                   SegmentedIndex &index)
{
    const uint64_t count = index.info.segmentCount;
    const uint64_t index_bytes = count * sizeof(SegmentRecord);
    if (tail.size() != index_bytes + sizeof(Footer))
        throwFormatError(whence, "segment index/footer size mismatch");
    if (index.firstSegmentOffset + tail.size() > file_len)
        throwFormatError(whence, "truncated segmented container");

    const Footer footer = readFooter(kLayout, tail, file_len, whence);
    if (metadataCrc(header_name, tail.first(index_bytes)) !=
        footer.totalCrc)
        throwFormatError(whence, "segment index checksum mismatch "
                                 "(corrupt metadata)");

    index.segments.resize(count);
    std::memcpy(index.segments.data(), tail.data(), index_bytes);

    const uint64_t index_offset = file_len - tail.size();
    uint64_t next_offset = index.firstSegmentOffset;
    uint64_t next_op = 0;
    uint64_t next_branch = 0;
    for (size_t i = 0; i < count; ++i) {
        const SegmentRecord &rec = index.segments[i];
        const std::string label = "segment " + std::to_string(i);
        if (rec.offset != next_offset)
            throwFormatError(whence, label + " offset out of sequence");
        if (rec.byteLen == 0 || rec.byteLen % 8 != 0 ||
            rec.byteLen > index_offset - rec.offset)
            throwFormatError(whence, label + " payload out of bounds");
        if (rec.opCount == 0)
            throwFormatError(whence, label + " is empty");
        if (rec.firstOp != next_op)
            throwFormatError(whence, label + " op index out of sequence");
        if (rec.firstBranch != next_branch)
            throwFormatError(whence,
                             label + " branch index out of sequence");
        next_offset = rec.offset + rec.byteLen;
        next_op += rec.opCount;
        next_branch += rec.branchCount;
    }
    if (next_offset != index_offset)
        throwFormatError(whence,
                         "segment payloads do not fill the container");
    if (next_op != index.info.opCount)
        throwFormatError(whence, "segment op counts do not sum to the "
                                 "header op count");
    index.info.branchCount = next_branch;
    index.info.totalCrc = footer.totalCrc;
    index.info.fileBytes = file_len;
}

// ---------------------------------------------------------------------
// SegmentedFileWriter

SegmentedFileWriter::SegmentedFileWriter(std::string path,
                                         std::string_view name)
    : path_(std::move(path)), name_(name), file_(path_)
{
    if (name_.size() > kMaxNameLen)
        throwFormatError(path_, "stream name too long");
    // Placeholder header (rewritten by finish()) + name + padding.
    std::vector<uint8_t> prefix(align8(sizeof(FileHeader) + name_.size()),
                                0);
    std::memcpy(prefix.data() + sizeof(FileHeader), name_.data(),
                name_.size());
    file_.append(prefix);
}

void
SegmentedFileWriter::addSegment(const CompactTrace &segment)
{
    if (finished_)
        throwFormatError(path_, "addSegment after finish");
    if (segment.size() == 0)
        throwFormatError(path_, "cannot add an empty segment");
    if (index_.size() >= kMaxSegments)
        throwFormatError(path_, "too many segments");

    // Segments do not repeat the stream name; the envelope carries it.
    const std::vector<uint8_t> image =
        serializeCompactTrace(segment, "");

    SegmentRecord rec;
    rec.offset = file_.size();
    rec.byteLen = image.size();
    rec.opCount = segment.size();
    rec.branchCount = segment.branchPositions().size();
    rec.firstOp = totalOps_;
    rec.firstBranch = totalBranches_;
    rec.crc = crc32c(image.data(), image.size());
    file_.append(image);

    index_.push_back(rec);
    totalOps_ += rec.opCount;
    totalBranches_ += rec.branchCount;
    allFastScan_ = allFastScan_ && segment.fastBranchScan();
}

void
SegmentedFileWriter::finish()
{
    if (finished_)
        throwFormatError(path_, "finish called twice");
    if (index_.empty())
        throwFormatError(path_, "segmented container needs at least "
                                "one segment");

    const FileHeader header = makeHeader(
        kLayout, totalOps_,
        kCompactFlagSegmented |
            (allFastScan_ ? kCompactFlagFastBranchScan : 0),
        static_cast<uint32_t>(name_.size()),
        static_cast<uint32_t>(index_.size()));
    std::vector<uint8_t> header_name(sizeof(FileHeader) + name_.size());
    std::memcpy(header_name.data(), &header, sizeof(header));
    std::memcpy(header_name.data() + sizeof(FileHeader), name_.data(),
                name_.size());

    const std::span<const uint8_t> index =
        payloadOf(std::span<const SegmentRecord>(index_));
    const Footer footer =
        makeFooter(kLayout, metadataCrc(header_name, index),
                   file_.size() + index.size() + sizeof(Footer));
    file_.append(index);
    file_.append(payloadOf(std::span<const Footer>(&footer, 1)));
    // Rewrite the header now that the counts are known.
    file_.writeAt(0, std::span<const uint8_t>(header_name)
                         .first(sizeof(FileHeader)));
    file_.commit();
    finished_ = true;
}

} // namespace tpred
