#include "corpus/segmented_trace.hh"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/crc32c.hh"
#include "corpus/mapped_file.hh"
#include "trace/compact_io.hh"

namespace tpred
{

std::shared_ptr<const SegmentedTrace>
SegmentedTrace::open(const std::string &path)
{
    std::error_code ec;
    const uint64_t file_len = std::filesystem::file_size(path, ec);
    if (ec)
        throw std::runtime_error("cannot stat " + path + ": " +
                                 ec.message());

    auto trace = std::shared_ptr<SegmentedTrace>(new SegmentedTrace());
    trace->path_ = path;

    // Two small windows validate the whole envelope; no segment
    // payload is touched.
    const uint64_t head_len =
        std::min<uint64_t>(file_len, segmentedHeaderMaxBytes());
    const auto head = MappedFile::openRange(path, 0, head_len);
    SegmentedIndex &index = trace->index_;
    index = parseSegmentedHeader(head->bytes(), path);

    const uint64_t tail_len = segmentedTailBytes(index.info.segmentCount);
    if (tail_len > file_len)
        throw CompactFormatError(path + ": truncated segmented "
                                        "container (missing index)");
    const auto tail =
        MappedFile::openRange(path, file_len - tail_len, tail_len);
    parseSegmentedTail(tail->bytes(),
                       head->bytes().first(index.headerNameBytes),
                       file_len, path, index);
    return trace;
}

size_t
SegmentedTrace::segmentContaining(uint64_t pos) const
{
    const std::vector<SegmentRecord> &segments = index_.segments;
    const auto it = std::upper_bound(
        segments.begin(), segments.end(), pos,
        [](uint64_t p, const SegmentRecord &rec) {
            return p < rec.firstOp;
        });
    if (it == segments.begin())
        throw std::out_of_range("segmentContaining: bad position");
    return static_cast<size_t>(it - segments.begin()) - 1;
}

std::shared_ptr<const CompactTrace>
SegmentedTrace::openSegment(size_t i) const
{
    const SegmentRecord &rec = index_.segments.at(i);
    const std::string whence =
        path_ + " segment " + std::to_string(i);

    const auto window =
        MappedFile::openRange(path_, rec.offset, rec.byteLen);
    const std::span<const uint8_t> image = window->bytes();
    if (crc32c(image.data(), image.size()) != rec.crc)
        throw CompactFormatError(whence + ": segment checksum "
                                          "mismatch (corrupt payload)");

    std::string name;
    CompactTrace seg =
        openCompactContainer(image, window, name, whence);
    if (seg.size() != rec.opCount ||
        seg.branchPositions().size() != rec.branchCount)
        throw CompactFormatError(whence + ": payload op/branch count "
                                          "disagrees with the index");
    return std::make_shared<const CompactTrace>(std::move(seg));
}

void
SegmentedTrace::verifyAllSegments() const
{
    for (size_t i = 0; i < segmentCount(); ++i)
        openSegment(i);  // one window at a time; throws on defect
}

SegmentedReplay::SegmentedReplay(
    std::shared_ptr<const SegmentedTrace> trace, uint64_t start_op,
    std::function<void()> on_window_open)
    : trace_(std::move(trace)), onWindowOpen_(std::move(on_window_open))
{
    if (start_op >= trace_->totalOps()) {
        // Positioned at (or past) the end: first next() returns false.
        segIdx_ = trace_->segmentCount() - 1;
        pos_ = trace_->totalOps();
        return;
    }
    openSegmentWindow(trace_->segmentContaining(start_op));
    // Skip within the starting segment to the exact op.
    MicroOp scratch;
    for (uint64_t skip = start_op - trace_->record(segIdx_).firstOp;
         skip > 0; --skip) {
        replay_->next(scratch);
    }
    pos_ = start_op;
}

void
SegmentedReplay::openSegmentWindow(size_t idx)
{
    // Drop the exhausted window before mapping the next so exactly
    // one window is resident.
    replay_.reset();
    segment_.reset();
    segment_ = trace_->openSegment(idx);
    replay_.emplace(*segment_);
    segIdx_ = idx;
    if (onWindowOpen_)
        onWindowOpen_();
}

} // namespace tpred
