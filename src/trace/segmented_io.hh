/**
 * @file
 * Segmented "TPCS" container: fixed-size CompactTrace segments inside
 * the shared envelope (trace/container.hh), each a complete,
 * individually-CRC32C'd plain container image, plus a segment index
 * carrying per-segment op and branch-stream offsets.  See
 * docs/trace_format.md for the byte layout.
 *
 * The point of the format is *streaming*: a corpus trace no longer
 * needs to be fully resident to replay.  A reader maps one segment
 * window at a time (corpus/segmented_trace.hh), so peak memory is
 * O(segment size), not O(trace size), and the per-segment
 * firstOp/firstBranch index records give sharded replay its exact
 * checkpoint boundaries (harness/shard_replay.hh).
 *
 * File layout (all little-endian, 8-byte aligned):
 *
 *   FileHeader     32 B   magic TPCC, version 2, opCount = total ops,
 *                         flags = kCompactFlagSegmented (| fast-scan
 *                         when every segment supports it),
 *                         sectionCount = segment count, headerCrc
 *   name           nameLen B, then padding to 8
 *   segment 0      a complete serializeCompactTrace() image
 *   ...            (each image length is already a multiple of 8)
 *   segment N-1
 *   index          N x SegmentRecord (56 B each)
 *   Footer         24 B   magic TPCF, totalCrc = METADATA CRC (header
 *                         + name bytes, then index bytes; segment
 *                         payloads carry their own CRCs), fileLen,
 *                         reserved = 0
 *
 * The index lives at the *end* so SegmentedFileWriter can stream
 * segments to disk as they are produced; only the 32-byte header is
 * rewritten at finish().  Readers locate it from the footer:
 * indexOffset = fileLen - 24 - segmentCount * 56.
 */

#ifndef TPRED_TRACE_SEGMENTED_IO_HH
#define TPRED_TRACE_SEGMENTED_IO_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.hh"
#include "trace/compact_io.hh"
#include "trace/compact_trace.hh"

namespace tpred
{

/** One entry of the segment index. */
struct SegmentRecord
{
    uint64_t offset = 0;       ///< absolute file offset of the image
    uint64_t byteLen = 0;      ///< image length (multiple of 8)
    uint64_t opCount = 0;      ///< ops encoded in this segment
    uint64_t branchCount = 0;  ///< control-transfer ops in this segment
    uint64_t firstOp = 0;      ///< global index of the segment's op 0
    uint64_t firstBranch = 0;  ///< global index of its first branch
    uint32_t crc = 0;          ///< CRC32C of the image bytes
    uint32_t reserved = 0;
};
static_assert(sizeof(SegmentRecord) == 56);

/** The checked metadata of a segmented container. */
struct SegmentedIndex
{
    ContainerInfo info;              ///< header, footer and totals
    uint64_t headerNameBytes = 0;    ///< 32 + nameLen (metadata CRC)
    uint64_t firstSegmentOffset = 0; ///< align8(headerNameBytes)
    std::vector<SegmentRecord> segments;
};

/** Bytes of file head that always suffice for parseSegmentedHeader. */
uint64_t segmentedHeaderMaxBytes();

/**
 * Parses and validates the header + name at the start of a segmented
 * container.  @p head must hold at least the first
 * min(fileLen, segmentedHeaderMaxBytes()) bytes of the file.
 * @throws CompactFormatError when the bytes are not a segmented
 *         container (including a well-formed *plain* container).
 */
SegmentedIndex parseSegmentedHeader(std::span<const uint8_t> head,
                                    const std::string &whence);

/** Index + footer length for @p segment_count segments. */
uint64_t segmentedTailBytes(uint64_t segment_count);

/**
 * Parses and validates the segment index + footer at the end of the
 * file into @p index (filled in by parseSegmentedHeader): footer
 * magic, length and reserved word, the metadata CRC over header-name
 * and index bytes, and per-record structure (8-aligned contiguous
 * offsets within bounds, cumulative firstOp/firstBranch consistency,
 * op total matching the header).  Segment *payload* CRCs are NOT
 * checked here — verify each image via openCompactContainer when the
 * window is mapped.
 *
 * @param tail        The last segmentedTailBytes(segmentCount) bytes.
 * @param header_name The first index.headerNameBytes bytes.
 * @param file_len    Total file length.
 */
void parseSegmentedTail(std::span<const uint8_t> tail,
                        std::span<const uint8_t> header_name,
                        uint64_t file_len, const std::string &whence,
                        SegmentedIndex &index);

/**
 * Streaming writer: segments go to a DurableFile as they are added;
 * finish() appends the index + footer, rewrites the header with the
 * final counts and commits the file onto @p path.  If the writer is
 * destroyed unfinished, nothing appears under @p path.
 */
class SegmentedFileWriter
{
  public:
    SegmentedFileWriter(std::string path, std::string_view name);

    /** Serializes and appends one segment; order defines op order. */
    void addSegment(const CompactTrace &segment);

    /** Finalizes the file; no further addSegment() calls allowed. */
    void finish();

  private:
    std::string path_;
    std::string name_;
    DurableFile file_;
    std::vector<SegmentRecord> index_;
    uint64_t totalOps_ = 0;
    uint64_t totalBranches_ = 0;
    bool allFastScan_ = true;
    bool finished_ = false;
};

} // namespace tpred

#endif // TPRED_TRACE_SEGMENTED_IO_HH
