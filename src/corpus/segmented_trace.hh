/**
 * @file
 * Windowed reader for segmented trace containers (trace/segmented_io.hh).
 *
 * A SegmentedTrace never maps the whole file: open() maps two small
 * windows (header, index+footer) to validate the envelope, and each
 * openSegment() call maps exactly one segment image, CRC-checks it,
 * and returns a zero-copy CompactTrace whose backing handle IS the
 * window — drop the trace and the window unmaps.  Peak memory for a
 * sequential replay is therefore O(max segment size), independent of
 * trace length: that is what lets a billion-op corpus trace stream
 * through the page cache (see SegmentedReplay and
 * harness/shard_replay.hh).
 */

#ifndef TPRED_CORPUS_SEGMENTED_TRACE_HH
#define TPRED_CORPUS_SEGMENTED_TRACE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/compact_trace.hh"
#include "trace/segmented_io.hh"

namespace tpred
{

/**
 * An opened segmented container: validated envelope + segment index,
 * no segment payload resident.  Immutable after open(); safe to share
 * across threads (each thread maps its own segment windows).
 */
class SegmentedTrace
{
  public:
    /**
     * Opens and validates @p path: header, footer, metadata CRC and
     * the structural consistency of every index record.  Segment
     * *payloads* are not read here — openSegment()/verifyAllSegments()
     * check those.
     * @throws CompactFormatError on any envelope defect,
     *         std::runtime_error on I/O failure.
     */
    static std::shared_ptr<const SegmentedTrace>
    open(const std::string &path);

    const std::string &path() const { return path_; }
    const std::string &name() const { return index_.info.name; }
    uint64_t totalOps() const { return index_.info.opCount; }
    uint64_t totalBranches() const { return index_.info.branchCount; }
    uint32_t version() const { return index_.info.version; }
    uint64_t fileBytes() const { return index_.info.fileBytes; }
    size_t segmentCount() const { return index_.segments.size(); }

    /** Header summary (corpus `ls` and manifest). */
    const ContainerInfo &info() const { return index_.info; }

    const SegmentRecord &record(size_t i) const
    {
        return index_.segments[i];
    }
    std::span<const SegmentRecord> records() const
    {
        return index_.segments;
    }

    /** Index of the segment containing global op @p pos. */
    size_t segmentContaining(uint64_t pos) const;

    /**
     * Maps segment @p i's window, verifies its CRC32C against the
     * index record plus the full per-section checks of the plain
     * container reader, and cross-checks the decoded op/branch counts
     * against the index.  The returned trace holds the window mapping;
     * releasing it unmaps the segment.
     * @throws CompactFormatError on corruption.
     */
    std::shared_ptr<const CompactTrace> openSegment(size_t i) const;

    /**
     * Opens (and thereby fully verifies) every segment in turn, one
     * window at a time — bounded memory regardless of trace size.
     * @throws CompactFormatError naming the first defective segment.
     */
    void verifyAllSegments() const;

  private:
    SegmentedTrace() = default;

    std::string path_;
    SegmentedIndex index_;
};

/**
 * Streaming replay source over a SegmentedTrace: the windowed
 * counterpart of CompactReplay.  next() pulls from the current
 * segment's block decoder; crossing a segment boundary unmaps the old
 * window and maps the next, so exactly one segment is resident.
 */
class SegmentedReplay
{
  public:
    /**
     * @param trace    Shared so the replay keeps the envelope alive.
     * @param on_window_open Invoked once per segment window mapped —
     *        observability hook (runtime-kind metrics), may be empty.
     */
    explicit SegmentedReplay(
        std::shared_ptr<const SegmentedTrace> trace,
        std::function<void()> on_window_open = {});

    /** Pulls the next op; false at end of trace. */
    bool
    next(MicroOp &op)
    {
        while (true) {
            if (replay_ && replay_->next(op))
                return true;
            if (segIdx_ + 1 >= trace_->segmentCount()) {
                replay_.reset();
                segment_.reset();
                return false;
            }
            openSegmentWindow(segIdx_ + 1);
        }
    }

  private:
    void openSegmentWindow(size_t idx);

    std::shared_ptr<const SegmentedTrace> trace_;
    std::shared_ptr<const CompactTrace> segment_;
    std::optional<CompactReplay> replay_;
    std::function<void()> onWindowOpen_;
    size_t segIdx_ = 0;
};

} // namespace tpred

#endif // TPRED_CORPUS_SEGMENTED_TRACE_HH
