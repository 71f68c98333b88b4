/**
 * @file
 * Serialized container for CompactTrace — the TPCC layout of the
 * shared envelope (trace/container.hh), used by trace_io files and
 * the persistent corpus (src/corpus/).
 *
 * The container preserves the columnar encoding verbatim: one section
 * per column, 8-byte aligned, each CRC32C-checked.  Because the
 * payload *is* the in-memory column layout, loading is zero-copy:
 * openCompactContainer() validates the structure and returns a
 * CompactTrace whose column spans point straight into the provided
 * bytes (an mmap'd file, a read buffer), with no per-op
 * deserialization pass.  See docs/trace_format.md for the byte-level
 * layout.
 *
 * Every structural defect — wrong magic, version skew, truncation,
 * checksum mismatch, inconsistent section table, a column the decoder
 * would read past — throws a CompactFormatError naming the offending
 * input, so callers can quarantine bad files instead of trusting
 * them.
 */

#ifndef TPRED_TRACE_COMPACT_IO_HH
#define TPRED_TRACE_COMPACT_IO_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/compact_trace.hh"
#include "trace/container.hh"

namespace tpred
{

/** Container magic "TPCC" and footer magic "TPCF" (little-endian). */
constexpr uint32_t kCompactMagic = 0x43435054;
constexpr uint32_t kCompactFooterMagic = 0x46435054;

/**
 * Bump on any incompatible layout change.  Version 2 added the
 * segmented-container flag; the plain (unsegmented) layout is
 * byte-identical to version 1, so readers accept both.
 */
constexpr uint32_t kCompactVersion = 2;

/** Oldest container version openCompactContainer still reads. */
constexpr uint32_t kCompactMinVersion = 1;

/** Header flag: every op satisfies the O(branches) scan preconditions. */
constexpr uint32_t kCompactFlagFastBranchScan = 1u << 0;

/**
 * Header flag: the envelope holds fixed-size CompactTrace segments
 * plus a segment index instead of one section table
 * (segmented_io.hh).  Plain openCompactContainer() refuses such
 * files; SegmentedTrace (corpus/segmented_trace.hh) reads them via
 * windowed mappings.
 */
constexpr uint32_t kCompactFlagSegmented = 1u << 1;

/**
 * Serializes @p trace (with its stream @p name) into a self-contained
 * container image.  Deterministic: the same trace and name always
 * produce the same bytes.
 */
std::vector<uint8_t> serializeCompactTrace(const CompactTrace &trace,
                                           std::string_view name);

/**
 * Opens a container image in place, verifying every CRC and every
 * column count the decoder relies on.
 *
 * @param bytes   The complete container.
 * @param backing Keep-alive handle for the memory behind @p bytes
 *                (MappedFile, shared buffer, ...); held by the
 *                returned trace.
 * @param name_out Receives the recorded stream name.
 * @param whence  Human-readable origin (file path) for error messages.
 * @return A CompactTrace viewing @p bytes — zero-copy.
 * @throws CompactFormatError on any structural or checksum defect.
 */
CompactTrace openCompactContainer(std::span<const uint8_t> bytes,
                                  std::shared_ptr<const void> backing,
                                  std::string &name_out,
                                  const std::string &whence);

/**
 * Structurally validates @p bytes and reports the header summary
 * WITHOUT verifying checksums or column contents (that is what
 * `tpredcorpus verify` / openCompactContainer are for).
 * @throws CompactFormatError when the structure is unusable.
 */
ContainerInfo peekCompactContainer(std::span<const uint8_t> bytes,
                                   const std::string &whence);

} // namespace tpred

#endif // TPRED_TRACE_COMPACT_IO_HH
