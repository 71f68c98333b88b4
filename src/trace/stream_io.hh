/**
 * @file
 * Serialized container for BranchStream — the "TPBS" byte layout the
 * persistent corpus (src/corpus/) stores alongside each trace.
 *
 * A BranchStream is rebuilt from the full CompactTrace on every
 * process launch even when the trace itself comes out of the corpus
 * warm; on sweep-heavy runs (tpredtune's ~1350-config spaces) that
 * extraction pass dominates warm-start latency.  TPBS persists the
 * extraction as a layout of the shared envelope (trace/container.hh):
 * one CRC32C-checked section per column (pos/pc/target/fallthrough/
 * kind/taken), 8-byte aligned.  Because the payload *is* the
 * in-memory column layout, loading is zero-copy:
 * openBranchStreamContainer() validates the structure and returns a
 * BranchStream whose column spans point straight into the provided
 * bytes, with no per-branch deserialization pass.  See
 * docs/trace_format.md for the byte-level layout.
 *
 * Every structural defect — wrong magic, version skew, truncation,
 * checksum mismatch, inconsistent section table — throws a
 * CompactFormatError naming the offending input, so callers can
 * quarantine bad files instead of trusting them.
 */

#ifndef TPRED_TRACE_STREAM_IO_HH
#define TPRED_TRACE_STREAM_IO_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/branch_stream.hh"
#include "trace/container.hh"

namespace tpred
{

/** Container magic "TPBS" and footer magic "TPBF" (little-endian). */
constexpr uint32_t kStreamMagic = 0x53425054;
constexpr uint32_t kStreamFooterMagic = 0x46425054;

/** Bump on any incompatible layout change. */
constexpr uint32_t kStreamVersion = 1;

/** Oldest container version openBranchStreamContainer still reads. */
constexpr uint32_t kStreamMinVersion = 1;

/**
 * Serializes @p stream (with its stream @p name) into a
 * self-contained container image.  Deterministic: the same stream
 * and name always produce the same bytes.
 */
std::vector<uint8_t> serializeBranchStream(const BranchStream &stream,
                                           std::string_view name);

/**
 * Opens a container image in place.
 *
 * @param bytes   The complete container.
 * @param backing Keep-alive handle for the memory behind @p bytes
 *                (MappedFile, shared buffer, ...); held by the
 *                returned stream.
 * @param name_out Receives the recorded stream name.
 * @param whence  Human-readable origin (file path) for error messages.
 * @return A BranchStream viewing @p bytes — zero-copy.
 * @throws CompactFormatError on any structural or checksum defect.
 */
BranchStream openBranchStreamContainer(
    std::span<const uint8_t> bytes, std::shared_ptr<const void> backing,
    std::string &name_out, const std::string &whence);

/**
 * Structurally validates @p bytes and reports the header summary
 * WITHOUT verifying payload checksums (that is what `tpredcorpus
 * verify` / openBranchStreamContainer are for).
 * @throws CompactFormatError when the structure is unusable.
 */
ContainerInfo peekBranchStreamContainer(
    std::span<const uint8_t> bytes, const std::string &whence);

} // namespace tpred

#endif // TPRED_TRACE_STREAM_IO_HH
