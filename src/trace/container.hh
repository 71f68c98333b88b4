/**
 * @file
 * The container envelope every trace-store file shares: TPCC compact
 * traces (compact_io.hh), TPBS branch streams (stream_io.hh) and TPCS
 * segmented traces (segmented_io.hh).  See docs/trace_format.md.
 *
 *   FileHeader     32 B  magic, version, opCount, flags, nameLen,
 *                        sectionCount, headerCrc (CRC32C of the 28
 *                        bytes before it)
 *   name           nameLen bytes, zero-padded to a multiple of 8
 *   section table  sectionCount x SectionRecord, 32 B each
 *   payloads       one per section, each at the next 8-byte boundary
 *   Footer         24 B  magic, totalCrc (CRC32C of everything before
 *                        the footer), fileLen, reserved (zero)
 *
 * A layout names its magic pair, version window, header flags and
 * section list; everything else is checked here, once: the header CRC
 * and name length; each section's id, element size, length multiple,
 * placement and CRC; the whole-file CRC and the footer.  A payload
 * must sit exactly where writeContainer() puts it, so a valid image
 * has exactly one reading.  TPCS has no section table (its
 * sectionCount is the segment count and its footer CRC covers only
 * the metadata), so it reuses the header and footer checks and keeps
 * its own segment index.
 *
 * Every defect throws CompactFormatError naming the input, so callers
 * can quarantine bad files instead of trusting them.
 */

#ifndef TPRED_TRACE_CONTAINER_HH
#define TPRED_TRACE_CONTAINER_HH

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tpred
{

/** A malformed, truncated or corrupt container. */
class CompactFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

// On-disk records.  All fields little-endian; the structs are laid
// out so natural alignment matches the packed layout exactly.

struct FileHeader
{
    uint32_t magic;
    uint32_t version;
    uint64_t opCount;
    uint32_t flags;
    uint32_t nameLen;
    uint32_t sectionCount;  ///< TPCS: the segment count
    uint32_t headerCrc;     ///< CRC32C of the 28 bytes preceding it
};
static_assert(sizeof(FileHeader) == 32);

struct SectionRecord
{
    uint32_t id;
    uint32_t elemSize;
    uint64_t offset;        ///< absolute, 8-byte aligned
    uint64_t byteLen;
    uint32_t crc;           ///< CRC32C of the payload bytes
    uint32_t reserved;
};
static_assert(sizeof(SectionRecord) == 32);

struct Footer
{
    uint32_t magic;
    uint32_t totalCrc;      ///< CRC32C of everything before the footer
                            ///< (TPCS: of the header, name and index)
    uint64_t fileLen;
    uint64_t reserved;      ///< zero; outside every CRC
};
static_assert(sizeof(Footer) == 24);

/** Longest stream name a header may record. */
constexpr uint32_t kMaxNameLen = 4096;

inline uint64_t
align8(uint64_t at)
{
    return (at + 7) & ~uint64_t{7};
}

/** One section of a layout, in file order. */
struct SectionSpec
{
    uint32_t id;
    uint32_t elemSize;
};

/** What one container kind adds to the envelope. */
struct ContainerLayout
{
    const char *kind;        ///< for messages: "compact trace", ...
    uint32_t magic;
    uint32_t footerMagic;
    uint32_t minVersion;     ///< oldest version still read
    uint32_t version;        ///< version written
    uint32_t flags;          ///< header flag bits the layout defines
    std::span<const SectionSpec> sections;  ///< empty for TPCS
};

/** A checked section-table container. */
struct Container
{
    FileHeader header;
    std::string name;
    std::vector<std::span<const uint8_t>> sections;  ///< layout order
    Footer footer;
};

/** Header summary of any container (corpus `ls` and manifest). */
struct ContainerInfo
{
    std::string name;        ///< recorded stream name
    uint64_t opCount = 0;
    uint64_t branchCount = 0;
    uint32_t version = 0;
    uint32_t totalCrc = 0;   ///< the footer's CRC32C
    uint64_t fileBytes = 0;
    bool fastBranchScan = false;
    uint64_t segmentCount = 0; ///< 0 for unsegmented kinds
};

/** A column's bytes, as a section payload. */
template <typename T>
std::span<const uint8_t>
payloadOf(std::span<const T> column)
{
    return {reinterpret_cast<const uint8_t *>(column.data()),
            column.size_bytes()};
}

/** A section payload viewed as its column (the inverse). */
template <typename T>
std::span<const T>
columnOf(std::span<const uint8_t> payload)
{
    return {reinterpret_cast<const T *>(payload.data()),
            payload.size() / sizeof(T)};
}

/** Throws CompactFormatError("whence: what"). */
[[noreturn]] void throwFormatError(const std::string &whence,
                                   const std::string &what);

/**
 * Lays out a complete image: header, name, section table, the
 * @p payloads (one per layout section, in order) and the footer, all
 * CRCs filled in.  Deterministic.
 */
std::vector<uint8_t>
writeContainer(const ContainerLayout &layout, uint64_t op_count,
               uint32_t flags, std::string_view name,
               std::span<const std::span<const uint8_t>> payloads);

/**
 * Checks @p bytes against every envelope rule and returns its
 * records, with one payload view per layout section.
 * @param verify Also check the section and whole-file CRCs (one pass
 *        over the bytes); false is the cheap structural peek.
 * @throws CompactFormatError on any defect.
 */
Container readContainer(const ContainerLayout &layout,
                        std::span<const uint8_t> bytes,
                        const std::string &whence, bool verify);

/** A header for @p layout with its CRC filled in. */
FileHeader makeHeader(const ContainerLayout &layout, uint64_t op_count,
                      uint32_t flags, uint32_t name_len,
                      uint32_t section_count);

/**
 * Checks the header at the start of @p head: magic, version window,
 * header CRC, flags and name length.
 */
FileHeader readHeader(const ContainerLayout &layout,
                      std::span<const uint8_t> head,
                      const std::string &whence);

/** A footer for @p layout. */
Footer makeFooter(const ContainerLayout &layout, uint32_t total_crc,
                  uint64_t file_len);

/**
 * Checks the footer in the last sizeof(Footer) bytes of @p tail:
 * magic, recorded length against @p file_len, reserved word zero.
 */
Footer readFooter(const ContainerLayout &layout,
                  std::span<const uint8_t> tail, uint64_t file_len,
                  const std::string &whence);

} // namespace tpred

#endif // TPRED_TRACE_CONTAINER_HH
