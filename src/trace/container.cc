#include "trace/container.hh"

#include <cstddef>
#include <cstring>

#include "common/crc32c.hh"

namespace tpred
{

void
throwFormatError(const std::string &whence, const std::string &what)
{
    throw CompactFormatError(whence + ": " + what);
}

FileHeader
makeHeader(const ContainerLayout &layout, uint64_t op_count,
           uint32_t flags, uint32_t name_len, uint32_t section_count)
{
    FileHeader header{};
    header.magic = layout.magic;
    header.version = layout.version;
    header.opCount = op_count;
    header.flags = flags;
    header.nameLen = name_len;
    header.sectionCount = section_count;
    header.headerCrc =
        crc32c(&header, offsetof(FileHeader, headerCrc));
    return header;
}

FileHeader
readHeader(const ContainerLayout &layout, std::span<const uint8_t> head,
           const std::string &whence)
{
    if (head.size() < sizeof(FileHeader))
        throwFormatError(whence, "truncated " + std::string(layout.kind) +
                                     " container (" +
                                     std::to_string(head.size()) +
                                     " bytes)");
    FileHeader header;
    std::memcpy(&header, head.data(), sizeof(header));
    if (header.magic != layout.magic)
        throwFormatError(whence, "not a " + std::string(layout.kind) +
                                     " container (bad magic)");
    if (header.version < layout.minVersion ||
        header.version > layout.version)
        throwFormatError(whence,
                         "unsupported " + std::string(layout.kind) +
                             " container version " +
                             std::to_string(header.version) +
                             " (supported: " +
                             std::to_string(layout.minVersion) + ".." +
                             std::to_string(layout.version) + ")");
    if (crc32c(head.data(), offsetof(FileHeader, headerCrc)) !=
        header.headerCrc)
        throwFormatError(whence, "header checksum mismatch");
    if ((header.flags & ~layout.flags) != 0)
        throwFormatError(whence, "header flags " +
                                     std::to_string(header.flags) +
                                     " not defined for a " +
                                     std::string(layout.kind) +
                                     " container");
    if (header.nameLen > kMaxNameLen)
        throwFormatError(whence, "implausible stream name length");
    return header;
}

Footer
makeFooter(const ContainerLayout &layout, uint32_t total_crc,
           uint64_t file_len)
{
    Footer footer{};
    footer.magic = layout.footerMagic;
    footer.totalCrc = total_crc;
    footer.fileLen = file_len;
    return footer;
}

Footer
readFooter(const ContainerLayout &layout, std::span<const uint8_t> tail,
           uint64_t file_len, const std::string &whence)
{
    if (tail.size() < sizeof(Footer))
        throwFormatError(whence, "missing container footer");
    Footer footer;
    std::memcpy(&footer, tail.data() + tail.size() - sizeof(Footer),
                sizeof(footer));
    if (footer.magic != layout.footerMagic)
        throwFormatError(whence,
                         "missing container footer (truncated file?)");
    if (footer.fileLen != file_len)
        throwFormatError(whence, "length mismatch: footer records " +
                                     std::to_string(footer.fileLen) +
                                     " bytes, file has " +
                                     std::to_string(file_len));
    // The reserved word sits outside every CRC; reject any damage to
    // it explicitly.
    if (footer.reserved != 0)
        throwFormatError(whence, "nonzero reserved footer field");
    return footer;
}

std::vector<uint8_t>
writeContainer(const ContainerLayout &layout, uint64_t op_count,
               uint32_t flags, std::string_view name,
               std::span<const std::span<const uint8_t>> payloads)
{
    const size_t count = layout.sections.size();
    const uint64_t table_off = align8(sizeof(FileHeader) + name.size());
    uint64_t at = table_off + count * sizeof(SectionRecord);
    std::vector<uint64_t> offsets(count);
    for (size_t i = 0; i < count; ++i) {
        at = align8(at);
        offsets[i] = at;
        at += payloads[i].size();
    }
    const uint64_t footer_off = align8(at);
    std::vector<uint8_t> out(footer_off + sizeof(Footer), 0);

    const FileHeader header =
        makeHeader(layout, op_count, flags,
                   static_cast<uint32_t>(name.size()),
                   static_cast<uint32_t>(count));
    std::memcpy(out.data(), &header, sizeof(header));
    std::memcpy(out.data() + sizeof(FileHeader), name.data(),
                name.size());

    for (size_t i = 0; i < count; ++i) {
        SectionRecord rec{};
        rec.id = layout.sections[i].id;
        rec.elemSize = layout.sections[i].elemSize;
        rec.offset = offsets[i];
        rec.byteLen = payloads[i].size();
        if (!payloads[i].empty())
            std::memcpy(out.data() + offsets[i], payloads[i].data(),
                        payloads[i].size());
        rec.crc = crc32c(out.data() + offsets[i], payloads[i].size());
        std::memcpy(out.data() + table_off + i * sizeof(SectionRecord),
                    &rec, sizeof(rec));
    }

    const Footer footer = makeFooter(
        layout, crc32c(out.data(), footer_off), out.size());
    std::memcpy(out.data() + footer_off, &footer, sizeof(footer));
    return out;
}

Container
readContainer(const ContainerLayout &layout,
              std::span<const uint8_t> bytes, const std::string &whence,
              bool verify)
{
    Container c;
    if (bytes.size() < sizeof(FileHeader) + sizeof(Footer))
        throwFormatError(whence, "truncated " + std::string(layout.kind) +
                                     " container (" +
                                     std::to_string(bytes.size()) +
                                     " bytes)");
    c.header = readHeader(layout, bytes, whence);
    const size_t count = layout.sections.size();
    if (c.header.sectionCount != count)
        throwFormatError(whence, "unexpected section count " +
                                     std::to_string(
                                         c.header.sectionCount));

    const uint64_t table_off =
        align8(sizeof(FileHeader) + c.header.nameLen);
    const uint64_t table_end = table_off + count * sizeof(SectionRecord);
    const uint64_t footer_off = bytes.size() - sizeof(Footer);
    if (table_end > footer_off)
        throwFormatError(whence, "truncated section table");
    c.name.assign(reinterpret_cast<const char *>(bytes.data()) +
                      sizeof(FileHeader),
                  c.header.nameLen);

    c.footer = readFooter(layout, bytes, bytes.size(), whence);
    if (verify && crc32c(bytes.data(), footer_off) != c.footer.totalCrc)
        throwFormatError(whence,
                         "whole-file checksum mismatch (corrupt data)");

    // Each payload starts at the first 8-byte boundary after the
    // previous one, exactly as writeContainer() places it.
    uint64_t next = table_end;
    c.sections.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        SectionRecord rec;
        std::memcpy(&rec,
                    bytes.data() + table_off + i * sizeof(SectionRecord),
                    sizeof(rec));
        const SectionSpec &spec = layout.sections[i];
        const std::string label = "section " + std::to_string(spec.id);
        if (rec.id != spec.id)
            throwFormatError(whence, label + " has unexpected id " +
                                         std::to_string(rec.id));
        if (rec.elemSize != spec.elemSize)
            throwFormatError(whence,
                             label + " has unexpected element size");
        if (rec.byteLen % rec.elemSize != 0)
            throwFormatError(whence, label + " length not a multiple of "
                                             "its element size");
        next = align8(next);
        if (rec.offset != next || next > footer_off ||
            rec.byteLen > footer_off - next)
            throwFormatError(whence, label + " payload out of bounds");
        if (verify &&
            crc32c(bytes.data() + rec.offset, rec.byteLen) != rec.crc)
            throwFormatError(whence,
                             label + " checksum mismatch (corrupt data)");
        c.sections.push_back(bytes.subspan(rec.offset, rec.byteLen));
        next = rec.offset + rec.byteLen;
    }
    if (align8(next) != footer_off)
        throwFormatError(whence, "payloads do not end at the footer");
    return c;
}

} // namespace tpred
