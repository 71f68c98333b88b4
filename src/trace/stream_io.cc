#include "trace/stream_io.hh"

#include <array>

namespace tpred
{

namespace
{

enum : uint32_t
{
    kSecPos = 1,
    kSecPc,
    kSecTarget,
    kSecFallthrough,
    kSecKind,
    kSecTaken,
    kNumSections = kSecTaken,
};

constexpr std::array<SectionSpec, kNumSections> kSections = {{
    {kSecPos, 4},
    {kSecPc, 8},
    {kSecTarget, 8},
    {kSecFallthrough, 8},
    {kSecKind, 1},
    {kSecTaken, 1},
}};

constexpr ContainerLayout kLayout = {
    "branch-stream",
    kStreamMagic,
    kStreamFooterMagic,
    kStreamMinVersion,
    kStreamVersion,
    0,
    kSections,
};

} // namespace

std::vector<uint8_t>
serializeBranchStream(const BranchStream &stream, std::string_view name)
{
    const BranchStreamColumns c = stream.columns();
    const std::array<std::span<const uint8_t>, kNumSections> payloads = {
        payloadOf(c.pos),
        payloadOf(c.pc),
        payloadOf(c.target),
        payloadOf(c.fallthrough),
        payloadOf(c.kind),
        payloadOf(c.taken),
    };
    return writeContainer(kLayout, c.opCount, 0, name, payloads);
}

BranchStream
openBranchStreamContainer(std::span<const uint8_t> bytes,
                          std::shared_ptr<const void> backing,
                          std::string &name_out,
                          const std::string &whence)
{
    const Container c = readContainer(kLayout, bytes, whence, true);

    // All six columns are parallel arrays with one entry per branch,
    // at ascending positions inside the source trace.
    const uint64_t branches = c.sections[kSecPos - 1].size() / 4;
    for (size_t i = 0; i < kNumSections; ++i) {
        if (c.sections[i].size() / kSections[i].elemSize != branches)
            throwFormatError(whence, "section " +
                                         std::to_string(kSections[i].id) +
                                         " disagrees with the branch "
                                         "count");
    }
    BranchStreamColumns cols;
    cols.opCount = c.header.opCount;
    auto section = [&](uint32_t id) { return c.sections[id - 1]; };
    cols.pos = columnOf<uint32_t>(section(kSecPos));
    cols.pc = columnOf<uint64_t>(section(kSecPc));
    cols.target = columnOf<uint64_t>(section(kSecTarget));
    cols.fallthrough = columnOf<uint64_t>(section(kSecFallthrough));
    cols.kind = columnOf<uint8_t>(section(kSecKind));
    cols.taken = columnOf<uint8_t>(section(kSecTaken));
    uint64_t next = 0;
    for (const uint32_t pos : cols.pos) {
        if (pos < next || pos >= cols.opCount)
            throwFormatError(whence, "branch positions do not ascend "
                                     "below the source op count");
        next = uint64_t{pos} + 1;
    }

    name_out = c.name;
    return BranchStream::fromColumns(cols, std::move(backing));
}

ContainerInfo
peekBranchStreamContainer(std::span<const uint8_t> bytes,
                          const std::string &whence)
{
    const Container c = readContainer(kLayout, bytes, whence, false);
    ContainerInfo info;
    info.name = c.name;
    info.opCount = c.header.opCount;
    info.branchCount = c.sections[kSecPos - 1].size() / 4;
    info.version = c.header.version;
    info.totalCrc = c.footer.totalCrc;
    info.fileBytes = bytes.size();
    return info;
}

} // namespace tpred
