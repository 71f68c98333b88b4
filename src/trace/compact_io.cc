#include "trace/compact_io.hh"

#include <array>

namespace tpred
{

namespace
{

enum : uint32_t
{
    kSecFlags = 1,
    kSecRegBytes,
    kSecRegEscapes,
    kSecTargetDeltas,
    kSecDiscontPos,
    kSecDiscontPc,
    kSecMemPos,
    kSecMemDeltas,
    kSecSelPos,
    kSecSelVals,
    kSecFallPos,
    kSecFallVals,
    kSecBranchPos,
    kNumSections = kSecBranchPos,
};

constexpr std::array<SectionSpec, kNumSections> kSections = {{
    {kSecFlags, 1},
    {kSecRegBytes, 1},
    {kSecRegEscapes, 2},
    {kSecTargetDeltas, 1},
    {kSecDiscontPos, 4},
    {kSecDiscontPc, 8},
    {kSecMemPos, 4},
    {kSecMemDeltas, 1},
    {kSecSelPos, 4},
    {kSecSelVals, 1},
    {kSecFallPos, 4},
    {kSecFallVals, 8},
    {kSecBranchPos, 4},
}};

constexpr ContainerLayout kLayout = {
    "compact trace",
    kCompactMagic,
    kCompactFooterMagic,
    kCompactMinVersion,
    kCompactVersion,
    kCompactFlagFastBranchScan,
    kSections,
};

} // namespace

std::vector<uint8_t>
serializeCompactTrace(const CompactTrace &trace, std::string_view name)
{
    const CompactColumns c = trace.columns();
    const std::array<std::span<const uint8_t>, kNumSections> payloads = {
        payloadOf(c.flags),
        payloadOf(c.regBytes),
        payloadOf(c.regEscapes),
        payloadOf(c.targetDeltas),
        payloadOf(c.discontPos),
        payloadOf(c.discontPc),
        payloadOf(c.memPos),
        payloadOf(c.memDeltas),
        payloadOf(c.selPos),
        payloadOf(c.selVals),
        payloadOf(c.fallPos),
        payloadOf(c.fallVals),
        payloadOf(c.branchPos),
    };
    return writeContainer(
        kLayout, c.count,
        c.fastBranchScan ? kCompactFlagFastBranchScan : 0, name,
        payloads);
}

CompactTrace
openCompactContainer(std::span<const uint8_t> bytes,
                     std::shared_ptr<const void> backing,
                     std::string &name_out, const std::string &whence)
{
    const Container c = readContainer(kLayout, bytes, whence, true);

    CompactColumns cols;
    cols.count = c.header.opCount;
    cols.fastBranchScan =
        (c.header.flags & kCompactFlagFastBranchScan) != 0;
    auto section = [&](uint32_t id) { return c.sections[id - 1]; };
    cols.flags = columnOf<uint8_t>(section(kSecFlags));
    cols.regBytes = columnOf<uint8_t>(section(kSecRegBytes));
    cols.regEscapes = columnOf<int16_t>(section(kSecRegEscapes));
    cols.targetDeltas = columnOf<uint8_t>(section(kSecTargetDeltas));
    cols.discontPos = columnOf<uint32_t>(section(kSecDiscontPos));
    cols.discontPc = columnOf<uint64_t>(section(kSecDiscontPc));
    cols.memPos = columnOf<uint32_t>(section(kSecMemPos));
    cols.memDeltas = columnOf<uint8_t>(section(kSecMemDeltas));
    cols.selPos = columnOf<uint32_t>(section(kSecSelPos));
    cols.selVals = columnOf<uint8_t>(section(kSecSelVals));
    cols.fallPos = columnOf<uint32_t>(section(kSecFallPos));
    cols.fallVals = columnOf<uint64_t>(section(kSecFallVals));
    cols.branchPos = columnOf<uint32_t>(section(kSecBranchPos));
    if (const char *defect = CompactTrace::columnDefect(cols))
        throwFormatError(whence, defect);

    name_out = c.name;
    return CompactTrace::fromColumns(cols, std::move(backing));
}

ContainerInfo
peekCompactContainer(std::span<const uint8_t> bytes,
                     const std::string &whence)
{
    const Container c = readContainer(kLayout, bytes, whence, false);
    ContainerInfo info;
    info.name = c.name;
    info.opCount = c.header.opCount;
    info.branchCount = c.sections[kSecBranchPos - 1].size() / 4;
    info.version = c.header.version;
    info.totalCrc = c.footer.totalCrc;
    info.fileBytes = bytes.size();
    info.fastBranchScan =
        (c.header.flags & kCompactFlagFastBranchScan) != 0;
    return info;
}

} // namespace tpred
