#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "trace/compact_io.hh"

namespace tpred
{

namespace
{

/** Slurps the remainder of @p in into one contiguous buffer. */
std::shared_ptr<std::vector<uint8_t>>
slurp(std::istream &in)
{
    auto buffer = std::make_shared<std::vector<uint8_t>>();
    char chunk[1 << 16];
    while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
        buffer->insert(buffer->end(), chunk, chunk + in.gcount());
        if (!in)
            break;
    }
    return buffer;
}

/**
 * Checks the magic/version preamble and adopts the container behind
 * it zero-copy; @p buffer becomes the trace's backing.
 */
CompactTrace
parseTrace(std::shared_ptr<std::vector<uint8_t>> buffer,
           std::string &name_out, const std::string &whence)
{
    uint32_t preamble[2];
    if (buffer->size() < sizeof(preamble))
        throw std::runtime_error(whence + ": trace file truncated");
    std::memcpy(preamble, buffer->data(), sizeof(preamble));
    if (preamble[0] != kTraceMagic)
        throw std::runtime_error(whence + ": not a tpred trace file");
    if (preamble[1] != kTraceVersion)
        throw std::runtime_error(
            whence + ": unsupported trace file version " +
            std::to_string(preamble[1]) + " (expected " +
            std::to_string(kTraceVersion) + ")");
    const std::span<const uint8_t> image =
        std::span<const uint8_t>(*buffer).subspan(sizeof(preamble));
    return openCompactContainer(image, std::move(buffer), name_out,
                                whence);
}

} // namespace

void
writeTrace(std::ostream &out, const CompactTrace &trace,
           const std::string &name)
{
    const uint32_t preamble[2] = {kTraceMagic, kTraceVersion};
    out.write(reinterpret_cast<const char *>(preamble),
              sizeof(preamble));
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, name);
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out)
        throw std::runtime_error("trace write failed");
}

CompactTrace
readCompactTrace(std::istream &in, std::string &name_out)
{
    return parseTrace(slurp(in), name_out, "trace stream");
}

void
saveTraceFile(const std::string &path, const CompactTrace &trace,
              const std::string &name)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open " + path +
                                 " for writing");
    writeTrace(out, trace, name);
}

CompactTrace
loadCompactTraceFile(const std::string &path, std::string &name_out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    return parseTrace(slurp(in), name_out, path);
}

} // namespace tpred
