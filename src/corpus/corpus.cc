#include "corpus/corpus.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/durable_file.hh"
#include "corpus/mapped_file.hh"
#include "corpus/segmented_trace.hh"
#include "trace/compact_io.hh"
#include "trace/stream_io.hh"
#include "trace/trace_source.hh"

namespace fs = std::filesystem;

namespace tpred
{

namespace
{

constexpr const char *kQuarantineSuffix = ".quarantined";

/** Minimal JSON string escaping (names are workload identifiers). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Current UTC time as ISO 8601 (manifest provenance only). */
std::string
isoNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

ContainerInfo
inspectPlain(const std::string &path, bool verify)
{
    const auto mapping = MappedFile::open(path);
    std::string name;
    if (verify)
        openCompactContainer(mapping->bytes(), mapping, name, path);
    return peekCompactContainer(mapping->bytes(), path);
}

ContainerInfo
inspectSegmented(const std::string &path, bool verify)
{
    const auto trace = SegmentedTrace::open(path);
    if (verify)
        trace->verifyAllSegments();
    return trace->info();
}

ContainerInfo
inspectStream(const std::string &path, bool verify)
{
    const auto mapping = MappedFile::open(path);
    std::string name;
    if (verify)
        openBranchStreamContainer(mapping->bytes(), mapping, name, path);
    return peekBranchStreamContainer(mapping->bytes(), path);
}

/**
 * One artifact kind.  Its files are named
 * {workload}-s{seed}-o{ops}[-g{segment_ops}]{tag}{version}{suffix}.
 */
struct ArtifactKind
{
    CorpusArtifact kind;
    const char *name;
    const char *suffix;
    const char *versionTag;
    uint32_t version;
    bool segmented;  ///< the name carries the segment granularity
    /// Derived from a trace entry of the same key: counted under
    /// "stream_corpus.*", never evicted by size, collected by gc()
    /// once no trace entry of its key is left.
    bool derived;
    /// Header summary; @p verify adds every checksum and column check.
    ContainerInfo (*inspect)(const std::string &path, bool verify);
};

constexpr ArtifactKind kKinds[] = {
    {CorpusArtifact::Plain, "plain", ".tpct", "-c", kCompactVersion,
     false, false, inspectPlain},
    {CorpusArtifact::Segmented, "segmented", ".tpcs", "-c",
     kCompactVersion, true, false, inspectSegmented},
    {CorpusArtifact::BranchStream, "branch-stream", ".tpbs", "-b",
     kStreamVersion, false, true, inspectStream},
};
static_assert(kKinds[0].kind == CorpusArtifact::Plain &&
              kKinds[1].kind == CorpusArtifact::Segmented &&
              kKinds[2].kind == CorpusArtifact::BranchStream);

const ArtifactKind &
kindOf(CorpusArtifact kind)
{
    return kKinds[static_cast<size_t>(kind)];
}

/** The kind whose suffix @p file carries, or nullptr. */
const ArtifactKind *
kindOfFile(const std::string &file)
{
    for (const ArtifactKind &kind : kKinds)
        if (file.ends_with(kind.suffix))
            return &kind;
    return nullptr;
}

std::string
entryFileName(const ArtifactKind &kind, const CorpusKey &key,
              uint64_t segment_ops)
{
    std::string file = key.workload + "-s" + std::to_string(key.seed) +
                       "-o" + std::to_string(key.ops);
    if (kind.segmented)
        file += "-g" + std::to_string(segment_ops);
    return file + kind.versionTag + std::to_string(kind.version) +
           kind.suffix;
}

/**
 * Inverts entryFileName().  Workload names may contain '-', so the
 * numeric fields are parsed from the right.
 * @return true when @p file has the expected shape.
 */
bool
parseEntryFileName(const std::string &file, const ArtifactKind &kind,
                   CorpusKey &key, uint64_t &segment_ops)
{
    const std::string stem =
        file.substr(0, file.size() - std::strlen(kind.suffix));
    size_t end = stem.size();
    // The number after the last @p marker before `end`.
    auto field = [&](const char *marker, uint64_t &value) {
        const size_t at = end == 0 ? std::string::npos
                                   : stem.rfind(marker, end - 1);
        if (at == std::string::npos)
            return false;
        const std::string digits = stem.substr(at + 2, end - at - 2);
        if (digits.empty() || digits.size() > 19 ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            return false;
        value = std::stoull(digits);
        end = at;
        return true;
    };
    uint64_t version = 0;
    uint64_t seg_ops = 0;
    uint64_t ops = 0;
    uint64_t seed = 0;
    if (!field(kind.versionTag, version) ||
        (kind.segmented && !field("-g", seg_ops)) ||
        !field("-o", ops) || !field("-s", seed) || end == 0)
        return false;
    key.workload = stem.substr(0, end);
    key.seed = seed;
    key.ops = ops;
    segment_ops = seg_ops;
    return true;
}

/** ls/gc/manifest view of one file of a known kind. */
CorpusEntry
inspectEntry(const fs::path &path, const ArtifactKind &kind, bool verify)
{
    CorpusEntry entry;
    entry.file = path.filename().string();
    entry.kind = kind.kind;
    parseEntryFileName(entry.file, kind, entry.key, entry.segmentOps);
    try {
        const ContainerInfo info = kind.inspect(path.string(), verify);
        entry.name = info.name;
        entry.opCount = info.opCount;
        entry.branchCount = info.branchCount;
        entry.fileBytes = info.fileBytes;
        entry.segmentCount = info.segmentCount;
        entry.totalCrc = info.totalCrc;
        entry.fastBranchScan = info.fastBranchScan;
        entry.ok = true;
    } catch (const std::exception &e) {
        entry.error = e.what();
    }
    return entry;
}

/** Stable identity string for orphan matching in gc(). */
std::string
keyId(const CorpusKey &key)
{
    return key.workload + "|" + std::to_string(key.seed) + "|" +
           std::to_string(key.ops);
}

/** One manifest.json entry; every kind carries every field. */
std::string
manifestEntry(const CorpusEntry &e)
{
    std::string json = "{\"file\": \"" + jsonEscape(e.file) +
                       "\", \"kind\": \"" +
                       corpusArtifactName(e.kind) + "\"";
    if (!e.key.workload.empty())
        json += ", \"workload\": \"" + jsonEscape(e.key.workload) +
                "\", \"seed\": " + std::to_string(e.key.seed) +
                ", \"ops\": " + std::to_string(e.key.ops) +
                ", \"segment_ops\": " + std::to_string(e.segmentOps);
    if (!e.ok)
        return json + ", \"error\": \"" + jsonEscape(e.error) + "\"}";
    return json + ", \"name\": \"" + jsonEscape(e.name) +
           "\", \"op_count\": " + std::to_string(e.opCount) +
           ", \"branch_count\": " + std::to_string(e.branchCount) +
           ", \"bytes\": " + std::to_string(e.fileBytes) +
           ", \"crc32c\": " + std::to_string(e.totalCrc) +
           ", \"segments\": " + std::to_string(e.segmentCount) +
           ", \"fast_branch_scan\": " +
           (e.fastBranchScan ? "true" : "false") + "}";
}

/** Renames a damaged @p path aside, counts and reports it. */
void
quarantine(const std::string &path, const std::string &why,
           const obs::Counter &counter)
{
    const std::string target = path + kQuarantineSuffix;
    std::error_code ec;
    fs::remove(target, ec);  // a previous quarantine of the same name
    fs::rename(path, target, ec);
    counter.inc();
    std::fprintf(stderr, "tpred-corpus: quarantined %s (%s)%s\n",
                 path.c_str(), why.c_str(),
                 ec ? " [rename failed; file left in place]" : "");
}

} // namespace

const char *
corpusArtifactName(CorpusArtifact kind)
{
    return kindOf(kind).name;
}

CorpusManager::CorpusManager(std::string dir,
                             obs::MetricsRegistry *metrics)
    : dir_(std::move(dir)),
      owned_(metrics == nullptr
                 ? std::make_unique<obs::MetricsRegistry>()
                 : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_.get()),
      traces_{metrics_->counter("corpus.hits"),
              metrics_->counter("corpus.misses"),
              metrics_->counter("corpus.stores"),
              metrics_->counter("corpus.quarantined"),
              metrics_->counter("corpus.bytes_loaded"),
              metrics_->counter("corpus.bytes_stored")},
      streams_{metrics_->counter("stream_corpus.hits"),
               metrics_->counter("stream_corpus.misses"),
               metrics_->counter("stream_corpus.stores"),
               metrics_->counter("stream_corpus.quarantined"),
               metrics_->counter("stream_corpus.bytes_loaded"),
               metrics_->counter("stream_corpus.bytes_stored")},
      fsyncs_(metrics_->counter("corpus.fsyncs"))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw std::runtime_error("cannot create corpus directory " +
                                 dir_ + ": " + ec.message());
}

std::string
CorpusManager::fileName(const CorpusKey &key)
{
    return entryFileName(kindOf(CorpusArtifact::Plain), key, 0);
}

std::string
CorpusManager::segmentedFileName(const CorpusKey &key,
                                 size_t segment_ops)
{
    return entryFileName(kindOf(CorpusArtifact::Segmented), key,
                         segment_ops);
}

std::string
CorpusManager::streamFileName(const CorpusKey &key)
{
    return entryFileName(kindOf(CorpusArtifact::BranchStream), key, 0);
}

std::string
CorpusManager::pathFor(const CorpusKey &key) const
{
    return (fs::path(dir_) / fileName(key)).string();
}

std::string
CorpusManager::segmentedPathFor(const CorpusKey &key,
                                size_t segment_ops) const
{
    return (fs::path(dir_) / segmentedFileName(key, segment_ops))
        .string();
}

std::string
CorpusManager::streamPathFor(const CorpusKey &key) const
{
    return (fs::path(dir_) / streamFileName(key)).string();
}

template <typename Open>
auto
CorpusManager::loadFile(const std::string &path, const Tier &tier,
                        Open &&open) -> decltype(open().first)
{
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        tier.misses.inc();
        return nullptr;
    }
    try {
        auto [artifact, bytes] = open();
        tier.hits.inc();
        tier.bytesLoaded.inc(bytes);
        return artifact;
    } catch (const std::exception &e) {
        // Never trust a damaged file: set it aside and regenerate.
        quarantine(path, e.what(), tier.quarantined);
        tier.misses.inc();
        return nullptr;
    }
}

void
CorpusManager::recordStore(const Tier &tier, uint64_t bytes)
{
    fsyncs_.inc();
    tier.stores.inc();
    tier.bytesStored.inc(bytes);
    refreshManifest();
}

std::shared_ptr<const CompactTrace>
CorpusManager::load(const CorpusKey &key, std::string *name_out)
{
    const std::string path = pathFor(key);
    return loadFile(path, traces_, [&] {
        const auto mapping = MappedFile::open(path);
        std::string name;
        auto trace = std::make_shared<const CompactTrace>(
            openCompactContainer(mapping->bytes(), mapping, name, path));
        if (name_out != nullptr)
            *name_out = name;
        return std::make_pair(trace, uint64_t{mapping->size()});
    });
}

std::shared_ptr<const BranchStream>
CorpusManager::loadStream(const CorpusKey &key, std::string *name_out)
{
    // Streams are derived data: a damaged one is re-extracted.
    const std::string path = streamPathFor(key);
    return loadFile(path, streams_, [&] {
        const auto mapping = MappedFile::open(path);
        std::string name;
        auto stream = std::make_shared<const BranchStream>(
            openBranchStreamContainer(mapping->bytes(), mapping, name,
                                      path));
        if (name_out != nullptr)
            *name_out = name;
        return std::make_pair(stream, uint64_t{mapping->size()});
    });
}

std::shared_ptr<const SegmentedTrace>
CorpusManager::loadSegmented(const CorpusKey &key, size_t segment_ops)
{
    const std::string path = segmentedPathFor(key, segment_ops);
    return loadFile(path, traces_, [&] {
        auto trace = SegmentedTrace::open(path);
        // Full verification up front, one window at a time: a
        // defective segment must surface here, not mid-replay.
        trace->verifyAllSegments();
        return std::make_pair(trace, trace->fileBytes());
    });
}

void
CorpusManager::store(const CorpusKey &key, const CompactTrace &trace,
                     const std::string &name)
{
    const std::vector<uint8_t> image =
        serializeCompactTrace(trace, name);
    writeFileDurably(pathFor(key), image);
    recordStore(traces_, image.size());
}

void
CorpusManager::storeStream(const CorpusKey &key,
                           const BranchStream &stream,
                           const std::string &name)
{
    const std::vector<uint8_t> image =
        serializeBranchStream(stream, name);
    writeFileDurably(streamPathFor(key), image);
    recordStore(streams_, image.size());
}

void
CorpusManager::storeSegmentedFromSource(const CorpusKey &key,
                                        TraceSource &source,
                                        const std::string &name,
                                        size_t segment_ops)
{
    if (segment_ops == 0)
        throw std::invalid_argument("segment_ops must be positive");
    const std::string path = segmentedPathFor(key, segment_ops);
    SegmentedFileWriter writer(path, name);

    // Pull one segment's worth of ops at a time: nothing beyond the
    // chunk being encoded is ever resident.
    std::vector<MicroOp> chunk;
    chunk.reserve(std::min(segment_ops, key.ops));
    uint64_t pulled = 0;
    MicroOp op;
    while (pulled < key.ops && source.next(op)) {
        chunk.push_back(op);
        ++pulled;
        if (chunk.size() == segment_ops) {
            writer.addSegment(CompactTrace::encode(chunk));
            chunk.clear();
        }
    }
    if (!chunk.empty())
        writer.addSegment(CompactTrace::encode(chunk));
    writer.finish();

    std::error_code ec;
    recordStore(traces_, fs::file_size(path, ec));
}

std::vector<CorpusEntry>
CorpusManager::list(bool verify) const
{
    std::vector<CorpusEntry> entries;
    for (const auto &de : fs::directory_iterator(dir_)) {
        if (!de.is_regular_file())
            continue;
        if (const ArtifactKind *kind =
                kindOfFile(de.path().filename().string()))
            entries.push_back(inspectEntry(de.path(), *kind, verify));
    }
    std::sort(entries.begin(), entries.end(),
              [](const CorpusEntry &a, const CorpusEntry &b) {
                  return a.file < b.file;
              });
    return entries;
}

size_t
CorpusManager::gc(uint64_t max_bytes)
{
    size_t removed = 0;
    auto remove = [&](const fs::path &path, const std::string &why) {
        std::fprintf(stderr, "tpred-corpus: gc removing %s (%s)\n",
                     path.c_str(), why.c_str());
        std::error_code ec;
        if (fs::remove(path, ec))
            ++removed;
    };

    for (const auto &de : fs::directory_iterator(dir_)) {
        const std::string file = de.path().filename().string();
        if (de.is_regular_file() &&
            (file.ends_with(kQuarantineSuffix) ||
             file.find(DurableFile::kTempMarker) != std::string::npos)) {
            std::error_code ec;
            if (fs::remove(de.path(), ec))
                ++removed;
        }
    }

    struct Live
    {
        fs::path path;
        uint64_t bytes;
        fs::file_time_type mtime;
        std::string id;  ///< keyId(), "" when the name does not parse
    };
    std::vector<Live> traces;
    std::vector<Live> derived;
    uint64_t total = 0;
    for (const CorpusEntry &entry : list(true)) {
        const fs::path path = fs::path(dir_) / entry.file;
        if (!entry.ok) {
            remove(path, entry.error);
            continue;
        }
        const std::string id =
            entry.key.workload.empty() ? "" : keyId(entry.key);
        const Live live{path, entry.fileBytes, fs::last_write_time(path),
                        id};
        if (kindOf(entry.kind).derived) {
            derived.push_back(live);
        } else {
            traces.push_back(live);
            total += entry.fileBytes;
        }
    }

    if (max_bytes > 0 && total > max_bytes) {
        std::sort(traces.begin(), traces.end(),
                  [](const Live &a, const Live &b) {
                      return a.mtime < b.mtime;
                  });
        for (Live &entry : traces) {
            if (total <= max_bytes)
                break;
            std::error_code ec;
            if (fs::remove(entry.path, ec)) {
                total -= entry.bytes;
                ++removed;
                entry.id.clear();
            }
        }
    }

    // Derived entries live and die with their parent trace — plain
    // or segmented, same (workload, seed, ops) — including parents
    // evicted just above.
    std::set<std::string> parents;
    for (const Live &entry : traces)
        if (!entry.id.empty())
            parents.insert(entry.id);
    for (const Live &entry : derived)
        if (!parents.contains(entry.id))
            remove(entry.path, "orphaned: no trace entry of its key");

    refreshManifest();
    return removed;
}

std::string
CorpusManager::manifestPath() const
{
    return (fs::path(dir_) / "manifest.json").string();
}

void
CorpusManager::refreshManifest() const
{
    std::lock_guard<std::mutex> lock(manifestMutex_);

    // The manifest is derived state: rebuilt from the authoritative
    // file headers, so deleting it (or racing writers across
    // processes — last rename wins) loses nothing.
    std::string json = "{\n";
    json += "  \"format\": \"tpred-corpus-manifest\",\n";
    json += "  \"version\": 1,\n";
    json += "  \"generator\": \"" +
            jsonEscape(kGeneratorVersion) + "\",\n";
    json += "  \"container_version\": " +
            std::to_string(kCompactVersion) + ",\n";
    json += "  \"updated\": \"" + isoNow() + "\",\n";
    json += "  \"entries\": [";
    bool first = true;
    for (const CorpusEntry &entry : list(false)) {
        json += (first ? "\n    " : ",\n    ") + manifestEntry(entry);
        first = false;
    }
    json += "\n  ]\n}\n";

    try {
        writeFileDurably(manifestPath(),
                         std::span<const uint8_t>(
                             reinterpret_cast<const uint8_t *>(
                                 json.data()),
                             json.size()));
        fsyncs_.inc();
    } catch (const std::exception &e) {
        // Advisory metadata only — never fail an experiment over it.
        std::fprintf(stderr,
                     "tpred-corpus: manifest refresh failed: %s\n",
                     e.what());
    }
}

} // namespace tpred
