/**
 * @file
 * Persistent trace corpus: an on-disk store of CompactTrace
 * containers, shared by every process that replays traces.
 *
 * The paper's methodology is trace-driven — SPECint95 streams were
 * captured once and replayed across every predictor configuration.
 * The in-process TraceCache gives one process that amortization;
 * CorpusManager extends it across processes and runs: traces are
 * written once (temp file + atomic rename, CRC32C-checked sections),
 * then every later tpredsim/bench/test invocation maps them back
 * zero-copy instead of regenerating the workload.
 *
 * Robust degradation is a design rule: a truncated, bit-flipped or
 * version-skewed file is never trusted — load() quarantines it
 * (renames to *.quarantined, warns on stderr) and reports a miss so
 * the caller regenerates.  A corpus can therefore never poison an
 * experiment; at worst it stops helping.
 *
 * A human-auditable manifest.json records provenance (generator
 * version, per-file checksums, encoding stats); it is regenerated
 * from the authoritative file headers on every mutation, so it can
 * be deleted at any time.  tools/tpredcorpus wraps this class in a
 * build/verify/ls/gc CLI.
 */

#ifndef TPRED_CORPUS_CORPUS_HH
#define TPRED_CORPUS_CORPUS_HH

#include <compare>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "trace/compact_trace.hh"

namespace tpred
{

class SegmentedTrace;
class TraceSource;

/** Identity of one corpus entry: what would have been generated. */
struct CorpusKey
{
    std::string workload;
    uint64_t seed = 1;
    size_t ops = 0;

    auto operator<=>(const CorpusKey &) const = default;
};

/** Artifact kind of one corpus file. */
enum class CorpusArtifact
{
    Plain,        ///< monolithic TPCC trace container (.tpct)
    Segmented,    ///< chunked TPCS trace container (.tpcs)
    BranchStream, ///< derived TPBS branch-stream container (.tpbs)
};

/** Human-readable name of @p kind ("plain" / "segmented" / ...). */
const char *corpusArtifactName(CorpusArtifact kind);

/** One corpus file as seen by ls/verify tooling and the manifest. */
struct CorpusEntry
{
    std::string file;      ///< basename within the corpus dir
    std::string name;      ///< recorded stream name ("" if unreadable)
    CorpusKey key;         ///< parsed from the filename ("" workload
                           ///< when the name does not parse)
    uint64_t segmentOps = 0;   ///< from the filename; 0 unless segmented
    CorpusArtifact kind = CorpusArtifact::Plain;
    uint64_t opCount = 0;
    uint64_t branchCount = 0;
    uint64_t fileBytes = 0;
    uint64_t segmentCount = 0; ///< 0 for plain (unsegmented) entries
    uint32_t totalCrc = 0;     ///< the footer's CRC32C
    bool fastBranchScan = false;
    bool ok = false;
    std::string error;     ///< why !ok
};

/**
 * Manages one corpus directory.  All methods are safe to call from
 * multiple threads; distinct processes coordinate through atomic
 * renames only (no lock files), which POSIX makes safe for the
 * write-once content involved.
 */
class CorpusManager
{
  public:
    /** Recorded in the manifest as the writing software version. */
    static constexpr const char *kGeneratorVersion = "tpred-corpus/1";

    /**
     * Opens (creating if needed) the corpus at @p dir.
     * @param metrics Registry the "corpus.*" counters report into;
     *        nullptr gives this manager a private registry (so tests
     *        see per-instance counts).  Production corpora attached
     *        to the global trace cache use &obs::globalMetrics() so
     *        run reports include them.
     * @throws std::runtime_error when the directory cannot be created.
     */
    explicit CorpusManager(std::string dir,
                           obs::MetricsRegistry *metrics = nullptr);

    const std::string &dir() const { return dir_; }

    /** Registry holding this manager's "corpus.*" counters. */
    obs::MetricsRegistry &metricsRegistry() const { return *metrics_; }

    /** Basename a key stores under (embeds the container version). */
    static std::string fileName(const CorpusKey &key);

    /** Absolute path for @p key inside this corpus. */
    std::string pathFor(const CorpusKey &key) const;

    /**
     * Maps and validates the entry for @p key.
     * @param name_out Optional; receives the recorded stream name.
     * @return The zero-copy trace (holding its mapping), or nullptr
     *         when absent or quarantined — the caller regenerates.
     */
    std::shared_ptr<const CompactTrace> load(const CorpusKey &key,
                                             std::string *name_out =
                                                 nullptr);

    /**
     * Persists @p trace for @p key: serialize, write a temp file,
     * fsync, atomically rename into place, refresh the manifest.
     * @throws std::runtime_error on I/O failure (nothing partial is
     *         ever visible under the final name).
     */
    void store(const CorpusKey &key, const CompactTrace &trace,
               const std::string &name);

    /**
     * Scans the corpus directory.
     * @param verify Full checksum verification per file (true) or
     *        structural header validation only (false).
     */
    std::vector<CorpusEntry> list(bool verify) const;

    /**
     * Deletes quarantined files, stale temp files and entries that
     * fail full verification; then, if @p max_bytes > 0, evicts the
     * oldest trace entries (by modification time) until the corpus
     * fits; finally removes orphaned branch-stream containers whose
     * parent trace (plain or segmented, same key) is gone.  Stream
     * containers are derived data and do not count against
     * @p max_bytes — they live and die with their parent trace.
     * @return Number of files removed.
     */
    size_t gc(uint64_t max_bytes = 0);

    /**
     * Basename a key's *segmented* container stores under (embeds the
     * segment granularity and container version; distinct ".tpcs"
     * suffix so plain-container scans skip it).
     */
    static std::string segmentedFileName(const CorpusKey &key,
                                         size_t segment_ops);

    /** Absolute path for @p key's segmented container. */
    std::string segmentedPathFor(const CorpusKey &key,
                                 size_t segment_ops) const;

    /**
     * Opens the segmented entry for @p key and fully verifies every
     * segment up front — one window at a time, so peak memory is
     * O(segment size) no matter how long the trace is.
     * @return The validated envelope (segments are re-mapped on
     *         demand), or nullptr when absent or quarantined.
     */
    std::shared_ptr<const SegmentedTrace>
    loadSegmented(const CorpusKey &key, size_t segment_ops);

    /**
     * Streaming store: pulls key.ops ops from @p source one segment's
     * worth at a time, encoding and writing each before pulling the
     * next — peak memory O(segment_ops), which is what makes building
     * a 10^8..10^9-op corpus entry feasible at flat RSS.
     */
    void storeSegmentedFromSource(const CorpusKey &key,
                                  TraceSource &source,
                                  const std::string &name,
                                  size_t segment_ops);

    /**
     * Basename a key's *branch-stream* container stores under
     * (embeds the TPBS version; distinct ".tpbs" suffix so trace
     * scans skip it).  The stream is derived data: it always sits
     * alongside a plain or segmented trace entry for the same key,
     * and gc() collects it once that parent is gone.
     */
    static std::string streamFileName(const CorpusKey &key);

    /** Absolute path for @p key's branch-stream container. */
    std::string streamPathFor(const CorpusKey &key) const;

    /**
     * Maps and validates the branch-stream entry for @p key.
     * Reported under the "stream_corpus.*" counters, separate from
     * the trace tier.
     * @return The zero-copy stream (holding its mapping), or nullptr
     *         when absent or quarantined — the caller re-extracts
     *         from the trace.
     */
    std::shared_ptr<const BranchStream>
    loadStream(const CorpusKey &key, std::string *name_out = nullptr);

    /**
     * Persists @p stream for @p key (temp file + fsync + atomic
     * rename, as store()).
     */
    void storeStream(const CorpusKey &key, const BranchStream &stream,
                     const std::string &name);

    std::string manifestPath() const;

    /** Regenerates manifest.json from the file headers on disk. */
    void refreshManifest() const;

  private:
    /// One tier's counters: the traces ("corpus.*") or the derived
    /// branch streams ("stream_corpus.*").
    struct Tier
    {
        obs::Counter hits;
        obs::Counter misses;
        obs::Counter stores;
        obs::Counter quarantined;
        obs::Counter bytesLoaded;
        obs::Counter bytesStored;
    };

    /**
     * The one load path: @p open maps and verifies @p path and
     * returns the artifact with its size in bytes; a failure
     * quarantines the file.  Counts into @p tier.
     */
    template <typename Open>
    auto loadFile(const std::string &path, const Tier &tier,
                  Open &&open) -> decltype(open().first);

    /** Counts a committed store of @p bytes, refreshes the manifest. */
    void recordStore(const Tier &tier, uint64_t bytes);

    std::string dir_;
    mutable std::mutex manifestMutex_;

    std::unique_ptr<obs::MetricsRegistry> owned_;  ///< when unshared
    obs::MetricsRegistry *metrics_;
    Tier traces_;
    // Branch-stream tier, separate from the trace counters so
    // warm-run reports show which tier served.
    Tier streams_;
    obs::Counter fsyncs_;
};

} // namespace tpred

#endif // TPRED_CORPUS_CORPUS_HH
