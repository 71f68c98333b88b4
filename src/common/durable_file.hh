/**
 * @file
 * Durable, atomic file publication: the one way the trace store
 * writes a file (corpus entries, segmented containers, the manifest).
 *
 * Bytes go to a temporary "<path>.tmp<pid>" next to the target;
 * commit() fsyncs it and renames it onto the target, so a reader sees
 * either the previous file or the complete new one — never a prefix,
 * even across a crash.  A DurableFile destroyed before commit()
 * removes its temporary.
 */

#ifndef TPRED_COMMON_DURABLE_FILE_HH
#define TPRED_COMMON_DURABLE_FILE_HH

#include <cstdint>
#include <span>
#include <string>

namespace tpred
{

class DurableFile
{
  public:
    /** Marks temporaries in a file name (corpus gc collects them). */
    static constexpr const char *kTempMarker = ".tmp";

    /**
     * Creates the temporary for @p path.
     * @throws std::runtime_error (naming the file) on failure, as do
     *         all the members below.
     */
    explicit DurableFile(std::string path);
    ~DurableFile();

    DurableFile(const DurableFile &) = delete;
    DurableFile &operator=(const DurableFile &) = delete;

    /** Appends @p bytes at the end of what was written so far. */
    void append(std::span<const uint8_t> bytes);

    /** Overwrites already-written bytes at @p offset. */
    void writeAt(uint64_t offset, std::span<const uint8_t> bytes);

    /** Bytes written so far. */
    uint64_t size() const { return size_; }

    /** fsyncs and atomically renames the file into place. */
    void commit();

  private:
    void write(uint64_t offset, std::span<const uint8_t> bytes);

    std::string path_;
    std::string tempPath_;
    int fd_ = -1;
    uint64_t size_ = 0;
};

/** Publishes @p bytes as the file @p path through a DurableFile. */
void writeFileDurably(const std::string &path,
                      std::span<const uint8_t> bytes);

} // namespace tpred

#endif // TPRED_COMMON_DURABLE_FILE_HH
