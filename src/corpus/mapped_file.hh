/**
 * @file
 * Read-only memory-mapped file, the zero-copy substrate of the
 * persistent trace corpus: a corpus container is mapped once and the
 * CompactTrace column spans point straight into the mapping, so
 * replay decodes out of the page cache with no deserialization pass
 * and no heap copy of the trace data.
 */

#ifndef TPRED_CORPUS_MAPPED_FILE_HH
#define TPRED_CORPUS_MAPPED_FILE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace tpred
{

/**
 * RAII read-only mapping of a whole file.  Created via open() as a
 * shared_ptr so a CompactTrace can hold it as its backing handle;
 * the mapping lives exactly as long as the last view of it.
 */
class MappedFile
{
  public:
    /**
     * Maps @p path read-only.
     * @throws std::runtime_error (message names the path) on any
     *         open/stat/mmap failure.
     */
    static std::shared_ptr<MappedFile> open(const std::string &path);

    /**
     * Maps only @p length bytes starting at @p offset — the windowed
     * view used by segmented streaming replay, where one segment at a
     * time is resident instead of the whole container.  @p offset is
     * page-aligned down internally; bytes() returns exactly the
     * requested [offset, offset + length) range.
     * @throws std::runtime_error when the range exceeds the file or
     *         any open/stat/mmap step fails.
     */
    static std::shared_ptr<MappedFile>
    openRange(const std::string &path, uint64_t offset, size_t length);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** The mapped bytes (empty span for a zero-length file/window). */
    std::span<const uint8_t> bytes() const
    {
        return {static_cast<const uint8_t *>(base_) + viewOffset_,
                size_};
    }

    size_t size() const { return size_; }
    const std::string &path() const { return path_; }

  private:
    MappedFile(void *base, size_t map_size, size_t view_offset,
               size_t view_size, std::string path)
        : base_(base), mapSize_(map_size), viewOffset_(view_offset),
          size_(view_size), path_(std::move(path))
    {
    }

    void *base_ = nullptr;   ///< page-aligned mapping base
    size_t mapSize_ = 0;     ///< bytes actually mapped (munmap length)
    size_t viewOffset_ = 0;  ///< bytes() start relative to base_
    size_t size_ = 0;        ///< bytes() length
    std::string path_;
};

} // namespace tpred

#endif // TPRED_CORPUS_MAPPED_FILE_HH
