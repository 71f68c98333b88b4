#include "corpus/mapped_file.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace tpred
{

namespace
{

[[noreturn]] void
fail(const std::string &path, const char *what)
{
    throw std::runtime_error("cannot map " + path + ": " +
                             std::string(what) + ": " +
                             std::strerror(errno));
}

} // namespace

std::shared_ptr<MappedFile>
MappedFile::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path, "open");

    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        fail(path, "fstat");
    }
    const size_t size = static_cast<size_t>(st.st_size);

    void *base = nullptr;
    if (size > 0) {
        base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (base == MAP_FAILED) {
            const int saved = errno;
            ::close(fd);
            errno = saved;
            fail(path, "mmap");
        }
    }
    ::close(fd);

    return std::shared_ptr<MappedFile>(
        new MappedFile(base, size, 0, size, path));
}

std::shared_ptr<MappedFile>
MappedFile::openRange(const std::string &path, uint64_t offset,
                      size_t length)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path, "open");

    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        fail(path, "fstat");
    }
    const uint64_t file_size = static_cast<uint64_t>(st.st_size);
    if (offset > file_size || length > file_size - offset) {
        ::close(fd);
        throw std::runtime_error(
            "cannot map " + path + ": window [" +
            std::to_string(offset) + ", " +
            std::to_string(offset + length) + ") exceeds file size " +
            std::to_string(file_size));
    }

    // mmap offsets must be page-aligned; round down and remember the
    // slack so bytes() still starts at the byte the caller asked for.
    const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    const uint64_t map_offset = offset & ~(page - 1);
    const size_t adjust = static_cast<size_t>(offset - map_offset);
    const size_t map_size = length + adjust;

    void *base = nullptr;
    if (map_size > 0) {
        base = ::mmap(nullptr, map_size, PROT_READ, MAP_PRIVATE, fd,
                      static_cast<off_t>(map_offset));
        if (base == MAP_FAILED) {
            const int saved = errno;
            ::close(fd);
            errno = saved;
            fail(path, "mmap");
        }
    }
    ::close(fd);

    return std::shared_ptr<MappedFile>(
        new MappedFile(base, map_size, adjust, length, path));
}

MappedFile::~MappedFile()
{
    if (base_ != nullptr)
        ::munmap(base_, mapSize_);
}

} // namespace tpred
