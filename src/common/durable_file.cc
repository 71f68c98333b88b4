#include "common/durable_file.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace tpred
{

namespace
{

[[noreturn]] void
fail(const std::string &what, const std::string &path, int err)
{
    throw std::runtime_error(what + " " + path + ": " +
                             std::strerror(err));
}

} // namespace

DurableFile::DurableFile(std::string path)
    : path_(std::move(path)),
      tempPath_(path_ + kTempMarker + std::to_string(::getpid()))
{
    fd_ = ::open(tempPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0)
        fail("cannot create", tempPath_, errno);
}

DurableFile::~DurableFile()
{
    if (fd_ >= 0) {
        ::close(fd_);
        ::unlink(tempPath_.c_str());
    }
}

void
DurableFile::write(uint64_t offset, std::span<const uint8_t> bytes)
{
    if (fd_ < 0)
        throw std::logic_error(path_ + ": write after commit");
    while (!bytes.empty()) {
        const ssize_t n = ::pwrite(fd_, bytes.data(), bytes.size(),
                                   static_cast<off_t>(offset));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fail("write to", tempPath_, errno);
        }
        bytes = bytes.subspan(static_cast<size_t>(n));
        offset += static_cast<uint64_t>(n);
    }
}

void
DurableFile::append(std::span<const uint8_t> bytes)
{
    write(size_, bytes);
    size_ += bytes.size();
}

void
DurableFile::writeAt(uint64_t offset, std::span<const uint8_t> bytes)
{
    if (offset + bytes.size() > size_)
        throw std::logic_error(path_ + ": writeAt past the end");
    write(offset, bytes);
}

void
DurableFile::commit()
{
    if (fd_ < 0)
        throw std::logic_error(path_ + ": committed twice");
    // The rename is only atomic-durable if the data reached the disk
    // first.
    int err = ::fsync(fd_) == 0 ? 0 : errno;
    if (::close(fd_) != 0 && err == 0)
        err = errno;
    fd_ = -1;
    if (err != 0) {
        ::unlink(tempPath_.c_str());
        fail("fsync of", tempPath_, err);
    }
    if (std::rename(tempPath_.c_str(), path_.c_str()) != 0) {
        const int err = errno;
        ::unlink(tempPath_.c_str());
        fail("rename to", path_, err);
    }
}

void
writeFileDurably(const std::string &path, std::span<const uint8_t> bytes)
{
    DurableFile file(path);
    file.append(bytes);
    file.commit();
}

} // namespace tpred
