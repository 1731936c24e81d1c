#include "util/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "util/check.hpp"

namespace bat {

namespace {

#ifdef IOV_MAX
constexpr std::size_t kMaxIov = IOV_MAX;
#else
constexpr std::size_t kMaxIov = 1024;  // POSIX minimum is 16; Linux allows 1024
#endif

}  // namespace

MappedFile::MappedFile(const std::filesystem::path& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    BAT_CHECK_MSG(fd >= 0, "open(" << path << ") failed: " << std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        BAT_FAIL("fstat(" << path << ") failed: " << std::strerror(errno));
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ == 0) {
        ::close(fd);
        data_ = nullptr;
        return;
    }
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    BAT_CHECK_MSG(p != MAP_FAILED, "mmap(" << path << ") failed: " << std::strerror(errno));
    data_ = p;
}

MappedFile::~MappedFile() { close(); }

MappedFile::MappedFile(MappedFile&& other) noexcept : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
    if (this != &other) {
        close();
        data_ = other.data_;
        size_ = other.size_;
        other.data_ = nullptr;
        other.size_ = 0;
    }
    return *this;
}

void MappedFile::close() {
    if (data_ != nullptr) {
        ::munmap(data_, size_);
        data_ = nullptr;
        size_ = 0;
    }
}

void write_file_gather(const std::filesystem::path& path,
                       std::span<const std::span<const std::byte>> segments) {
    // generic_category().message is strerror's text without its shared buffer.
    auto reason = [](int err) { return std::generic_category().message(err); };
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0) {
        const int err = errno;
        BAT_FAIL("open(" << path << ") for writing failed: " << reason(err));
    }
    std::array<iovec, kMaxIov> iov;
    std::size_t next = 0;  // first segment not yet fully written
    std::size_t done = 0;  // bytes of segments[next] already written
    for (;;) {
        while (next < segments.size() && done == segments[next].size()) {
            ++next;
            done = 0;
        }
        if (next == segments.size()) {
            break;
        }
        std::size_t count = 0;
        for (std::size_t s = next; s < segments.size() && count < iov.size(); ++s) {
            const std::size_t skip = s == next ? done : 0;
            iov[count].iov_base = const_cast<std::byte*>(segments[s].data() + skip);
            iov[count].iov_len = segments[s].size() - skip;
            ++count;
        }
        const ssize_t written = ::writev(fd, iov.data(), static_cast<int>(count));
        if (written < 0 && errno == EINTR) {
            continue;
        }
        if (written <= 0) {
            const int err = written == 0 ? EIO : errno;  // 0: no progress on a non-empty request
            ::close(fd);
            BAT_FAIL("write to " << path << " failed: " << reason(err));
        }
        // Consume `written` bytes; a partial write resumes mid-segment.
        for (auto left = static_cast<std::size_t>(written); left > 0;) {
            const std::size_t step = std::min(left, segments[next].size() - done);
            done += step;
            left -= step;
            if (done == segments[next].size()) {
                ++next;
                done = 0;
            }
        }
    }
    if (::close(fd) != 0 && errno != EINTR) {
        const int err = errno;
        BAT_FAIL("close of " << path << " failed: " << reason(err));
    }
}

void write_file(const std::filesystem::path& path, std::span<const std::byte> bytes) {
    write_file_gather(path, std::span(&bytes, 1));
}

std::vector<std::byte> read_file(const std::filesystem::path& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    BAT_CHECK_MSG(f != nullptr, "fopen(" << path << ") failed: " << std::strerror(errno));
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::byte> out(static_cast<std::size_t>(size));
    std::size_t got = 0;
    if (size > 0) {
        got = std::fread(out.data(), 1, out.size(), f);
    }
    std::fclose(f);
    BAT_CHECK_MSG(got == out.size(), "short read from " << path);
    return out;
}

}  // namespace bat
