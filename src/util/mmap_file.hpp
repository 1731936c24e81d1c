#pragma once
// Memory-mapped read access to BAT files. The on-disk layout (4 KB-aligned
// treelets, paper Fig 2) is designed so visualization reads can mmap the
// file and let the OS page cache serve frequently-accessed regions
// (paper §V). Also provides whole-file read and (gather) write helpers.

#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace bat {

/// RAII read-only memory mapping of a whole file.
class MappedFile {
public:
    MappedFile() = default;
    explicit MappedFile(const std::filesystem::path& path);
    ~MappedFile();

    MappedFile(MappedFile&& other) noexcept;
    MappedFile& operator=(MappedFile&& other) noexcept;
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;

    bool valid() const { return data_ != nullptr; }
    std::size_t size() const { return size_; }
    std::span<const std::byte> bytes() const {
        return {static_cast<const std::byte*>(data_), size_};
    }

private:
    void close();
    void* data_ = nullptr;
    std::size_t size_ = 0;
};

/// Create or truncate `path` (mode 0666 & ~umask, as fopen) and write the
/// concatenation of `segments` with writev, IOV_MAX ranges per call,
/// resuming after partial writes and EINTR. Throws bat::Error naming the
/// path and the system error on failure.
void write_file_gather(const std::filesystem::path& path,
                       std::span<const std::span<const std::byte>> segments);

/// Write `bytes` to `path` (truncate + write; see write_file_gather).
void write_file(const std::filesystem::path& path, std::span<const std::byte> bytes);

/// Read an entire file into memory. Throws bat::Error on failure.
std::vector<std::byte> read_file(const std::filesystem::path& path);

}  // namespace bat
