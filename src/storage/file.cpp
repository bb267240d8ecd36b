#include "storage/file.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace dlt::storage {

namespace {

[[noreturn]] void throw_errno(const std::string& what,
                              const std::filesystem::path& path) {
    throw StorageError(what + " " + path.string() + ": " + std::strerror(errno));
}

// fsync `fd` and count it; every sync in the storage layer funnels here.
// Returns false with errno set on failure.
bool fsync_counted(int fd) {
    static obs::Counter& fsyncs = obs::MetricsRegistry::global().counter(
        "storage_fsyncs_total", "fsync calls on storage files and directories");
    fsyncs.inc();
    return ::fsync(fd) == 0;
}

} // namespace

// --- AppendFile --------------------------------------------------------------------

AppendFile::AppendFile(const std::filesystem::path& path, CrashInjector* injector)
    : path_(path), injector_(injector) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) throw_errno("open for append", path);
    struct stat st{};
    if (::fstat(fd_, &st) != 0) throw_errno("fstat", path);
    size_ = static_cast<std::uint64_t>(st.st_size);
}

AppendFile::~AppendFile() {
    if (fd_ >= 0) ::close(fd_);
}

void AppendFile::append(ByteView data) {
    std::uint64_t allowed = data.size();
    bool crash = false;
    if (injector_ != nullptr) {
        allowed = injector_->admit(data.size());
        crash = allowed < data.size();
    }
    std::size_t written = 0;
    while (written < allowed) {
        const ssize_t n = ::write(fd_, data.data() + written,
                                  static_cast<std::size_t>(allowed) - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("write", path_);
        }
        written += static_cast<std::size_t>(n);
    }
    size_ += written;
    if (crash)
        throw CrashError("simulated crash: write to " + path_.string() +
                         " torn after " + std::to_string(written) + "/" +
                         std::to_string(data.size()) + " bytes");
}

void AppendFile::sync() {
    if (!fsync_counted(fd_)) throw_errno("fsync", path_);
}

void AppendFile::truncate(std::uint64_t new_size) {
    if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0)
        throw_errno("ftruncate", path_);
    size_ = new_size;
}

// --- RandomAccessFile --------------------------------------------------------------

RandomAccessFile::RandomAccessFile(const std::filesystem::path& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) throw_errno("open for read", path);
}

RandomAccessFile::~RandomAccessFile() {
    if (fd_ >= 0) ::close(fd_);
}

Bytes RandomAccessFile::read_at(std::uint64_t offset, std::size_t length) const {
    Bytes out(length);
    std::size_t got = 0;
    while (got < length) {
        const ssize_t n = ::pread(fd_, out.data() + got, length - got,
                                  static_cast<off_t>(offset + got));
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("pread", path_);
        }
        if (n == 0) break; // end of file
        got += static_cast<std::size_t>(n);
    }
    out.resize(got);
    return out;
}

std::uint64_t RandomAccessFile::size() const {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) throw_errno("fstat", path_);
    return static_cast<std::uint64_t>(st.st_size);
}

// --- Whole-file helpers ------------------------------------------------------------

Bytes read_file(const std::filesystem::path& path) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return {};
    const RandomAccessFile file(path);
    const std::uint64_t size = file.size();
    return file.read_at(0, static_cast<std::size_t>(size));
}

void write_file_atomic(const std::filesystem::path& path, ByteView data) {
    const std::filesystem::path tmp = path.string() + ".tmp";
    {
        const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0) throw_errno("open for atomic write", tmp);
        std::size_t written = 0;
        while (written < data.size()) {
            const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
            if (n < 0) {
                if (errno == EINTR) continue;
                ::close(fd);
                throw_errno("write", tmp);
            }
            written += static_cast<std::size_t>(n);
        }
        if (!fsync_counted(fd)) {
            ::close(fd);
            throw_errno("fsync", tmp);
        }
        ::close(fd);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        throw StorageError("rename " + tmp.string() + " -> " + path.string() + ": " +
                           ec.message());
    sync_dir(path.parent_path());
}

void sync_dir(const std::filesystem::path& dir) {
    const std::filesystem::path target = dir.empty() ? "." : dir;
    const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) throw_errno("open directory", target);
    const bool synced = fsync_counted(fd);
    ::close(fd);
    if (!synced) throw_errno("fsync", target);
}

} // namespace dlt::storage
