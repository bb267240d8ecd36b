// Low-level file primitives for the persistency layer: an append-only writer
// with explicit fsync-point control, a positional reader, durable renames, and
// the CrashInjector fault hook the crash-recovery tests use to kill a node at
// an arbitrary byte offset (including mid-record, producing torn writes exactly
// like a power cut would). Every fsync these primitives make (file or
// directory) counts in the `storage_fsyncs_total` registry counter.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace dlt::storage {

enum class FsyncMode : std::uint8_t {
    kAlways = 0, // fsync at every commit point (durable, slower)
    kNever = 1,  // rely on OS writeback (fast, loses the tail on power cut)
};

/// Thrown when a CrashInjector trips: the process is considered dead from the
/// storage layer's point of view. Distinct from StorageError so tests can tell
/// a simulated crash apart from a real I/O failure.
class CrashError : public StorageError {
public:
    using StorageError::StorageError;
};

/// Fault-injection hook shared by every write path of one node. Once armed
/// with a byte budget, the injector lets exactly `budget` more bytes reach the
/// file system; the write that would exceed it is truncated to the budget (a
/// torn write) and CrashError is thrown. Every subsequent write also throws,
/// so a "crashed" node cannot accidentally keep making progress.
class CrashInjector {
public:
    /// Crash after `budget_bytes` more bytes have been written (0 = the very
    /// next write dies without touching the file).
    void arm(std::uint64_t budget_bytes) {
        budget_ = budget_bytes;
        armed_ = true;
        crashed_ = false;
    }

    bool crashed() const { return crashed_; }
    std::uint64_t total_written() const { return written_; }

    /// Cumulative stream offsets at which a write completed intact — one per
    /// record append (WAL, undo, block, run), i.e. every record boundary in the
    /// combined write stream. The crash matrix aims byte budgets at exactly
    /// these offsets instead of sampling blindly.
    const std::vector<std::uint64_t>& write_boundaries() const { return boundaries_; }

    /// Called by AppendFile before writing `want` bytes: returns how many may
    /// actually be written. Sets the crashed flag when the budget is exceeded;
    /// the caller writes the admitted prefix and then raises CrashError.
    std::uint64_t admit(std::uint64_t want) {
        if (crashed_) return 0;
        if (!armed_) {
            written_ += want;
            boundaries_.push_back(written_);
            return want;
        }
        if (want <= budget_) {
            budget_ -= want;
            written_ += want;
            boundaries_.push_back(written_);
            return want;
        }
        const std::uint64_t allowed = budget_;
        budget_ = 0;
        written_ += allowed;
        crashed_ = true;
        return allowed;
    }

private:
    bool armed_ = false;
    bool crashed_ = false;
    std::uint64_t budget_ = 0;
    std::uint64_t written_ = 0;
    std::vector<std::uint64_t> boundaries_;
};

/// Append-only file handle (creates the file when absent). All writes funnel
/// through the optional CrashInjector; sync() is a real fsync so the WAL can
/// define durable commit points.
class AppendFile {
public:
    AppendFile(const std::filesystem::path& path, CrashInjector* injector = nullptr);
    ~AppendFile();

    AppendFile(const AppendFile&) = delete;
    AppendFile& operator=(const AppendFile&) = delete;

    /// Append `data` at the end of the file. Throws CrashError (after writing
    /// the admitted prefix) when the injector trips, StorageError on real I/O
    /// failure.
    void append(ByteView data);

    /// Flush OS buffers to stable storage (fsync). No-op on an empty budget of
    /// pending data is fine — call it at commit points.
    void sync();

    /// Current file size in bytes (logical end of the log).
    std::uint64_t size() const { return size_; }

    /// Cut the file back to `new_size` bytes (torn-tail repair, WAL reset).
    void truncate(std::uint64_t new_size);

    const std::filesystem::path& path() const { return path_; }

private:
    std::filesystem::path path_;
    CrashInjector* injector_ = nullptr;
    int fd_ = -1;
    std::uint64_t size_ = 0;
};

/// Positional reader (pread-style): stateless reads at absolute offsets, used
/// by the BlockStore to serve random block lookups without a seek cursor.
class RandomAccessFile {
public:
    explicit RandomAccessFile(const std::filesystem::path& path);
    ~RandomAccessFile();

    RandomAccessFile(const RandomAccessFile&) = delete;
    RandomAccessFile& operator=(const RandomAccessFile&) = delete;

    /// Read up to `length` bytes at `offset`; returns the bytes actually read
    /// (shorter at end-of-file).
    Bytes read_at(std::uint64_t offset, std::size_t length) const;

    std::uint64_t size() const;

private:
    std::filesystem::path path_;
    int fd_ = -1;
};

/// Whole-file read; returns an empty buffer when the file does not exist.
Bytes read_file(const std::filesystem::path& path);

/// Atomic whole-file write: write to `<path>.tmp`, fsync, rename over `path`,
/// fsync the directory. Readers never observe a half-written file, and the
/// rename survives a power cut.
void write_file_atomic(const std::filesystem::path& path, ByteView data);

/// fsync a directory, making the renames and creations inside it durable.
/// Call after renaming a synced file into place and before any step that
/// relies on the rename (truncating the log it replaces, unlinking inputs).
void sync_dir(const std::filesystem::path& dir);

/// A fresh directory `dlt-<tag>-XXXXXX` under temp_directory_path(), made by
/// mkdtemp so runs at once never share one, and removed with its contents on
/// destruction. Throws StorageError when it cannot be made.
struct TempDir {
    explicit TempDir(const std::string& tag);
    ~TempDir();
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::filesystem::path path;
};

} // namespace dlt::storage
