// Write-ahead log. Append-only sequence of CRC-framed records, each carrying a
// monotonically increasing sequence number (LSN). A record is committed once
// append() + sync() return; on open the log replays the valid prefix and
// truncates any torn tail (a crash mid-write), so the committed prefix is
// exactly what survives a crash at any byte offset. The recovered records are
// handed over once (take_records), so the journal does not stay resident for
// the life of the process.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "storage/file.hpp"

namespace dlt::storage {

struct WalRecord {
    std::uint64_t seq = 0;
    std::uint8_t type = 0;
    Bytes payload;
};

struct WalOptions {
    CrashInjector* injector = nullptr;
    FsyncMode fsync = FsyncMode::kAlways;
};

class Wal {
public:
    struct OpenStats {
        std::uint64_t records_recovered = 0;
        std::uint64_t truncated_bytes = 0; // torn tail repaired on open
    };

    /// Open (or create) the log at `path`, reading existing records into
    /// memory and repairing any torn tail.
    explicit Wal(const std::filesystem::path& path, WalOptions options = {});

    /// Hand over the records recovered by the constructor, in commit order.
    /// Later calls return nothing: the caller replays them once and the log
    /// keeps no copy.
    std::vector<WalRecord> take_records() { return std::exchange(records_, {}); }
    const OpenStats& open_stats() const { return open_stats_; }

    /// Append a record and make it durable per the fsync policy. Returns the
    /// record's sequence number. Throws CrashError when the injector trips —
    /// the partially written frame is exactly what the torn-tail repair
    /// discards on the next open.
    std::uint64_t append(std::uint8_t type, ByteView payload);

    /// Truncate the log to empty (after a snapshot makes its contents
    /// redundant). Sequence numbers keep increasing across resets so stale
    /// records can never be mistaken for new ones.
    void reset();

    /// Raise the next sequence number to at least `seq`. Callers that learn a
    /// sequence floor from elsewhere (a snapshot's covered-seq after the WAL
    /// was reset) must apply it before appending, or fresh records could be
    /// mistaken for already-covered ones.
    void ensure_next_seq_at_least(std::uint64_t seq) {
        if (seq > next_seq_) next_seq_ = seq;
    }

    std::uint64_t last_seq() const { return next_seq_ - 1; }
    std::uint64_t size_bytes() const { return file_->size(); }

private:
    std::unique_ptr<AppendFile> file_;
    FsyncMode fsync_mode_;
    std::uint64_t next_seq_ = 1;
    std::vector<WalRecord> records_;
    OpenStats open_stats_;
};

} // namespace dlt::storage
