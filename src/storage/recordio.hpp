// Shared on-disk record framing for the append-only files of the storage
// layer (WAL, block file, run files). Every record is
//
//   [u32 magic][u32 length][u32 crc32c(payload)][payload bytes]
//
// little-endian, with a per-file magic so a stray file cannot be replayed as
// the wrong log. scan() walks a file image record by record and stops at the
// first torn or corrupt frame, reporting the byte offset where the valid
// prefix ends — the open path truncates the file there (crash repair).
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"

namespace dlt::storage {

inline constexpr std::size_t kRecordHeaderSize = 12;

/// Frame one record (header + payload) into `out`.
Bytes frame_record(std::uint32_t magic, ByteView payload);

struct ScanResult {
    std::uint64_t records = 0;       // valid records seen
    std::uint64_t valid_end = 0;     // file offset where the valid prefix ends
    std::uint64_t truncated = 0;     // bytes past valid_end (torn/corrupt tail)
};

/// Walk `file` (a full in-memory image), invoking `on_record(offset, payload)`
/// for every intact record. Stops at the first frame whose header is
/// incomplete, whose length overruns the file, whose magic differs, or whose
/// CRC fails — everything from there on counts as the torn tail.
ScanResult scan_records(ByteView file, std::uint32_t magic,
                        const std::function<void(std::uint64_t, ByteView)>& on_record);

/// Validate and extract one record payload at `offset` of `file` (used by the
/// BlockStore to re-check a record read back from disk). Throws StorageError
/// on any mismatch.
Bytes read_record(ByteView file, std::uint64_t offset, std::uint32_t magic);

} // namespace dlt::storage
