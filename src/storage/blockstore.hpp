// Durable block storage: one append-only, CRC-framed file holding every block
// and, just before it, its undo record (the per-block UTXO undo data reorgs
// need), so an append syncs once. An in-memory hash → file-location index is
// rebuilt by one scan on open, and an LRU cache of decoded blocks sits in
// front of the disk read path.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "ledger/block.hpp"
#include "ledger/utxo.hpp"
#include "storage/file.hpp"
#include "storage/lru.hpp"

namespace dlt::storage {

struct BlockStoreOptions {
    std::size_t cache_capacity = 64; // decoded blocks held in memory
    CrashInjector* injector = nullptr;
    FsyncMode fsync = FsyncMode::kAlways;
};

struct BlockStoreStats {
    std::uint64_t blocks_indexed = 0;   // entries recovered by the open scan
    std::uint64_t truncated_bytes = 0;  // torn tail repaired on open
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
};

struct PruneResult {
    std::uint64_t blocks_pruned = 0;
    std::uint64_t bytes_reclaimed = 0; // block-file bytes dropped
};

class BlockStore {
public:
    /// Open (or create) `blocks.dat` inside `dir`, rebuilding the height/hash
    /// index by scanning it and truncating a torn tail. Throws StorageError,
    /// touching nothing, on a directory in the older blocks + undo.dat layout.
    explicit BlockStore(const std::filesystem::path& dir, BlockStoreOptions options = {});

    /// Append a block's undo record, then the block. Durable once the call
    /// returns (one fsync per policy). Appending an already stored block is a
    /// no-op.
    void append(const ledger::Block& block, const ledger::UtxoUndo& undo);

    bool contains(const Hash256& hash) const { return index_.contains(hash); }
    std::size_t size() const { return index_.size(); }

    /// Decoded block by hash — served from the LRU cache when hot, re-read,
    /// CRC-checked, and decoded from disk when cold. Returns nullptr when the
    /// hash is unknown.
    std::shared_ptr<const ledger::Block> read_block(const Hash256& hash);

    /// Undo data recorded when `hash` was appended. Throws StorageError when
    /// absent (the block was never durably stored).
    ledger::UtxoUndo read_undo(const Hash256& hash);

    /// Stored height of a block (from the index; no disk read).
    std::optional<std::uint64_t> height_of(const Hash256& hash) const;

    /// All stored blocks as (hash, height), sorted by height then hash — the
    /// order a chain index can be rebuilt in (parents before children).
    std::vector<std::pair<Hash256, std::uint64_t>> all_blocks() const;

    BlockStoreStats stats() const;

    /// Drop every block below `height`, with its undo record, from the block
    /// file (undo records of orphaned blocks go too). Call only once the
    /// pruned range is covered by a durable snapshot: disconnecting below the
    /// prune point becomes impossible (read_undo throws), and a restarted
    /// chain index anchors at a detached root
    /// (ChainStore::insert_detached_root) instead of genesis. The file is
    /// rewritten to a `.rewrite` temporary and fsynced, the prune floor is
    /// committed (prune.meta, atomic), then the temporary is renamed into
    /// place and the directory fsynced — a crash at any byte offset leaves
    /// either the old file or the pruned one.
    PruneResult prune_below(std::uint64_t height);

    /// Height below which blocks have been pruned (0 = nothing pruned).
    std::uint64_t pruned_below() const { return pruned_below_; }

private:
    struct Location {
        std::uint64_t offset = 0; // frame start in the file
        std::uint32_t length = 0; // payload length
        std::uint64_t height = 0;
    };

    /// Index one scanned record; throws DecodeError on a malformed payload.
    void index_record(std::uint64_t offset, ByteView payload);
    /// Frame `payload` onto `out` and return where it landed.
    static Location append_record(AppendFile& out, ByteView payload,
                                  std::uint64_t height);
    /// Re-read and re-check a record's payload (type byte included).
    Bytes read_payload(const Location& loc, std::uint8_t type, const char* what) const;

    std::filesystem::path path_;
    FsyncMode fsync_mode_;
    CrashInjector* injector_ = nullptr;

    std::unique_ptr<AppendFile> out_;
    std::unique_ptr<RandomAccessFile> in_;

    std::unordered_map<Hash256, Location> index_;      // block records
    std::unordered_map<Hash256, Location> undo_index_; // undo records
    LruCache<Hash256, std::shared_ptr<const ledger::Block>> cache_;
    std::uint64_t truncated_bytes_ = 0;
    std::uint64_t indexed_on_open_ = 0;
    std::uint64_t pruned_below_ = 0;
};

} // namespace dlt::storage
