#include "storage/blockstore.hpp"

#include <algorithm>

#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "storage/recordio.hpp"

namespace dlt::storage {

namespace {
constexpr std::uint32_t kBlockMagic = 0x424C4B32; // "BLK2"
constexpr std::uint32_t kOldBlockMagic = 0x424C4B31; // "BLK1", beside an undo.dat
constexpr std::uint32_t kPruneMagic = 0x50524E31; // "PRN1"

// Record types in the block file: the first payload byte.
constexpr std::uint8_t kBlockRecord = 1; // [u8 1][ledger::Block]
constexpr std::uint8_t kUndoRecord = 2;  // [u8 2][32B block hash][ledger::UtxoUndo]
} // namespace

BlockStore::BlockStore(const std::filesystem::path& dir, BlockStoreOptions options)
    : path_(dir / "blocks.dat"),
      fsync_mode_(options.fsync),
      injector_(options.injector),
      cache_(options.cache_capacity) {
    std::filesystem::create_directories(dir);

    // The older two-file layout is refused untouched: its first frame would
    // read as a torn tail below, and the truncation would drop every block.
    const Bytes image = read_file(path_);
    if (std::filesystem::exists(dir / "undo.dat") ||
        (image.size() >= 4 && Reader(ByteView(image).first(4)).u32() == kOldBlockMagic))
        throw StorageError("older blocks.dat + undo.dat layout in " + dir.string());

    // Heal an interrupted prune: a .rewrite temporary never renamed is
    // garbage, and the committed prune floor (if any) still applies.
    std::error_code ec;
    std::filesystem::remove(dir / "blocks.dat.rewrite", ec);
    const Bytes prune_image = read_file(dir / "prune.meta");
    if (!prune_image.empty()) {
        const Bytes payload = read_record(ByteView(prune_image), 0, kPruneMagic);
        Reader r{ByteView(payload)};
        pruned_below_ = r.u64();
        r.expect_done();
    }

    // Index rebuild: one scan of the block file, decoding every intact
    // record. A record whose payload fails to decode (CRC collision or
    // software bug) ends the valid prefix exactly like a torn frame would.
    std::uint64_t valid_end = 0;
    bool decode_failed = false;
    scan_records(ByteView(image), kBlockMagic,
                 [&](std::uint64_t offset, ByteView payload) {
                     if (decode_failed) return;
                     try {
                         index_record(offset, payload);
                         valid_end = offset + kRecordHeaderSize + payload.size();
                     } catch (const DecodeError&) {
                         decode_failed = true;
                     }
                 });
    indexed_on_open_ = index_.size();
    truncated_bytes_ = image.size() - valid_end;

    out_ = std::make_unique<AppendFile>(path_, options.injector);
    if (out_->size() > valid_end) out_->truncate(valid_end);
    in_ = std::make_unique<RandomAccessFile>(path_);
}

void BlockStore::index_record(std::uint64_t offset, ByteView payload) {
    Reader r(payload);
    Location loc{offset, static_cast<std::uint32_t>(payload.size()), 0};
    switch (r.u8()) {
    case kBlockRecord: {
        const auto block = ledger::Block::decode(r);
        r.expect_done();
        loc.height = block.header.height;
        index_[block.hash()] = loc;
        break;
    }
    case kUndoRecord:
        undo_index_[r.fixed<32>()] = loc; // body decoded on read_undo
        break;
    default:
        throw DecodeError("unknown block-file record type");
    }
}

BlockStore::Location BlockStore::append_record(AppendFile& out, ByteView payload,
                                               std::uint64_t height) {
    const Location loc{out.size(), static_cast<std::uint32_t>(payload.size()), height};
    out.append(frame_record(kBlockMagic, payload));
    return loc;
}

void BlockStore::append(const ledger::Block& block, const ledger::UtxoUndo& undo) {
    const Hash256 hash = block.hash();
    if (index_.contains(hash)) return;

    // Undo first: a crash between the two frames leaves an orphan undo record
    // (harmless), never a committed block without its undo data. One fsync
    // then covers both.
    Writer uw;
    uw.u8(kUndoRecord);
    uw.fixed(hash);
    undo.encode(uw);
    const Location undo_loc = append_record(*out_, uw.data(), 0);
    Writer bw;
    bw.u8(kBlockRecord);
    block.encode(bw);
    const Location block_loc = append_record(*out_, bw.data(), block.header.height);
    if (fsync_mode_ == FsyncMode::kAlways) out_->sync();

    undo_index_[hash] = undo_loc;
    index_[hash] = block_loc;
    cache_.put(hash, std::make_shared<const ledger::Block>(block));
}

Bytes BlockStore::read_payload(const Location& loc, std::uint8_t type,
                               const char* what) const {
    const Bytes frame = in_->read_at(loc.offset, kRecordHeaderSize + loc.length);
    if (frame.size() != kRecordHeaderSize + loc.length)
        throw StorageError(std::string(what) + " record truncated on disk");
    Bytes payload = read_record(ByteView(frame), 0, kBlockMagic);
    if (payload.empty() || payload[0] != type)
        throw StorageError(std::string(what) + " record has the wrong type");
    return payload;
}

std::shared_ptr<const ledger::Block> BlockStore::read_block(const Hash256& hash) {
    if (auto cached = cache_.get(hash)) return *cached;
    const auto it = index_.find(hash);
    if (it == index_.end()) return nullptr;
    const Bytes payload = read_payload(it->second, kBlockRecord, "block");
    auto block = std::make_shared<const ledger::Block>(
        decode_from_bytes<ledger::Block>(ByteView(payload).subspan(1)));
    if (block->hash() != hash)
        throw StorageError("block file corrupt: stored block hash mismatch");
    cache_.put(hash, block);
    return block;
}

ledger::UtxoUndo BlockStore::read_undo(const Hash256& hash) {
    const auto it = undo_index_.find(hash);
    if (it == undo_index_.end())
        throw StorageError("no undo record for block " + hash.hex());
    const Bytes payload = read_payload(it->second, kUndoRecord, "undo");
    Reader r(ByteView(payload).subspan(1));
    const Hash256 stored = r.fixed<32>();
    if (stored != hash) throw StorageError("block file corrupt: undo keyed hash mismatch");
    const auto undo = ledger::UtxoUndo::decode(r);
    r.expect_done();
    return undo;
}

std::optional<std::uint64_t> BlockStore::height_of(const Hash256& hash) const {
    const auto it = index_.find(hash);
    if (it == index_.end()) return std::nullopt;
    return it->second.height;
}

std::vector<std::pair<Hash256, std::uint64_t>> BlockStore::all_blocks() const {
    std::vector<std::pair<Hash256, std::uint64_t>> out;
    out.reserve(index_.size());
    for (const auto& [hash, loc] : index_) out.emplace_back(hash, loc.height);
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second < b.second : a.first < b.first;
    });
    return out;
}

PruneResult BlockStore::prune_below(std::uint64_t height) {
    PruneResult result;
    if (height <= pruned_below_) return result;

    const std::filesystem::path dir = path_.parent_path();
    const std::filesystem::path tmp = dir / "blocks.dat.rewrite";

    // Rewrite surviving records in height order (the index-rebuild order), so
    // the pruned file is a deterministic function of the kept set. A kept
    // block's undo record still precedes it; undo records of pruned and
    // orphaned blocks are dropped.
    std::unordered_map<Hash256, Location> new_index;
    std::unordered_map<Hash256, Location> new_undo_index;
    {
        AppendFile rewrite(tmp, injector_);
        for (const auto& [hash, block_height] : all_blocks()) {
            if (block_height < height) {
                ++result.blocks_pruned;
                continue;
            }
            if (const auto undo = undo_index_.find(hash); undo != undo_index_.end())
                new_undo_index[hash] = append_record(
                    rewrite, read_payload(undo->second, kUndoRecord, "undo"), 0);
            new_index[hash] = append_record(
                rewrite, read_payload(index_.at(hash), kBlockRecord, "block"),
                block_height);
        }
        rewrite.sync();
        result.bytes_reclaimed = out_->size() - rewrite.size();
    }

    // Commit the prune floor before swapping files: if we crash between the
    // meta write and the rename, the floor is merely conservative (blocks
    // below it still exist and index fine).
    Writer w;
    w.u64(height);
    write_file_atomic(dir / "prune.meta", frame_record(kPruneMagic, w.data()));

    out_.reset();
    in_.reset();
    std::filesystem::rename(tmp, path_);
    sync_dir(dir);
    out_ = std::make_unique<AppendFile>(path_, injector_);
    in_ = std::make_unique<RandomAccessFile>(path_);

    index_ = std::move(new_index);
    undo_index_ = std::move(new_undo_index);
    cache_.clear();
    pruned_below_ = height;

    auto& registry = obs::MetricsRegistry::global();
    registry.counter("block_files_pruned_total", "Blocks dropped by prune_below")
        .inc(result.blocks_pruned);
    registry
        .counter("block_prune_bytes_reclaimed_total",
                 "Bytes reclaimed from the block file by pruning")
        .inc(result.bytes_reclaimed);
    return result;
}

BlockStoreStats BlockStore::stats() const {
    BlockStoreStats s;
    s.blocks_indexed = indexed_on_open_;
    s.truncated_bytes = truncated_bytes_;
    s.cache_hits = cache_.hits();
    s.cache_misses = cache_.misses();
    s.cache_evictions = cache_.evictions();
    return s;
}

} // namespace dlt::storage
