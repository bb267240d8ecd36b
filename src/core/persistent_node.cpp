#include "core/persistent_node.hpp"

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "crypto/uint256.hpp"
#include "ledger/difficulty.hpp"
#include "storage/lsm_backend.hpp"

namespace dlt::core {

namespace {
constexpr std::uint8_t kWalConnect = 1;
constexpr std::uint8_t kWalDisconnect = 2;

// Recovery metadata the persistent state engine stores with every batch
// commit (and so with every flushed run): the tip (and its height) whose
// post-state the engine holds.
Bytes encode_state_meta(const Hash256& tip, std::uint64_t height) {
    Writer w;
    w.fixed(tip);
    w.u64(height);
    return std::move(w).take();
}

std::optional<std::uint64_t> snapshot_height_of(const std::filesystem::path& path) {
    const std::string name = path.filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".snap"))
        return std::nullopt;
    try {
        return std::stoull(name.substr(9, name.size() - 9 - 5));
    } catch (const std::exception&) {
        return std::nullopt;
    }
}
} // namespace

PersistentNode::PersistentNode(std::filesystem::path dir, const ledger::Block& genesis,
                               PersistentNodeOptions options)
    : dir_(std::move(dir)),
      options_(options),
      genesis_(genesis),
      snapshots_(dir_ / "snapshots"),
      chain_(genesis),
      tip_(genesis.hash()) {
    std::filesystem::create_directories(dir_);

    storage::BlockStoreOptions store_options;
    store_options.injector = options_.injector;
    store_options.fsync = options_.fsync;
    store_ = std::make_unique<storage::BlockStore>(dir_, store_options);

    storage::WalOptions wal_options;
    wal_options.injector = options_.injector;
    wal_options.fsync = options_.fsync;
    wal_ = std::make_unique<storage::Wal>(dir_ / "wal.log", wal_options);

    recovery_.wal_bytes_truncated = wal_->open_stats().truncated_bytes;
    recovery_.store_bytes_truncated = store_->stats().truncated_bytes;

    // Rebuild the chain index from the durable block files (height order, so
    // parents precede children). Blocks whose parent never became durable are
    // unreachable and skipped — unless the store is pruned, in which case the
    // blocks at the prune floor anchor detached subtrees.
    for (const auto& [hash, height] : store_->all_blocks()) {
        const auto block = store_->read_block(hash);
        try {
            chain_.insert(*block, ledger::work_from_bits(block->header.bits));
        } catch (const ValidationError&) {
            if (store_->pruned_below() > 0 && height == store_->pruned_below()) {
                chain_.insert_detached_root(*block, crypto::U256(height + 1));
            } else {
                DLT_LOG(kWarn, "storage") << "skipping orphan block " << hash.hex()
                                          << " at height " << height;
            }
        }
    }

    // Base state: the persistent engine's committed state, else the newest
    // valid snapshot, else genesis.
    std::uint64_t base_seq = 0;
    if (options_.state_engine == StateEngine::kPersistent) {
        storage::LsmOptions lsm;
        lsm.memtable_limit = options_.state_memtable_limit;
        lsm.compact_trigger = options_.state_compact_trigger;
        lsm.injector = options_.injector;
        lsm.fsync = options_.fsync;
        auto backend = std::make_unique<storage::LsmBackend>(dir_ / "state", lsm);
        const Bytes meta = backend->committed_meta();
        const std::uint64_t tag = backend->committed_tag();
        utxo_ = ledger::UtxoSet(std::move(backend));
        if (meta.empty()) {
            // Fresh engine: seed the genesis coin supply under tag 0. Until
            // the first flush, recovery comes back here and replays the
            // whole WAL.
            utxo_.apply_block(genesis_);
            utxo_.commit(0, ByteView(encode_state_meta(tip_, 0)));
        } else {
            Reader r{ByteView(meta)};
            tip_ = r.fixed<32>();
            height_ = r.u64();
            r.expect_done();
            if (!chain_.contains(tip_))
                throw StorageError("state engine tip missing from the block index");
            // The engine is tagged *after* the node-WAL record with the same
            // seq is durable, and snapshot() flushes it before truncating the
            // WAL, so the WAL holds every record past the engine's tag and
            // replay below is forward-only.
            base_seq = tag;
            recovery_.from_state_engine = true;
            recovery_.state_tag = tag;
        }
    } else if (const auto snap = snapshots_.load_latest()) {
        if (!chain_.contains(snap->block_hash))
            throw StorageError("snapshot references a block missing from the store");
        utxo_ = scaling::deserialize_utxo(ByteView(snap->utxo_snapshot));
        tip_ = snap->block_hash;
        height_ = snap->height;
        base_seq = snap->wal_seq;
        recovery_.from_snapshot = true;
        recovery_.snapshot_height = snap->height;
    } else {
        utxo_ = ledger::UtxoSet();
        // Genesis transactions (if any) seed the initial coin supply.
        utxo_.apply_block(genesis_);
    }
    // After a snapshot + WAL reset + restart the log is empty and would hand
    // out sequence numbers the snapshot already claims to cover — push the
    // counter past the snapshot so new records always replay.
    wal_->ensure_next_seq_at_least(base_seq + 1);

    // Replay the committed journal suffix on top of the base state.
    for (const auto& rec : wal_->take_records()) {
        if (rec.seq <= base_seq) continue;
        Reader r(ByteView(rec.payload));
        const Hash256 hash = r.fixed<32>();
        r.expect_done();
        if (rec.type == kWalConnect) {
            const auto block = store_->read_block(hash);
            if (!block) {
                // The journal committed but the block payload is gone — only
                // possible under external corruption. Stop at the last state
                // we can prove consistent.
                DLT_LOG(kWarn, "storage") << "WAL references missing block "
                                          << hash.hex() << "; stopping replay";
                break;
            }
            if (block->header.prev_hash != tip_)
                throw StorageError("WAL connect does not extend the recovered tip");
            utxo_.apply_block(*block);
            tip_ = hash;
            height_ += 1;
        } else if (rec.type == kWalDisconnect) {
            if (hash != tip_)
                throw StorageError("WAL disconnect does not match the recovered tip");
            utxo_.undo_block(store_->read_undo(hash));
            const auto* entry = chain_.find(hash);
            tip_ = entry->block.header.prev_hash;
            height_ -= 1;
        } else {
            throw StorageError("unknown WAL record type " + std::to_string(rec.type));
        }
        // Tag the replayed transition in the persistent engine, so a flush
        // during or after replay records how far the engine got.
        if (options_.state_engine == StateEngine::kPersistent)
            utxo_.commit(rec.seq, ByteView(encode_state_meta(tip_, height_)));
        ++recovery_.wal_records_replayed;
    }
}

PersistentNode::~PersistentNode() {
    if (crashed_) return;
    try {
        utxo_.flush();
    } catch (const std::exception& e) {
        // The WAL still holds every unflushed record; the next open replays it.
        DLT_LOG(kWarn, "storage") << "state flush on close failed: " << e.what();
    }
}

void PersistentNode::fail_if_crashed() const {
    if (crashed_)
        throw storage::CrashError("node crashed; reopen the directory to recover");
}

void PersistentNode::connect_block(const ledger::Block& block) {
    fail_if_crashed();
    if (block.header.prev_hash != tip_)
        throw ValidationError("connect_block: block does not extend the current tip");

    // Validate + apply in memory first (throws without side effects), then
    // make it durable: undo + block, then the WAL commit record. A crash
    // between the two leaves an uncommitted block the next open ignores.
    ledger::UtxoUndo undo = utxo_.apply_block(block);
    const Hash256 hash = block.hash();
    std::uint64_t seq = 0; // set once the WAL record is down
    try {
        store_->append(block, undo);
        Writer w;
        w.fixed(hash);
        seq = wal_->append(kWalConnect, w.data());
        // State-engine tag comes last: it can never exceed the last durable
        // WAL seq, so recovery only ever replays forward.
        if (options_.state_engine == StateEngine::kPersistent)
            utxo_.commit(seq, ByteView(encode_state_meta(hash, height_ + 1)));
    } catch (const storage::CrashError&) {
        crashed_ = true;
        throw;
    } catch (...) {
        // Real I/O error. Before the WAL record nothing is committed, so stay
        // usable; past it (a failed state flush) the block is, so die rather
        // than leave the memtable disagreeing with its tag: a reopen replays it.
        crashed_ = seq != 0;
        if (!crashed_) utxo_.undo_block(undo);
        throw;
    }
    chain_.insert(block, ledger::work_from_bits(block.header.bits));
    tip_ = hash;
    height_ += 1;
}

void PersistentNode::disconnect_tip() {
    fail_if_crashed();
    if (tip_ == chain_.genesis_hash())
        throw StorageError("cannot disconnect the genesis block");
    // The block at the prune floor still has its undo record, but rolling back
    // onto a pruned parent would leave a tip with no durable block — refuse at
    // the floor, not just below it.
    if (height_ <= store_->pruned_below())
        throw StorageError("cannot disconnect below the pruned height");

    const ledger::UtxoUndo undo = store_->read_undo(tip_);
    const Hash256 old_tip = tip_;
    try {
        Writer w;
        w.fixed(old_tip);
        const std::uint64_t seq = wal_->append(kWalDisconnect, w.data());
        utxo_.undo_block(undo);
        tip_ = chain_.find(old_tip)->block.header.prev_hash;
        height_ -= 1;
        if (options_.state_engine == StateEngine::kPersistent)
            utxo_.commit(seq, ByteView(encode_state_meta(tip_, height_)));
    } catch (const storage::CrashError&) {
        crashed_ = true;
        throw;
    }
}

std::filesystem::path PersistentNode::snapshot() {
    fail_if_crashed();
    try {
        // The engine first: its flushed tag must reach the WAL's last seq
        // before the WAL is truncated or blocks are pruned, since recovery on
        // the LSM engine replays the WAL past that tag from the block file.
        utxo_.flush();
        const storage::Snapshot snap =
            storage::SnapshotManager::make(utxo_, height_, tip_, wal_->last_seq());
        const auto path = snapshots_.save(snap);
        // The snapshot now covers every journaled transition; the WAL can
        // restart empty. A crash between save and reset is safe: replay skips
        // records with seq <= the snapshot's wal_seq.
        wal_->reset();
        snapshots_.prune(options_.snapshots_to_keep);

        // Every block below the *oldest* snapshot still on disk is now covered
        // by a durable state image; with pruning enabled its block + undo
        // records can go (load_latest's fall-back-to-older-snapshot path keeps
        // working, since we prune only below the oldest survivor).
        if (options_.prune_blocks) {
            const auto kept = snapshots_.list();
            if (!kept.empty())
                if (const auto floor = snapshot_height_of(kept.front()))
                    store_->prune_below(*floor);
        }
        return path;
    } catch (const storage::CrashError&) {
        crashed_ = true;
        throw;
    }
}

scaling::Checkpoint PersistentNode::checkpoint() const {
    return storage::SnapshotManager::make(utxo_, height_, tip_, wal_->last_seq())
        .to_checkpoint();
}

} // namespace dlt::core
