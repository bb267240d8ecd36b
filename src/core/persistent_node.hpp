// PersistentNode: a node whose chain state survives crashes (paper §3.1
// "Dependable" + §5.4 bootstrap). The node WAL is its one journal. Every
// state transition — block connect or disconnect — is journaled write-ahead:
// undo + block go to the BlockStore (one file, one fsync), then a node-WAL
// record commits the transition (the second fsync), then memory is updated.
// Recovery on open is: rebuild the block index, take a base state, and replay
// the committed node-WAL suffix past it, so a process killed at *any* write
// offset (see storage::CrashInjector) reopens to the exact state of its last
// committed transition. The base state is the newest valid snapshot (or
// genesis) on the in-memory engine, and the engine's last flush on the LSM
// engine: that engine is durable at flush, and the node WAL covers the rest.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "ledger/block.hpp"
#include "ledger/chain.hpp"
#include "ledger/utxo.hpp"
#include "scaling/bootstrap.hpp"
#include "storage/blockstore.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace dlt::core {

/// Which StateBackend the node's UtxoSet runs on.
enum class StateEngine : std::uint8_t {
    kInMemory,   // sharded in-memory maps; recovery = snapshot + WAL replay
    kPersistent, // LSM engine on disk; recovery = engine state + WAL suffix
};

struct PersistentNodeOptions {
    storage::FsyncMode fsync = storage::FsyncMode::kAlways;
    /// Fault hook shared by the WAL, block store, and state-engine write
    /// paths; tests arm it to kill the node after N bytes and prove recovery.
    storage::CrashInjector* injector = nullptr;
    /// Snapshots to keep on disk when snapshot() prunes old ones.
    std::size_t snapshots_to_keep = 2;
    /// State engine selection. With kPersistent the UTXO set lives in an
    /// LSM backend under <dir>/state, tagged with the WAL seq at every
    /// record and flushed when its memtable fills, at snapshot() and on a
    /// clean close, so recovery replays only the WAL suffix past the
    /// engine's last flush instead of re-applying from a whole-state
    /// snapshot.
    StateEngine state_engine = StateEngine::kInMemory;
    /// LSM tuning (kPersistent only).
    std::size_t state_memtable_limit = 4096;
    std::size_t state_compact_trigger = 6;
    /// Prune the block file below the oldest kept snapshot at every
    /// snapshot() call. Disconnects below the prune point become impossible;
    /// restarts anchor the chain index at a detached root.
    bool prune_blocks = false;
};

class PersistentNode {
public:
    struct RecoveryStats {
        bool from_snapshot = false;
        std::uint64_t snapshot_height = 0;
        std::uint64_t wal_records_replayed = 0;
        std::uint64_t wal_bytes_truncated = 0;   // torn tail repaired
        std::uint64_t store_bytes_truncated = 0; // torn block-file tail
        bool from_state_engine = false;          // base state came from the LSM
        std::uint64_t state_tag = 0;             // engine's committed tag at open
    };

    /// Open (or create) the node's durable state under `dir`. `genesis` must
    /// be the same block across restarts (it anchors the chain index).
    PersistentNode(std::filesystem::path dir, const ledger::Block& genesis,
                   PersistentNodeOptions options = {});

    /// A clean close flushes the state engine, so the next open replays
    /// nothing. Skipped once the node has crashed: it writes no more.
    ~PersistentNode();
    PersistentNode(const PersistentNode&) = delete;
    PersistentNode& operator=(const PersistentNode&) = delete;

    /// Validate `block` against the current tip state, persist it (block +
    /// undo + WAL commit), and advance the tip. The block's parent must be the
    /// current tip. Throws ValidationError on invalid blocks (nothing is
    /// persisted), CrashError when the injector trips (the node is dead
    /// afterwards; reopen to recover). A StorageError past the WAL record (a
    /// failed state flush) kills the node too; one before it does not.
    void connect_block(const ledger::Block& block);

    /// Roll the tip back one block using its durable undo record (reorg
    /// support). Works across restarts and below snapshot heights, down to
    /// genesis.
    void disconnect_tip();

    /// Flush the state engine, write an atomic state snapshot at the current
    /// tip, and reset the WAL (its records are now folded into both). Returns
    /// the snapshot path. Old snapshots beyond `snapshots_to_keep` are
    /// pruned; with options.prune_blocks the block file is then pruned below
    /// the oldest snapshot still on disk. Only snapshot() truncates the WAL.
    std::filesystem::path snapshot();

    /// Bootstrap-compatible checkpoint of the current in-memory state.
    scaling::Checkpoint checkpoint() const;

    const Hash256& tip() const { return tip_; }
    std::uint64_t height() const { return height_; }
    const ledger::UtxoSet& utxo() const { return utxo_; }
    const ledger::ChainStore& chain() const { return chain_; }
    /// The index, which a consensus engine may extend with side branches.
    ledger::ChainStore& chain() { return chain_; }
    const RecoveryStats& recovery() const { return recovery_; }
    storage::BlockStore& block_store() { return *store_; }

private:
    void fail_if_crashed() const;

    std::filesystem::path dir_;
    PersistentNodeOptions options_;
    ledger::Block genesis_;

    std::unique_ptr<storage::BlockStore> store_;
    std::unique_ptr<storage::Wal> wal_;
    storage::SnapshotManager snapshots_;

    ledger::ChainStore chain_;
    ledger::UtxoSet utxo_;
    Hash256 tip_;
    std::uint64_t height_ = 0;
    RecoveryStats recovery_;
    bool crashed_ = false; // a write died mid-transition; node must be reopened
};

} // namespace dlt::core
