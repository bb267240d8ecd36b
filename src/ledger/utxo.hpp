// UTXO set: the spendable-coin state of Blockchain-1.0 chains, with apply/undo
// support so branch reorganizations (longest-chain and GHOST switches) can roll
// the state back and forward deterministically. Entry storage lives behind the
// pluggable StateBackend (state_backend.hpp): the default is the sharded
// in-memory engine; PersistentNode can substitute the LSM-flavored persistent
// engine for state that outgrows RAM. The address index and the running total
// value stay here, maintained in lockstep with every backend mutation.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "ledger/block.hpp"
#include "ledger/outpoint_hash.hpp"
#include "ledger/state_backend.hpp"
#include "ledger/transaction.hpp"

namespace dlt::ledger {

/// Everything needed to undo one block application.
struct UtxoUndo {
    /// Outputs consumed by the block, with their original data, in spend order.
    std::vector<std::pair<OutPoint, TxOutput>> spent;
    /// Outpoints created by the block.
    std::vector<OutPoint> created;

    friend bool operator==(const UtxoUndo&, const UtxoUndo&) = default;

    /// Serialization for the storage layer's per-block undo records, so a
    /// restarted node can disconnect blocks it connected in a previous life.
    void encode(Writer& w) const;
    static UtxoUndo decode(Reader& r);
};

class UtxoSet {
public:
    /// Default engine: sharded in-memory backend.
    UtxoSet();

    /// Adopt an existing backend (e.g. a persistent engine reopened from
    /// disk); rebuilds the address index and total from its contents.
    explicit UtxoSet(std::unique_ptr<StateBackend> backend);

    // Value semantics: copies deep-clone the backend (persistent engines
    // materialize into an in-memory clone), so a copied set never shares
    // files or state with the original.
    UtxoSet(const UtxoSet& other);
    UtxoSet& operator=(const UtxoSet& other);
    UtxoSet(UtxoSet&&) = default;
    UtxoSet& operator=(UtxoSet&&) = default;

    std::optional<TxOutput> lookup(const OutPoint& op) const;
    bool contains(const OutPoint& op) const;
    std::size_t size() const { return static_cast<std::size_t>(backend_->size()); }

    /// Total value across all unspent outputs — O(1), maintained incrementally.
    Amount total_value() const { return total_value_; }

    /// Spendable balance of one address — O(1) via the address index.
    Amount balance_of(const crypto::Address& addr) const;

    /// All outpoints owned by an address (wallet coin selection), sorted by
    /// outpoint so results are identical across backends and hash seeds.
    std::vector<std::pair<OutPoint, TxOutput>> coins_of(const crypto::Address& addr) const;

    /// Full contents (snapshot serialization, bootstrap checkpoints).
    std::vector<std::pair<OutPoint, TxOutput>> export_all() const;

    /// Canonical snapshot serialization: entries sorted by outpoint, so equal
    /// sets always produce byte-identical (and therefore digest-identical)
    /// snapshots regardless of backend or hash-map iteration order. The
    /// sharded backend builds the same bytes in parallel per shard.
    void encode(Writer& w) const;

    /// Rebuild a set from its snapshot serialization. Rejects truncated or
    /// corrupt input — including duplicate outpoints, which would silently
    /// corrupt the total and address index — with DecodeError before any
    /// large allocation.
    static UtxoSet decode(Reader& r);

    /// Insert an entry directly (snapshot restore); overwrites silently.
    void insert_raw(const OutPoint& op, const TxOutput& out);

    /// Copy in the entries of `from` that `tx`'s inputs name (one lookup per
    /// input). Filled for every transaction of a block or template, this set
    /// validates them in order exactly as `from` would, without copying it:
    /// each outpoint a check reads was fetched, and both sets change it alike.
    void fetch_inputs(const UtxoSet& from, const Transaction& tx);

    /// Check a transaction against the set: inputs exist, no intra-tx double
    /// spends, value in >= value out. Returns the fee (inputs - outputs) on
    /// success; throws ValidationError otherwise. Coinbases return 0.
    Amount check_transaction(const Transaction& tx) const;

    /// Validate and apply one transaction, appending to `undo`. Returns the fee.
    /// Throws ValidationError without mutating on failure.
    Amount check_and_apply(const Transaction& tx, UtxoUndo& undo);

    /// Apply a whole block (earlier txs may fund later ones). Returns the undo
    /// record. Throws ValidationError and leaves the set unchanged on any
    /// invalid spend.
    UtxoUndo apply_block(const Block& block);

    /// Revert a block using its undo record (exact inverse of apply_block).
    void undo_block(const UtxoUndo& undo);

    /// Batch boundary and durability point: forward to the backend (see
    /// StateBackend::commit_batch / flush). No-ops on in-memory engines.
    void commit(std::uint64_t tag, ByteView meta) { backend_->commit_batch(tag, meta); }
    void flush() { backend_->flush(); }

    const StateBackend& backend() const { return *backend_; }

private:
    void apply_transaction(const Transaction& tx, UtxoUndo& undo);
    void rebuild_index();

    /// Per-address running balance + owned outpoints, kept in lockstep with
    /// the backend through every insertion and erasure (apply, undo, raw
    /// insert), so reorgs keep the index exact.
    struct AddressEntry {
        Amount balance = 0;
        std::unordered_set<OutPoint, OutPointHash> coins;
    };

    void index_add(const OutPoint& op, const TxOutput& out);
    void index_remove(const OutPoint& op, const TxOutput& out);

    std::unique_ptr<StateBackend> backend_;
    std::unordered_map<crypto::Address, AddressEntry> by_addr_;
    Amount total_value_ = 0;
};

} // namespace dlt::ledger
