// Pluggable UTXO state engine (ROADMAP item 2). UtxoSet used to be a single
// unordered_map; at the million-user scale of E25/E27 that is both a capacity
// wall (state must fit in RAM) and a hot-path wall (snapshot encode sorts the
// whole set on one thread). StateBackend abstracts the key-value state behind
// get/put/erase/iterate-sorted/batch-commit so the same ledger logic runs on:
//
//  - ShardedMemoryBackend (this header): the in-memory default. Entries are
//    range-partitioned into 16 shards by the top nibble of the txid's first
//    byte, so shard order *is* canonical snapshot order and encode_sorted can
//    sort + serialize every shard in parallel on the global ThreadPool, then
//    concatenate — byte-identical to the serial encoding at any DLT_THREADS.
//
//  - storage::LsmBackend (storage/lsm_backend.hpp): a crash-safe LSM-flavored
//    persistent engine (memtable + sorted runs + bloom filters) for state that
//    outgrows RAM.
//
// Mutations are plain blind writes. commit_batch() marks batch boundaries and
// flush() makes every committed batch durable; a persistent backend may also
// flush on its own at a boundary, and committed_tag() names what is on disk
// (in-memory backends ignore all three). All backends must agree on iteration
// order (sorted by OutPoint) so snapshot digests are backend-independent.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "ledger/outpoint_hash.hpp"
#include "ledger/transaction.hpp"

namespace dlt::ledger {

class StateBackend {
public:
    using Visitor = std::function<void(const OutPoint&, const TxOutput&)>;

    virtual ~StateBackend() = default;

    virtual const char* name() const = 0;

    virtual std::optional<TxOutput> get(const OutPoint& op) const = 0;
    virtual bool contains(const OutPoint& op) const { return get(op).has_value(); }

    /// Insert unless present. Returns true when the entry was inserted.
    virtual bool insert_if_absent(const OutPoint& op, const TxOutput& out) = 0;

    /// Insert or overwrite; returns the previous value when one existed.
    virtual std::optional<TxOutput> put(const OutPoint& op, const TxOutput& out) = 0;

    /// Remove; returns the removed value when one existed.
    virtual std::optional<TxOutput> erase(const OutPoint& op) = 0;

    /// Live entry count.
    virtual std::uint64_t size() const = 0;

    /// Visit every entry in unspecified order (cheapest full scan).
    virtual void for_each(const Visitor& visit) const = 0;

    /// Visit every entry sorted by OutPoint — the canonical snapshot order
    /// every backend must agree on.
    virtual void for_each_sorted(const Visitor& visit) const = 0;

    /// Canonical snapshot body: varint entry count, then sorted entries.
    /// The default walks for_each_sorted serially; backends override it when
    /// they can build the same bytes faster (sharded parallel encode).
    virtual void encode_sorted(Writer& w) const;

    /// Batch boundary: every mutation since the previous commit belongs to
    /// `tag` (a monotonically increasing sequence the caller assigns —
    /// PersistentNode uses its WAL seq), recorded with opaque recovery
    /// metadata. Not a durability point: the batch reaches disk with the next
    /// flush, which a persistent backend may start here on its own. Until
    /// then the caller's log must cover it. In-memory backends ignore it.
    virtual void commit_batch(std::uint64_t tag, ByteView meta) {
        (void)tag;
        (void)meta;
    }

    /// Make every committed batch durable. Call at a batch boundary (no
    /// mutations since the last commit_batch). A no-op in memory.
    virtual void flush() {}

    /// Tag of the newest durable batch (0 when nothing was flushed or the
    /// backend is not persistent).
    virtual std::uint64_t committed_tag() const { return 0; }

    /// Metadata recorded with committed_tag() (empty when none).
    virtual Bytes committed_meta() const { return {}; }

    /// Deep copy. Persistent backends materialize into an in-memory clone
    /// (copies share no files), so copied UtxoSets are always value types.
    virtual std::unique_ptr<StateBackend> clone() const = 0;
};

/// The in-memory engine: N-way txid-prefix-sharded hash maps. Sharding by the
/// top nibble of txid[0] keeps shards aligned with canonical sort order, so a
/// parallel per-shard sort+encode concatenates into exactly the serial bytes.
class ShardedMemoryBackend final : public StateBackend {
public:
    static constexpr std::size_t kShards = 16;

    /// Shard index of an outpoint. Txids are (double-)SHA-256 outputs, so the
    /// first byte is uniform and a 16-way prefix split balances to ~1/16 per
    /// shard without hashing.
    static std::size_t shard_of(const OutPoint& op) noexcept {
        return op.txid[0] >> 4;
    }

    const char* name() const override { return "sharded-memory"; }

    std::optional<TxOutput> get(const OutPoint& op) const override;
    bool contains(const OutPoint& op) const override;
    bool insert_if_absent(const OutPoint& op, const TxOutput& out) override;
    std::optional<TxOutput> put(const OutPoint& op, const TxOutput& out) override;
    std::optional<TxOutput> erase(const OutPoint& op) override;
    std::uint64_t size() const override { return size_; }
    void for_each(const Visitor& visit) const override;
    void for_each_sorted(const Visitor& visit) const override;

    /// Parallel snapshot build: sort + serialize each shard on the global
    /// ThreadPool (shards are disjoint and ordered), then splice the buffers
    /// after the total count. Byte-identical to the base-class serial path.
    void encode_sorted(Writer& w) const override;

    std::unique_ptr<StateBackend> clone() const override {
        return std::make_unique<ShardedMemoryBackend>(*this);
    }

private:
    using Shard = std::unordered_map<OutPoint, TxOutput, OutPointHash>;

    std::array<Shard, kShards> shards_;
    std::uint64_t size_ = 0;
};

} // namespace dlt::ledger
