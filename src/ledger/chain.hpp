// Chain store: the block DAG every peer maintains. Tracks all branches (the
// paper's §2.4 "branches can occur"), cumulative work, children and validity,
// and provides the primitives branch-selection policies need: most-work and
// GHOST tip lookup over valid blocks, common ancestors, and reorg paths.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/uint256.hpp"
#include "ledger/block.hpp"

namespace dlt::ledger {

struct ChainEntry {
    Block block;
    Hash256 hash;
    std::uint64_t height = 0;
    crypto::U256 cumulative_work; // sum of per-block work from genesis
    bool invalid = false;         // failed to connect, or descends from one that did
    /// GHOST weight, kept for each block whose parent has several children
    /// (the only weights GHOST compares): the valid blocks in its subtree,
    /// itself included, 0 when invalid.
    std::uint64_t valid_subtree = 0;
    /// The nearest block at or above this one that keeps a weight, if any:
    /// the first weight an insert below this block raises.
    std::optional<Hash256> weighed;
};

class ChainStore {
public:
    /// Create a store rooted at `genesis` (implicitly valid).
    explicit ChainStore(const Block& genesis);

    const Hash256& genesis_hash() const { return genesis_hash_; }

    bool contains(const Hash256& hash) const { return entries_.contains(hash); }
    const ChainEntry* find(const Hash256& hash) const;

    /// Insert a block whose parent must already be present. `work` is the PoW
    /// work the block represents (use U256::one() for non-PoW chains so
    /// cumulative work equals height). A block under an invalid parent is
    /// invalid from the start. Returns false when already present, throws
    /// ValidationError when the parent is unknown.
    bool insert(const Block& block, const crypto::U256& work);

    /// Insert a block whose parent was pruned from durable storage (see
    /// BlockStore::prune_below): the block anchors a detached subtree at its
    /// header height, with `cumulative_work` taken as given. Ancestry walks
    /// (ancestor, path_from_genesis) stop at such roots instead of reaching
    /// genesis; walks that would need to cross the pruned boundary
    /// (common_ancestor across subtrees) throw ValidationError.
    bool insert_detached_root(const Block& block, const crypto::U256& cumulative_work);

    /// Children of a block (insertion order).
    const std::vector<Hash256>& children(const Hash256& hash) const;

    /// Mark `hash` and every block below it invalid (a failed connect).
    void mark_invalid(const Hash256& hash);

    /// Valid block with maximum cumulative work (ties broken by lower hash —
    /// an arbitrary but network-wide consistent rule). This is the
    /// longest-chain/Nakamoto selection when per-block work is uniform.
    /// Kept up to date on insert, so the lookup is O(1).
    Hash256 best_tip_by_work() const { return best_; }

    /// GHOST selection (§2.7, Ethereum): walk from genesis, at each fork taking
    /// the valid child whose subtree holds the most valid blocks (ties broken
    /// by lower hash), until no valid child is left. Insert and mark_invalid
    /// keep the weights of fork children current, raising only those on the
    /// path (a block on a straight chain costs O(1)), so the walk recounts
    /// nothing.
    Hash256 best_tip_by_ghost() const;

    /// Walk up `steps` ancestors (stops at genesis).
    Hash256 ancestor(const Hash256& from, std::uint64_t steps) const;

    /// Lowest common ancestor of two blocks.
    Hash256 common_ancestor(const Hash256& a, const Hash256& b) const;

    /// Blocks to disconnect (old tip -> ancestor, exclusive) and connect
    /// (ancestor -> new tip, in application order) when switching tips.
    struct ReorgPath {
        std::vector<Hash256> disconnect; // old branch, tip first
        std::vector<Hash256> connect;    // new branch, oldest first
    };
    ReorgPath reorg_path(const Hash256& from_tip, const Hash256& to_tip) const;

    /// Hash chain from genesis to `tip` inclusive.
    std::vector<Hash256> path_from_genesis(const Hash256& tip) const;

    std::size_t size() const { return entries_.size(); }

    /// Blocks not on the path from genesis to `tip` (stale/uncle blocks) — the
    /// consistency cost E3 measures.
    std::size_t stale_count(const Hash256& tip) const;

private:
    /// Parent entry, throwing ValidationError when the walk would cross a
    /// pruned boundary (detached root with no stored parent).
    const ChainEntry* parent_of(const Hash256& hash) const;
    /// Make `entry` the best tip when it beats the current one.
    void consider(const ChainEntry& entry);
    /// `root` just got a sibling: give it a weight, and make it the weighed
    /// block of every block below it that had no nearer one.
    void start_weighing(ChainEntry& root);
    /// Add `delta` to the weight of `from` and of every weighed block above.
    void add_weight(std::optional<Hash256> from, std::int64_t delta);

    Hash256 genesis_hash_;
    Hash256 best_;
    std::unordered_map<Hash256, ChainEntry> entries_;
    std::unordered_map<Hash256, std::vector<Hash256>> children_;
};

} // namespace dlt::ledger
