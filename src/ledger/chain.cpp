#include "ledger/chain.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace dlt::ledger {

ChainStore::ChainStore(const Block& genesis) {
    genesis_hash_ = genesis.hash();
    ChainEntry entry;
    entry.block = genesis;
    entry.hash = genesis_hash_;
    entry.height = genesis.header.height;
    entry.cumulative_work = crypto::U256::one();
    entries_.emplace(genesis_hash_, std::move(entry));
    children_.emplace(genesis_hash_, std::vector<Hash256>{});
    best_ = genesis_hash_;
}

const ChainEntry* ChainStore::find(const Hash256& hash) const {
    const auto it = entries_.find(hash);
    return it == entries_.end() ? nullptr : &it->second;
}

bool ChainStore::insert(const Block& block, const crypto::U256& work) {
    const Hash256 hash = block.hash();
    if (entries_.contains(hash)) return false;
    const auto parent = entries_.find(block.header.prev_hash);
    if (parent == entries_.end())
        throw ValidationError("block parent unknown (orphan)");

    ChainEntry entry;
    entry.block = block;
    entry.hash = hash;
    entry.height = parent->second.height + 1;
    entry.cumulative_work = parent->second.cumulative_work + work;
    entry.invalid = parent->second.invalid;
    consider(entries_.emplace(hash, std::move(entry)).first->second);
    children_[block.header.prev_hash].push_back(hash);
    children_.emplace(hash, std::vector<Hash256>{});
    return true;
}

bool ChainStore::insert_detached_root(const Block& block,
                                      const crypto::U256& cumulative_work) {
    const Hash256 hash = block.hash();
    if (entries_.contains(hash)) return false;

    ChainEntry entry;
    entry.block = block;
    entry.hash = hash;
    entry.height = block.header.height;
    entry.cumulative_work = cumulative_work;
    consider(entries_.emplace(hash, std::move(entry)).first->second);
    // Deliberately not registered as a child of its (absent) parent.
    children_.emplace(hash, std::vector<Hash256>{});
    return true;
}

const std::vector<Hash256>& ChainStore::children(const Hash256& hash) const {
    static const std::vector<Hash256> kEmpty;
    const auto it = children_.find(hash);
    return it == children_.end() ? kEmpty : it->second;
}

void ChainStore::consider(const ChainEntry& entry) {
    const ChainEntry& best = entries_.at(best_);
    if (!entry.invalid &&
        (entry.cumulative_work > best.cumulative_work ||
         (entry.cumulative_work == best.cumulative_work && entry.hash < best.hash)))
        best_ = entry.hash;
}

void ChainStore::mark_invalid(const Hash256& hash) {
    DLT_EXPECTS(hash != genesis_hash_);
    std::vector<Hash256> stack{hash};
    while (!stack.empty()) {
        const Hash256 cur = stack.back();
        stack.pop_back();
        entries_.at(cur).invalid = true;
        for (const auto& child : children(cur)) stack.push_back(child);
    }
    best_ = genesis_hash_;
    for (const auto& [h, entry] : entries_) consider(entry);
}

Hash256 ChainStore::best_tip_by_ghost() const {
    const auto valid_subtree_size = [this](const Hash256& root) {
        std::size_t count = 0;
        std::vector<Hash256> stack{root};
        while (!stack.empty()) {
            const Hash256 cur = stack.back();
            stack.pop_back();
            if (find(cur)->invalid) continue; // so is everything below it
            ++count;
            for (const auto& child : children(cur)) stack.push_back(child);
        }
        return count;
    };
    Hash256 cursor = genesis_hash_;
    for (;;) {
        const Hash256* best = nullptr;
        std::size_t best_weight = 0;
        for (const auto& kid : children(cursor)) {
            const std::size_t weight = valid_subtree_size(kid);
            if (weight > best_weight || (weight == best_weight && weight > 0 && kid < *best)) {
                best = &kid;
                best_weight = weight;
            }
        }
        if (best == nullptr) return cursor;
        cursor = *best;
    }
}

Hash256 ChainStore::ancestor(const Hash256& from, std::uint64_t steps) const {
    const ChainEntry* entry = find(from);
    DLT_EXPECTS(entry != nullptr);
    Hash256 cursor = from;
    while (steps > 0 && cursor != genesis_hash_) {
        const Hash256& parent = find(cursor)->block.header.prev_hash;
        if (!contains(parent)) break; // detached root of a pruned store
        cursor = parent;
        --steps;
    }
    return cursor;
}

const ChainEntry* ChainStore::parent_of(const Hash256& hash) const {
    const ChainEntry* parent = find(find(hash)->block.header.prev_hash);
    if (parent == nullptr)
        throw ValidationError("ancestry walk crossed a pruned chain boundary");
    return parent;
}

Hash256 ChainStore::common_ancestor(const Hash256& a, const Hash256& b) const {
    const ChainEntry* ea = find(a);
    const ChainEntry* eb = find(b);
    DLT_EXPECTS(ea != nullptr && eb != nullptr);
    Hash256 ca = a;
    Hash256 cb = b;
    std::uint64_t ha = ea->height;
    std::uint64_t hb = eb->height;
    while (ha > hb) {
        ca = parent_of(ca)->hash;
        --ha;
    }
    while (hb > ha) {
        cb = parent_of(cb)->hash;
        --hb;
    }
    while (ca != cb) {
        ca = parent_of(ca)->hash;
        cb = parent_of(cb)->hash;
    }
    return ca;
}

ChainStore::ReorgPath ChainStore::reorg_path(const Hash256& from_tip,
                                             const Hash256& to_tip) const {
    const Hash256 fork = common_ancestor(from_tip, to_tip);
    ReorgPath path;
    for (Hash256 cursor = from_tip; cursor != fork;
         cursor = find(cursor)->block.header.prev_hash)
        path.disconnect.push_back(cursor);
    for (Hash256 cursor = to_tip; cursor != fork;
         cursor = find(cursor)->block.header.prev_hash)
        path.connect.push_back(cursor);
    std::reverse(path.connect.begin(), path.connect.end());
    return path;
}

std::vector<Hash256> ChainStore::path_from_genesis(const Hash256& tip) const {
    DLT_EXPECTS(contains(tip));
    std::vector<Hash256> path;
    for (Hash256 cursor = tip;; cursor = find(cursor)->block.header.prev_hash) {
        path.push_back(cursor);
        // A detached root (pruned store) ends the walk like genesis does.
        if (cursor == genesis_hash_ ||
            !contains(find(cursor)->block.header.prev_hash))
            break;
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::size_t ChainStore::stale_count(const Hash256& tip) const {
    return entries_.size() - path_from_genesis(tip).size();
}

} // namespace dlt::ledger
