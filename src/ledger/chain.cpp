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
    const auto parent_it = entries_.find(block.header.prev_hash);
    if (parent_it == entries_.end())
        throw ValidationError("block parent unknown (orphan)");
    const ChainEntry& parent = parent_it->second; // references survive a rehash

    ChainEntry entry;
    entry.block = block;
    entry.hash = hash;
    entry.height = parent.height + 1;
    entry.cumulative_work = parent.cumulative_work + work;
    entry.invalid = parent.invalid;
    ChainEntry& added = entries_.emplace(hash, std::move(entry)).first->second;
    consider(added);
    children_.emplace(hash, std::vector<Hash256>{});
    std::vector<Hash256>& siblings = children_[block.header.prev_hash];
    siblings.push_back(hash);
    if (siblings.size() == 2) start_weighing(entries_.at(siblings.front()));
    if (siblings.size() >= 2) {
        added.weighed = hash;
        added.valid_subtree = added.invalid ? 0 : 1;
    } else {
        added.weighed = parent.weighed;
    }
    if (!added.invalid) add_weight(parent.weighed, 1);
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

void ChainStore::start_weighing(ChainEntry& root) {
    std::uint64_t weight = 0;
    std::vector<ChainEntry*> stack{&root};
    while (!stack.empty()) {
        ChainEntry& entry = *stack.back();
        stack.pop_back();
        if (&entry != &root && entry.weighed == entry.hash) {
            weight += entry.valid_subtree; // a fork below already counts its subtree
            continue;
        }
        entry.weighed = root.hash;
        if (!entry.invalid) ++weight;
        for (const auto& child : children(entry.hash)) stack.push_back(&entries_.at(child));
    }
    root.valid_subtree = weight;
}

void ChainStore::add_weight(std::optional<Hash256> from, std::int64_t delta) {
    // A weighed block's parent is stored: it has several children.
    while (from) {
        ChainEntry& entry = entries_.at(*from);
        entry.valid_subtree += static_cast<std::uint64_t>(delta); // mod 2^64
        from = entries_.at(entry.block.header.prev_hash).weighed;
    }
}

void ChainStore::mark_invalid(const Hash256& hash) {
    DLT_EXPECTS(hash != genesis_hash_);
    // Every valid block of the subtree turns invalid; the weighed blocks
    // above lose them.
    std::int64_t lost = 0;
    std::vector<Hash256> stack{hash};
    while (!stack.empty()) {
        const Hash256 cur = stack.back();
        stack.pop_back();
        ChainEntry& entry = entries_.at(cur);
        if (!entry.invalid) ++lost;
        entry.invalid = true;
        entry.valid_subtree = 0;
        for (const auto& child : children(cur)) stack.push_back(child);
    }
    if (const ChainEntry* parent = find(entries_.at(hash).block.header.prev_hash))
        add_weight(parent->weighed, -lost);
    best_ = genesis_hash_;
    for (const auto& [h, entry] : entries_) consider(entry);
}

Hash256 ChainStore::best_tip_by_ghost() const {
    Hash256 cursor = genesis_hash_;
    for (;;) {
        const Hash256* best = nullptr;
        std::uint64_t best_weight = 0;
        const std::vector<Hash256>& kids = children(cursor);
        for (const auto& kid : kids) {
            // An only child keeps no weight; any valid one wins.
            const ChainEntry& entry = *find(kid);
            const std::uint64_t weight =
                kids.size() == 1 ? (entry.invalid ? 0 : 1) : entry.valid_subtree;
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
