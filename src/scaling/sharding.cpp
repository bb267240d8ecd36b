#include "scaling/sharding.hpp"

#include <unordered_map>

#include "common/assert.hpp"

namespace dlt::scaling {

namespace {

constexpr double kSlotSeconds = 1.0; // seconds per shard block slot

} // namespace

ShardedLedger::ShardedLedger(ShardingParams params, std::uint64_t seed)
    : params_(params), rng_(seed), shards_(params.shard_count) {
    DLT_EXPECTS(params.shard_count >= 1);
    DLT_EXPECTS(params.per_shard_block_capacity >= 1);
}

std::size_t ShardedLedger::shard_of(const crypto::Address& addr) const {
    // Partition by the first address byte — uniform for hash-derived addresses.
    return addr[0] % params_.shard_count;
}

void ShardedLedger::credit(const crypto::Address& addr, ledger::Amount amount) {
    DLT_EXPECTS(amount >= 0);
    balances_[addr] += amount;
}

ledger::Amount ShardedLedger::balance_of(const crypto::Address& addr) const {
    const auto it = balances_.find(addr);
    return it == balances_.end() ? 0 : it->second;
}

bool ShardedLedger::submit(const ShardTx& tx) {
    if (tx.amount <= 0) return false;
    const ledger::Amount available = balance_of(tx.from) - reserved_[tx.from];
    if (available < tx.amount) return false;
    reserved_[tx.from] += tx.amount;

    const std::size_t src = shard_of(tx.from);
    const std::size_t dst = shard_of(tx.to);
    if (src == dst) {
        shards_[src].intra_queue.push_back(tx);
    } else {
        shards_[src].cross_queue.push_back(PendingCross{tx, false});
    }
    return true;
}

void ShardedLedger::step() {
    ++stats_.slots;
    // Each shard independently fills its block for this slot.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = shards_[s];
        std::size_t capacity = params_.per_shard_block_capacity;

        // Phase-2 commits first: cross transfers already locked whose
        // destination is this shard (they consume destination capacity).
        for (auto& other : shards_) {
            for (auto it = other.cross_queue.begin();
                 capacity > 0 && it != other.cross_queue.end();) {
                if (it->locked && shard_of(it->tx.to) == s) {
                    balances_[it->tx.to] += it->tx.amount;
                    ++stats_.cross_committed;
                    stats_.cross_messages += 1; // commit message
                    --capacity;
                    it = other.cross_queue.erase(it);
                } else {
                    ++it;
                }
            }
        }

        // Intra-shard transfers.
        while (capacity > 0 && !shard.intra_queue.empty()) {
            const ShardTx tx = shard.intra_queue.front();
            shard.intra_queue.erase(shard.intra_queue.begin());
            balances_[tx.from] -= tx.amount;
            reserved_[tx.from] -= tx.amount;
            balances_[tx.to] += tx.amount;
            ++stats_.intra_committed;
            --capacity;
        }

        // Phase-1 locks for cross transfers originating here.
        for (auto& pending : shard.cross_queue) {
            if (capacity == 0) break;
            if (pending.locked) continue;
            balances_[pending.tx.from] -= pending.tx.amount; // funds locked
            reserved_[pending.tx.from] -= pending.tx.amount;
            pending.locked = true;
            stats_.cross_messages += 2; // prepare + ack
            --capacity;
        }
    }
}

std::size_t ShardedLedger::pending() const {
    std::size_t count = 0;
    for (const auto& shard : shards_)
        count += shard.intra_queue.size() + shard.cross_queue.size();
    return count;
}

double ShardedLedger::throughput_tps() const {
    if (stats_.slots == 0) return 0;
    const double elapsed = static_cast<double>(stats_.slots) * kSlotSeconds;
    return static_cast<double>(stats_.intra_committed + stats_.cross_committed) /
           elapsed;
}

ledger::Amount ShardedLedger::total_balance() const {
    ledger::Amount total = 0;
    for (const auto& [addr, bal] : balances_) total += bal;
    // Locked-but-uncommitted cross value is in flight (subtracted from source,
    // not yet added to destination).
    for (const auto& shard : shards_)
        for (const auto& pending : shard.cross_queue)
            if (pending.locked) total += pending.tx.amount;
    return total;
}

} // namespace dlt::scaling
