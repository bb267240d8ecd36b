// Sharding (paper §5.4: "performance can be improved by introducing
// parallelism, such as sharding"). Accounts are partitioned across shards by
// address; intra-shard transactions commit in one shard block, cross-shard
// transactions run a two-phase lock/commit across both shards (costing extra
// slots and coordination messages) — the throughput-vs-cross-traffic trade-off
// of E10.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "ledger/amount.hpp"

namespace dlt::scaling {

struct ShardTx {
    crypto::Address from;
    crypto::Address to;
    ledger::Amount amount = 0;
};

struct ShardingParams {
    std::size_t shard_count = 4;
    std::size_t per_shard_block_capacity = 100; // txs a shard commits per slot
};

struct ShardingStats {
    std::uint64_t slots = 0;
    std::uint64_t intra_committed = 0;
    std::uint64_t cross_committed = 0;
    std::uint64_t cross_messages = 0; // prepare/commit coordination traffic
};

/// Round-based sharded ledger simulation: call submit() to enqueue work, then
/// step() once per slot; each shard commits up to its capacity per slot.
/// Cross-shard transfers occupy capacity in the source shard (lock) in one
/// slot and in the destination shard (commit) in a later slot.
class ShardedLedger {
public:
    ShardedLedger(ShardingParams params, std::uint64_t seed);

    std::size_t shard_of(const crypto::Address& addr) const;

    void credit(const crypto::Address& addr, ledger::Amount amount);
    ledger::Amount balance_of(const crypto::Address& addr) const;

    /// Enqueue a transfer; returns false when the sender's funds (minus already
    /// queued spends) are insufficient.
    bool submit(const ShardTx& tx);

    /// Advance one slot across all shards.
    void step();

    std::size_t pending() const;
    const ShardingStats& stats() const { return stats_; }

    /// Committed transactions per simulated second so far.
    double throughput_tps() const;

    /// Conservation check: total balance equals total credited (invariant for
    /// property tests).
    ledger::Amount total_balance() const;

private:
    struct PendingCross {
        ShardTx tx;
        bool locked = false; // phase 1 done in source shard
    };

    struct Shard {
        std::vector<ShardTx> intra_queue;
        std::vector<PendingCross> cross_queue; // this shard is the source
    };

    ShardingParams params_;
    Rng rng_;
    std::vector<Shard> shards_;
    std::unordered_map<crypto::Address, ledger::Amount> balances_;
    std::unordered_map<crypto::Address, ledger::Amount> reserved_; // queued spends
    ShardingStats stats_;
};

} // namespace dlt::scaling
