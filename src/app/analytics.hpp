// Analytics middleware (paper §5.2 closes its middleware list with
// "analytics"). Chain-level measurements over a ChainStore: miner concentration
// (the quantitative face of the D property), fee and volume statistics, block
// interval distribution.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/keys.hpp"
#include "ledger/chain.hpp"

namespace dlt::app {

struct MinerShare {
    crypto::Address miner;
    std::uint64_t blocks = 0;
    double share = 0;
};

struct ChainAnalytics {
    std::uint64_t height = 0;
    std::uint64_t total_blocks = 0;       // including stale branches
    std::uint64_t canonical_blocks = 0;
    std::uint64_t total_transactions = 0; // non-coinbase, canonical
    ledger::Amount total_fees = 0;        // declared fees, canonical
    double mean_block_interval = 0;
    double mean_txs_per_block = 0;
    std::vector<MinerShare> miners;       // sorted by share, descending

    /// Nakamoto coefficient: smallest number of miners controlling > 50% of
    /// canonical blocks — a standard decentralization metric (low = centralized).
    std::size_t nakamoto_coefficient() const;

    /// Gini coefficient over miner block counts (0 = perfectly equal).
    double miner_gini() const;
};

/// Analyze the chain ending at `tip`.
ChainAnalytics analyze_chain(const ledger::ChainStore& chain, const Hash256& tip);

} // namespace dlt::app
