#include "app/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/assert.hpp"

namespace dlt::app {

std::size_t ChainAnalytics::nakamoto_coefficient() const {
    // miners is sorted descending by share.
    double cumulative = 0;
    std::size_t count = 0;
    for (const auto& m : miners) {
        cumulative += m.share;
        ++count;
        if (cumulative > 0.5) return count;
    }
    return miners.size();
}

double ChainAnalytics::miner_gini() const {
    if (miners.size() < 2) return 0.0;
    // Gini = sum_i sum_j |x_i - x_j| / (2 n^2 mean).
    double abs_diff_sum = 0;
    double total = 0;
    for (const auto& a : miners) {
        total += static_cast<double>(a.blocks);
        for (const auto& b : miners)
            abs_diff_sum += std::abs(static_cast<double>(a.blocks) -
                                     static_cast<double>(b.blocks));
    }
    const double n = static_cast<double>(miners.size());
    const double mean = total / n;
    if (mean <= 0) return 0.0;
    return abs_diff_sum / (2.0 * n * n * mean);
}

ChainAnalytics analyze_chain(const ledger::ChainStore& chain, const Hash256& tip) {
    DLT_EXPECTS(chain.contains(tip));
    ChainAnalytics out;
    out.total_blocks = chain.size() - 1; // exclude genesis
    out.height = chain.find(tip)->height;

    std::map<crypto::Address, std::uint64_t> by_miner;
    double prev_timestamp = -1;
    double interval_sum = 0;
    std::uint64_t intervals = 0;

    for (const auto& hash : chain.path_from_genesis(tip)) {
        const auto* entry = chain.find(hash);
        if (hash == chain.genesis_hash()) {
            prev_timestamp = entry->block.header.timestamp;
            continue;
        }
        ++out.canonical_blocks;
        ++by_miner[entry->block.header.proposer];
        for (const auto& tx : entry->block.txs) {
            if (tx.is_coinbase()) continue;
            ++out.total_transactions;
            out.total_fees += tx.declared_fee;
        }
        if (prev_timestamp >= 0) {
            interval_sum += entry->block.header.timestamp - prev_timestamp;
            ++intervals;
        }
        prev_timestamp = entry->block.header.timestamp;
    }

    if (intervals > 0)
        out.mean_block_interval = interval_sum / static_cast<double>(intervals);
    if (out.canonical_blocks > 0)
        out.mean_txs_per_block = static_cast<double>(out.total_transactions) /
                                 static_cast<double>(out.canonical_blocks);

    for (const auto& [miner, blocks] : by_miner) {
        MinerShare share;
        share.miner = miner;
        share.blocks = blocks;
        share.share = static_cast<double>(blocks) /
                      static_cast<double>(out.canonical_blocks);
        out.miners.push_back(share);
    }
    std::sort(out.miners.begin(), out.miners.end(),
              [](const MinerShare& a, const MinerShare& b) {
                  return a.blocks > b.blocks;
              });
    return out;
}

} // namespace dlt::app
