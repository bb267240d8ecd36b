#include "consensus/bitcoinng.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dlt::consensus {

BitcoinNgSimulation::BitcoinNgSimulation(BitcoinNgParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
    DLT_EXPECTS(params_.node_count >= 2);
}

void BitcoinNgSimulation::start() {
    started_at_ = scheduler_.now();
    // The genesis key block elects an initial leader, as in the protocol: the
    // chain never runs leaderless.
    on_key_block(static_cast<std::uint32_t>(rng_.uniform(params_.node_count)));
    schedule_workload();
    schedule_key_block_race();
}

void BitcoinNgSimulation::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

void BitcoinNgSimulation::schedule_workload() {
    if (params_.tx_rate <= 0) return;
    const double gap = rng_.exponential(params_.tx_rate);
    scheduler_.schedule_after(gap, [this] {
        mempool_arrivals_.push_back(scheduler_.now());
        schedule_workload();
    });
}

void BitcoinNgSimulation::schedule_key_block_race() {
    if (race_event_) scheduler_.cancel(*race_event_);
    const double delay = rng_.exponential(1.0 / params_.key_block_interval);
    race_event_ = scheduler_.schedule_after(delay, [this] {
        race_event_.reset();
        const auto winner = static_cast<std::uint32_t>(rng_.uniform(params_.node_count));
        on_key_block(winner);
        schedule_key_block_race();
    });
}

void BitcoinNgSimulation::on_key_block(std::uint32_t winner) {
    ++stats_.key_blocks;
    if (leader_ && *leader_ != winner) {
        ++stats_.leader_switches;
        // Microblocks the new leader hasn't seen (those within one propagation
        // delay of the switch) are pruned: model as the last microblock's worth
        // of transactions returning to the mempool as orphans.
        const std::size_t orphaned = std::min<std::size_t>(
            stats_.txs_serialized, params_.max_txs_per_microblock / 4);
        stats_.txs_orphaned += orphaned;
    }
    leader_ = winner;
    if (!micro_event_) schedule_microblock();
}

void BitcoinNgSimulation::schedule_microblock() {
    micro_event_ = scheduler_.schedule_after(params_.microblock_interval, [this] {
        micro_event_.reset();
        emit_microblock();
        schedule_microblock();
    });
}

void BitcoinNgSimulation::emit_microblock() {
    if (!leader_) return;
    const std::size_t take =
        std::min(params_.max_txs_per_microblock, mempool_arrivals_.size());
    if (take > 0) {
        ++stats_.microblocks;
        for (std::size_t i = 0; i < take; ++i)
            inclusion_latencies_.push_back(scheduler_.now() - mempool_arrivals_[i]);
        mempool_arrivals_.erase(mempool_arrivals_.begin(),
                                mempool_arrivals_.begin() +
                                    static_cast<std::ptrdiff_t>(take));
        stats_.txs_serialized += take;
    }
}

double BitcoinNgSimulation::throughput_tps() const {
    const double elapsed = scheduler_.now() - started_at_;
    if (elapsed <= 0) return 0;
    return static_cast<double>(stats_.txs_serialized) / elapsed;
}

std::optional<double> BitcoinNgSimulation::mean_inclusion_latency() const {
    if (inclusion_latencies_.empty()) return std::nullopt;
    double sum = 0;
    for (const double lat : inclusion_latencies_) sum += lat;
    return sum / static_cast<double>(inclusion_latencies_.size());
}

} // namespace dlt::consensus
