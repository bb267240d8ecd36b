// Bitcoin-NG (paper §2.4: "Proof-of-Work is employed to determine the next
// leader, who can then propose the next sequence of blocks"). Key blocks are
// found by the usual exponential PoW race and elect a leader; between key
// blocks the leader serializes transactions into frequent microblocks. This
// decouples leader election from transaction serialization, so throughput is
// bounded by bandwidth rather than the PoW interval (E9).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus {

struct BitcoinNgParams {
    std::size_t node_count = 16;
    double key_block_interval = 600.0; // PoW race expectation (same as Bitcoin)
    double microblock_interval = 0.5;  // leader's serialization cadence
    std::size_t max_txs_per_microblock = 200;
    double tx_rate = 50.0;             // offered workload, tx/sec network-wide
};

struct BitcoinNgStats {
    std::uint64_t key_blocks = 0;
    std::uint64_t microblocks = 0;
    std::uint64_t txs_serialized = 0;   // included in some microblock
    std::uint64_t txs_orphaned = 0;     // in microblocks pruned at leader switch
    std::uint64_t leader_switches = 0;
};

/// Simulates the Bitcoin-NG pipeline at the granularity E9 needs: leader races,
/// microblock emission against an offered Poisson workload, and the microblock
/// prefix-pruning that happens when a new key block arrives at a leader that
/// hasn't heard the latest microblocks yet.
class BitcoinNgSimulation {
public:
    BitcoinNgSimulation(BitcoinNgParams params, std::uint64_t seed);

    void start();
    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    const BitcoinNgStats& stats() const { return stats_; }

    /// Serialized transactions per simulated second so far.
    double throughput_tps() const;

    /// Mean time from transaction arrival to inclusion in a microblock.
    std::optional<double> mean_inclusion_latency() const;

private:
    void schedule_workload();
    void schedule_key_block_race();
    void schedule_microblock();
    void on_key_block(std::uint32_t winner);
    void emit_microblock();

    BitcoinNgParams params_;
    sim::Scheduler scheduler_;
    Rng rng_;

    std::optional<std::uint32_t> leader_;
    std::vector<SimTime> mempool_arrivals_; // pending tx arrival times
    std::vector<double> inclusion_latencies_;
    std::optional<sim::EventId> micro_event_;
    std::optional<sim::EventId> race_event_;
    SimTime started_at_ = 0;
    BitcoinNgStats stats_;
};

} // namespace dlt::consensus
