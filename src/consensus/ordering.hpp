// Leader-based ordering service (paper §2.4: "Hyperledger employs an ordering
// service to determine the order of incoming transactions ... either centralized
// (static leader) or distributed (periodic leader election). The ordering
// service has full control of the block proposal process: there is no
// possibility of branching"). Clients submit transactions to the orderer, which
// cuts batches by size or timeout and delivers them to committing peers; peers
// append in order — a fork-free CS-mode ledger (E4).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "ledger/block.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus {

enum class OrdererMode {
    kStaticLeader,   // one fixed orderer
    kRotatingLeader, // round-robin leadership per batch (periodic election)
};

struct OrderingParams {
    std::size_t peer_count = 4;        // committing peers (incl. orderer hosts)
    OrdererMode mode = OrdererMode::kStaticLeader;
    std::size_t batch_size = 500;      // transactions per block
    SimDuration batch_interval = 0.5;  // cut a partial batch after this long
    net::LinkParams link{};
    std::string chain_tag = "ordering";
    /// Verify every delivered batch's transaction signatures (as one parallel
    /// CheckQueue batch on the global pool) and discard batches that fail.
    /// Off by default: E04/E11's workloads submit unsigned transactions, and
    /// ordering throughput experiments isolate sequencing cost.
    bool verify_signatures = false;
};

/// One delivered block at a committing peer.
struct OrderedBlock {
    std::uint64_t sequence = 0;
    std::uint32_t orderer = 0;
    std::vector<ledger::Transaction> txs;
    SimTime delivered_at = 0;
};

class OrderingService {
public:
    OrderingService(OrderingParams params, std::uint64_t seed);

    /// Submit a transaction to the current orderer.
    void submit(ledger::Transaction tx);

    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    /// Ledger at a committing peer (identical across peers — no branching).
    const std::vector<OrderedBlock>& ledger_of(std::uint32_t peer) const;

    /// True when all peers hold identical ledger prefixes and equal lengths
    /// after quiescence.
    bool ledgers_identical() const;

    std::uint64_t total_ordered() const { return total_ordered_; }

    /// Batches a peer discarded for failing signature verification (counted
    /// once, at peer 0). Always 0 unless params.verify_signatures is set.
    std::uint64_t rejected_batches() const { return rejected_batches_; }

    /// Mean submit->deliver latency at peer 0.
    std::optional<double> mean_delivery_latency() const;

    const net::TrafficStats& traffic() const { return network_->stats(); }

private:
    std::uint32_t current_orderer() const;
    void cut_batch();
    void arm_timer();
    void on_deliver(std::uint32_t peer, const net::Delivery& d);

    OrderingParams params_;
    sim::Scheduler scheduler_;
    Rng rng_;
    std::unique_ptr<net::Network> network_;

    std::vector<std::pair<ledger::Transaction, SimTime>> pending_; // FIFO
    std::uint64_t next_sequence_ = 1;
    std::optional<sim::EventId> batch_timer_;

    std::vector<std::vector<OrderedBlock>> ledgers_;
    /// Per-peer reorder buffer: the network can deliver block k+1 before block
    /// k (independent latency samples), but committing peers append strictly in
    /// sequence order, like a real ordered-delivery channel.
    std::vector<std::map<std::uint64_t, OrderedBlock>> reorder_;
    /// Next sequence each peer will consume (appended or, when signature
    /// verification rejects the batch, skipped — ledger.size()+1 no longer
    /// tracks the expected sequence once batches can be discarded).
    std::vector<std::uint64_t> next_seq_;
    std::uint64_t total_ordered_ = 0;
    std::uint64_t rejected_batches_ = 0;
    std::unordered_map<std::uint64_t, std::vector<SimTime>> batch_submit_times_;
    std::vector<double> latencies_;
};

} // namespace dlt::consensus
