// The simulation scaffolding NakamotoNetwork and dag::DagNetwork share: one
// scheduler, a net::Network on an unstructured overlay with a SimTransportHub
// endpoint and a TxRelay per peer, the transaction lifecycle tracker, and the
// two hooks attack drivers use, a relay filter and a hook that withholds a
// block a peer just made.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/relay.hpp"
#include "crypto/keys.hpp"
#include "ledger/block.hpp"
#include "ledger/mempool.hpp"
#include "net/network.hpp"
#include "net/transport/sim_transport.hpp"
#include "obs/txlifecycle.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus {

class SimHarness {
public:
    virtual ~SimHarness() = default;
    SimHarness(const SimHarness&) = delete;
    SimHarness& operator=(const SimHarness&) = delete;

    /// Advance virtual time.
    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }
    sim::Scheduler& scheduler() { return scheduler_; }
    std::size_t node_count() const { return txs_.size(); }

    /// True when every peer holds the same tip (the same tip set, in a DAG).
    virtual bool converged() const = 0;

    /// Inject a transaction at `origin`; it gossips to all peers.
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin = 0);
    /// One peer's mempool (admission stats, fee-rate floor, resident size) —
    /// how fee-bidding wallets in the workload engine read the market.
    const ledger::Mempool& mempool_of(net::NodeId node) const;

    /// Interposition hook for attack strategies, invoked after a peer builds
    /// a block, before it is broadcast. Returning true keeps the honest path
    /// (local adoption, then broadcast). Returning false *withholds* the
    /// block: it joins the builder's own index only (the builder keeps
    /// building on it), and the strategy decides when, if ever, to release it
    /// via publish_block(). nullptr restores honest behaviour at every node.
    using MinedBlockHook = std::function<bool(net::NodeId, const ledger::Block&)>;
    void set_mined_block_hook(MinedBlockHook hook) { mined_hook_ = std::move(hook); }
    /// Broadcast a block already in `node`'s index (the release half of a
    /// withhold/release strategy). Peers that already have it drop it.
    virtual void publish_block(net::NodeId node, const Hash256& hash) = 0;

    /// Relay filter: invoked per (relaying node, candidate peer, topic) before
    /// a peer relays a transaction or block; returning false drops that hop
    /// unsent. Models adversarial routing (an eclipse attacker refusing to
    /// bridge traffic to its victim) without touching link state: fetch
    /// replies and push_block() are never filtered. nullptr clears it.
    using RelayFilter =
        std::function<bool(net::NodeId at, net::NodeId to, const std::string& topic)>;
    void set_relay_filter(RelayFilter filter) { relay_filter_ = std::move(filter); }
    /// Send `block` from one peer to another point to point, as a fetch reply
    /// travels (an attacker feeding its victim a private fork).
    void push_block(net::NodeId from, net::NodeId to, const ledger::Block& block);

    const net::TrafficStats& traffic() const { return network_->stats(); }
    /// Transaction lifecycle telemetry, observed from peer 0.
    const obs::TxLifecycleTracker& lifecycle() const { return lifecycle_; }
    obs::TxLifecycleTracker& lifecycle() { return lifecycle_; }
    /// Underlying simulated network (fault injection: apply a FaultPlan,
    /// partition/heal, churn).
    net::Network& network() { return *network_; }
    /// The address one peer's blocks pay their coinbase to.
    const crypto::Address& miner_address(net::NodeId node) const { return miners_.at(node); }

protected:
    /// Peers fork their streams from rng_, after the network forked its own.
    SimHarness(std::uint64_t seed, std::size_t node_count, const net::LinkParams& link,
               const ledger::MempoolConfig& mempool, std::uint64_t finality_depth,
               const std::string& chain_tag);

    net::transport::Transport& endpoint(net::NodeId node) { return hub_->endpoint(node); }
    TxRelay& txs(net::NodeId node) { return txs_.at(node); }
    /// False when the hook withholds `block`, just made at `node`.
    bool release(net::NodeId node, const ledger::Block& block) const {
        return !mined_hook_ || mined_hook_(node, block);
    }

    sim::Scheduler scheduler_;
    Rng rng_;

private:
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<net::transport::SimTransportHub> hub_;
    obs::TxLifecycleTracker lifecycle_;
    std::deque<TxRelay> txs_;
    std::vector<crypto::Address> miners_;
    MinedBlockHook mined_hook_;
    RelayFilter relay_filter_;
};

} // namespace dlt::consensus
