// Nakamoto consensus (paper §2.4: proof of work plus a branch-selection rule),
// implemented once. NakamotoEngine is one peer over net::transport::Transport:
// the exponential mining race at its hash share (the standard Poisson model of
// PoW, with optional retargeting), block relay to every peer but the sender,
// orphan-parent fetch that asks again every sync interval, longest-chain or
// GHOST fork choice over a ChainStore that marks invalid subtrees, and reorgs
// through its host's connect and disconnect. NakamotoNetwork runs N engines
// over a SimTransportHub, each on an in-memory UTXO set, with the telemetry
// behind experiments E1-E3 and the attack hooks of E27; core::Replica hosts
// one engine per dlt-node.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "consensus/events.hpp"
#include "crypto/keys.hpp"
#include "ledger/chain.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"
#include "ledger/validation.hpp"
#include "net/network.hpp"
#include "net/transport/sim_transport.hpp"
#include "obs/txlifecycle.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus {

/// Branch-selection policy (paper §2.4: "a branch selection algorithm is used
/// by peers to decide which branch to accept").
enum class BranchRule { kLongestChain, kGhost };

struct NakamotoParams {
    std::size_t node_count = 16;
    /// Expected seconds between blocks network-wide (Bitcoin: 600, Ethereum: ~15).
    double block_interval = 600.0;
    BranchRule branch_rule = BranchRule::kLongestChain;
    std::size_t max_block_bytes = 1'000'000;
    std::size_t max_block_txs = 10'000;
    ledger::ValidationRules validation{};
    net::LinkParams link{};
    std::size_t overlay_degree = 4;
    /// Per-peer mempool policy (bounds, relay floor, expiry, RBF bump). The
    /// default reproduces the historical greedy pool exactly.
    ledger::MempoolConfig mempool{};
    /// Relative hash power per node; empty means uniform. Normalized internally.
    std::vector<double> hashrate_shares;
    std::string chain_tag = "nakamoto";

    /// Difficulty retargeting (the mechanism that keeps Bitcoin's interval at
    /// 10 minutes no matter how much hash power joins — E2's flat-scaling
    /// claim). When disabled, difficulty stays at genesis bits.
    bool enable_retargeting = false;
    ledger::RetargetParams retarget{};

    /// Confirmations needed before the lifecycle tracker stamps a transaction
    /// k-deep-final (the k of §2.4's probabilistic finality).
    std::uint64_t finality_depth = 6;
};

/// Results counted while engines run. Mirrored into the global
/// MetricsRegistry (consensus_blocks_mined_total, consensus_reorgs_total,
/// consensus_invalid_blocks_total).
struct NakamotoStats {
    std::uint64_t blocks_mined = 0;
    std::uint64_t reorgs = 0;
    std::uint64_t invalid_blocks = 0;
};

/// One node's transaction path, shared by every engine that gossips
/// transactions (NakamotoEngine and the PBFT replica): a seen-set of txids
/// (received from a peer, submitted here, or confirmed on a connected block),
/// then mempool admission. A transaction submitted here goes to every peer;
/// where one received from a peer goes next is its engine's choice. A "tx"
/// frame is the sender's txid, then the transaction: a duplicate costs one
/// 32-byte lookup, and the set only ever holds txids computed from decoded
/// transactions, so a false id drops only its own frame.
class TxRelay {
public:
    /// With a `lifecycle` tracker, stamps first-seen and mempool admission.
    TxRelay(net::transport::Transport& transport, const ledger::MempoolConfig& config,
            obs::TxLifecycleTracker* lifecycle = nullptr);

    /// Admit a transaction submitted here and broadcast it; false when it was
    /// seen before or the pool refused it (a refused one may be resubmitted).
    bool submit(const ledger::Transaction& tx);
    /// Handle one "tx" frame: dedup, then admission. True when the pool
    /// admitted it. Sends nothing on: NakamotoEngine floods an admitted frame
    /// to every peer but `from`, and a PBFT replica relays nothing. Throws
    /// DecodeError on a malformed frame.
    bool handle(net::transport::PeerId from, ByteView frame);
    /// Send one transaction to one peer as a "tx" frame.
    void send(net::transport::PeerId to, const ledger::Transaction& tx);
    /// A block joined the active chain: its txids are seen, its txs leave the pool.
    void connected(const ledger::Block& block);
    /// A block left the active chain: its txs return to the pool.
    void disconnected(const ledger::Block& block);

    ledger::Mempool& mempool() { return mempool_; }
    const ledger::Mempool& mempool() const { return mempool_; }

private:
    bool admit(const ledger::Transaction& tx, net::transport::PeerId from);

    net::transport::Transport& transport_;
    ledger::Mempool mempool_;
    obs::TxLifecycleTracker* lifecycle_;
    std::unordered_set<Hash256> seen_;
};

/// What an engine needs from the object that owns its chain state. All calls
/// arrive on the transport's callback thread.
class NakamotoHost {
public:
    virtual ~NakamotoHost() = default;
    /// Coins at the active tip; block templates spend from them.
    virtual const ledger::UtxoSet& utxo() const = 0;
    /// Apply `block`, which extends the active tip. Throws ValidationError,
    /// with the state unchanged, when the block does not connect.
    virtual void connect(const ledger::Block& block) = 0;
    /// Roll back `block`, the active tip.
    virtual void disconnect(const ledger::Block& block) = 0;
    /// A block this node just mined: false withholds it, so it joins this
    /// node's chain only, until NakamotoEngine::publish releases it.
    virtual bool release(const ledger::Block&) { return true; }
    /// Observer: the tip moved (`disconnected` tip first, `connected` oldest first).
    virtual void on_reorg(const std::vector<Hash256>& /*disconnected*/,
                          const std::vector<Hash256>& /*connected*/) {}
};

/// One proof-of-work peer, identified by its transport peer id. Wire topics:
/// "tx" and "blk" are relays (the only traffic a relay filter drops), "getblk"
/// asks one peer for a block by hash, and "blkreply" carries a block point to
/// point (a fetch reply or a direct push), which is never relayed on.
class NakamotoEngine {
public:
    /// Blocks go into `index` (genesis plus what the host recovered); the
    /// engine starts at the host's `tip`. `hash_share` is this node's fraction
    /// of the hash power (0: never mines); a fetch is retried every `sync_interval`.
    NakamotoEngine(net::transport::Transport& transport, NakamotoHost& host,
                   ledger::ChainStore& index, const Hash256& tip, TxRelay& txs,
                   const NakamotoParams& params, double hash_share,
                   crypto::Address miner, Rng rng, double sync_interval = 0.5);
    ~NakamotoEngine() { stop(); }
    NakamotoEngine(const NakamotoEngine&) = delete;
    NakamotoEngine& operator=(const NakamotoEngine&) = delete;

    /// Begin mining.
    void start();
    /// Cancel every timer; the engine idles until fed again.
    void stop();
    /// Feed one transport message (other topics and bad payloads are dropped).
    void handle(net::transport::PeerId from, const std::string& topic, ByteView payload);
    /// Scale the network's hash power (see NakamotoNetwork); a miner redraws.
    void set_network_hashrate(double multiplier);
    /// Broadcast a block from the index (the release half of withholding).
    void publish(const Hash256& hash);
    /// Observer hooks for this node's chain events.
    ChainEvents& events() { return events_; }

    const Hash256& tip() const { return tip_; }
    std::uint64_t height() const { return index_.find(tip_)->height; }
    /// Difficulty bits a block extending `tip` must carry.
    std::uint32_t next_bits(const Hash256& tip) const;
    const NakamotoStats& stats() const { return stats_; }

private:
    void on_block(net::transport::PeerId from, ByteView payload, bool relay);
    /// Index `block` and every orphan it unblocks, then update the tip.
    void adopt(ledger::Block block);
    void request(const Hash256& hash, net::transport::PeerId peer);
    void retry_requests();
    void update_tip();
    void schedule_mining();
    void mine();

    net::transport::Transport& transport_;
    NakamotoHost& host_;
    ledger::ChainStore& index_;
    TxRelay& txs_;
    NakamotoParams params_;
    double hash_share_;
    double network_hashrate_ = 1.0;
    crypto::Address miner_;
    Rng rng_;
    double sync_interval_;
    Hash256 tip_;
    bool mining_ = false;
    ChainEvents events_;
    NakamotoStats stats_;
    std::map<Hash256, ledger::Block> orphans_; // parent not indexed yet
    std::unordered_set<Hash256> requested_;    // fetches asked since the last retry
    std::optional<net::transport::TimerId> mining_timer_;
    std::optional<net::transport::TimerId> retry_timer_;
};

/// A simulated Nakamoto network: N engines over a SimTransportHub on an
/// unstructured overlay, each hosted on an in-memory UTXO set.
class NakamotoNetwork {
public:
    explicit NakamotoNetwork(NakamotoParams params, std::uint64_t seed);
    ~NakamotoNetwork();

    /// Begin mining at every node.
    void start();

    /// Advance virtual time.
    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    /// Inject a signed transaction at `origin`; it gossips to all peers.
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin = 0);

    /// Mined-block interposition hook for attack strategies. Invoked after a
    /// node assembles a block, before it is broadcast. Returning true keeps
    /// the honest path (local adoption, then broadcast). Returning false
    /// *withholds* the block: it is inserted into the miner's own chain only
    /// (the miner keeps extending its private fork), and the strategy decides
    /// when — if ever — to release it via publish_block(). Pass nullptr to
    /// restore honest behaviour for every node.
    using MinedBlockHook = std::function<bool(net::NodeId, const ledger::Block&)>;
    void set_mined_block_hook(MinedBlockHook hook) { mined_hook_ = std::move(hook); }

    /// Broadcast a block already stored in `node`'s chain (the release half of
    /// a withhold/release strategy). Peers that already have it drop it.
    void publish_block(net::NodeId node, const Hash256& hash);

    /// Relay filter: invoked per (relaying node, candidate peer, topic) before
    /// an engine relays a transaction or block; returning false drops that
    /// hop unsent. Models adversarial routing (an eclipse attacker refusing to
    /// bridge traffic to its victim) without touching link state: fetch
    /// replies and push_block() are never filtered. nullptr clears it.
    using RelayFilter =
        std::function<bool(net::NodeId at, net::NodeId to, const std::string& topic)>;
    void set_relay_filter(RelayFilter filter) { relay_filter_ = std::move(filter); }
    /// Send `block` from one peer to another point to point, as a fetch reply
    /// travels (an attacker feeding its victim a private fork).
    void push_block(net::NodeId from, net::NodeId to, const ledger::Block& block);

    /// Scale total network hash power (1.0 = one block per block_interval at
    /// genesis difficulty). With retargeting enabled, the interval recovers
    /// after the next adjustment; without it, blocks stay proportionally
    /// faster — the experiment behind §2.7's scalability observation.
    void set_network_hashrate(double multiplier);
    double network_hashrate() const { return network_hashrate_; }

    /// Difficulty bits a block extending `tip` must carry (per the retarget
    /// schedule; genesis bits when retargeting is off).
    std::uint32_t next_bits(net::NodeId node, const Hash256& tip) const;

    /// Observed mean block interval over the last `window` blocks of the
    /// canonical chain (timestamp deltas).
    std::optional<double> observed_interval(std::size_t window = 32) const;

    // --- Inspection -------------------------------------------------------------

    std::size_t node_count() const { return peers_.size(); }

    /// Active tip of one peer.
    const Hash256& tip_of(net::NodeId node) const;

    /// Chain height at one peer's active tip.
    std::uint64_t height_of(net::NodeId node) const;

    /// True when every peer's active tip is identical.
    bool converged() const;

    /// The tip held by a strict majority of peers (nullopt when none).
    std::optional<Hash256> majority_tip() const;

    /// Blocks on peer-0's active chain, excluding genesis.
    std::vector<ledger::Block> canonical_chain() const;

    /// Total non-coinbase transactions confirmed on peer-0's active chain.
    std::uint64_t confirmed_tx_count() const;

    /// Stale blocks known to peer 0 (mined but not on its active chain).
    std::size_t stale_blocks() const;
    /// Stale fraction: stale / total mined (the consistency cost in E3).
    double stale_rate() const;

    /// Depth (confirmations) of the block containing `txid` at peer 0, nullopt
    /// while unconfirmed.
    std::optional<std::uint64_t> confirmations_of(const Hash256& txid) const;

    /// Summed over every engine.
    const NakamotoStats& stats() const;
    const net::TrafficStats& traffic() const { return network_->stats(); }

    /// Transaction lifecycle telemetry (submit → first-seen → mempool →
    /// inclusion → k-deep-final), observed from peer 0's chain.
    const obs::TxLifecycleTracker& lifecycle() const { return lifecycle_; }
    obs::TxLifecycleTracker& lifecycle() { return lifecycle_; }

    /// Observer hooks for one peer's chain events (see ChainEvents). Any node
    /// may be observed. Defaults to peer 0, the historically observed replica.
    ChainEvents& events(net::NodeId node = 0);
    /// Underlying simulated network (fault injection: apply a FaultPlan,
    /// partition/heal, churn).
    net::Network& network() { return *network_; }
    const ledger::ChainStore& chain_of(net::NodeId node) const;
    /// One peer's mempool (admission stats, fee-rate floor, resident size) —
    /// how fee-bidding wallets in the workload engine read the market.
    const ledger::Mempool& mempool_of(net::NodeId node) const;
    const ledger::UtxoSet& utxo_of(net::NodeId node) const;
    const crypto::Address& miner_address(net::NodeId node) const;
    sim::Scheduler& scheduler() { return scheduler_; }

private:
    class Peer;

    /// Peer 0's tip moved: lifecycle stamps and the reorg trace event.
    void observe_reorg(const std::vector<Hash256>& disconnected,
                       const std::vector<Hash256>& connected);

    NakamotoParams params_;
    MinedBlockHook mined_hook_;
    RelayFilter relay_filter_;
    double network_hashrate_ = 1.0;
    sim::Scheduler scheduler_;
    Rng rng_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<net::transport::SimTransportHub> hub_;
    ledger::Block genesis_;
    obs::TxLifecycleTracker lifecycle_;
    std::vector<std::unique_ptr<Peer>> peers_;
    mutable NakamotoStats stats_; // filled by stats()
};

} // namespace dlt::consensus
