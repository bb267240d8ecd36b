// Nakamoto consensus (paper §2.4: proof of work plus a branch-selection rule),
// implemented once. NakamotoEngine is one peer over net::transport::Transport:
// the exponential mining race at its hash share (the standard Poisson model of
// PoW, with optional retargeting), block receive, relay and orphan-parent fetch
// through a BlockRelay (relay.hpp), longest-chain or GHOST fork choice over a
// ChainStore that marks invalid subtrees, and reorgs through its host's
// connect and disconnect. NakamotoNetwork runs N engines over a SimHarness,
// each on an in-memory UTXO set, with the telemetry behind experiments E1-E3
// and the attack hooks of E27; core::Replica hosts one engine per dlt-node.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "consensus/events.hpp"
#include "consensus/relay.hpp"
#include "consensus/sim_harness.hpp"
#include "crypto/keys.hpp"
#include "ledger/chain.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"
#include "ledger/validation.hpp"
#include "net/network.hpp"

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
/// "tx" (TxRelay) and "blk", "getblk", "blkreply" (BlockRelay).
class NakamotoEngine final : private BlockIndex {
public:
    /// Blocks go into `index` (genesis plus what the host recovered); the
    /// engine starts at the host's `tip`. `hash_share` is this node's fraction
    /// of the hash power (0: never mines); a fetch is retried every `sync_interval`.
    NakamotoEngine(net::transport::Transport& transport, NakamotoHost& host,
                   ledger::ChainStore& index, const Hash256& tip, TxRelay& txs,
                   const NakamotoParams& params, double hash_share,
                   crypto::Address miner, Rng rng,
                   double sync_interval = BlockRelay::kSyncInterval);
    ~NakamotoEngine() { stop(); }
    NakamotoEngine(const NakamotoEngine&) = delete;
    NakamotoEngine& operator=(const NakamotoEngine&) = delete;

    /// Begin mining.
    void start();
    /// Cancel every timer; the engine idles until fed again.
    void stop();
    /// Feed one transport message (other topics and bad payloads are dropped).
    void handle(net::transport::PeerId from, const std::string& topic, ByteView payload) {
        blocks_.handle(from, topic, payload);
    }
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

    /// Blocks parked until their parent arrives.
    std::size_t orphan_count() const { return blocks_.orphan_count(); }

private:
    bool has(const Hash256& hash) const override { return index_.contains(hash); }
    const ledger::Block* find(const Hash256& hash) const override;
    std::vector<Hash256> parents(const ledger::Block& block) const override {
        return {block.header.prev_hash};
    }
    void insert(const ledger::Block& block) override;
    void settle() override; // fork choice: reorg to the best valid tip
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
    Hash256 tip_;
    bool mining_ = false;
    ChainEvents events_;
    NakamotoStats stats_;
    BlockRelay blocks_;
    std::optional<net::transport::TimerId> mining_timer_;
};

/// A simulated Nakamoto network: N engines over a SimHarness on an
/// unstructured overlay, each hosted on an in-memory UTXO set.
class NakamotoNetwork final : public SimHarness {
public:
    explicit NakamotoNetwork(NakamotoParams params, std::uint64_t seed);
    ~NakamotoNetwork() override;

    /// Begin mining at every node.
    void start();

    void publish_block(net::NodeId node, const Hash256& hash) override;

    /// Scale total network hash power (1.0 = one block per block_interval at
    /// genesis difficulty). With retargeting enabled, the interval recovers
    /// after the next adjustment; without it, blocks stay proportionally
    /// faster — the experiment behind §2.7's scalability observation.
    void set_network_hashrate(double multiplier);

    /// Difficulty bits a block extending `tip` must carry (per the retarget
    /// schedule; genesis bits when retargeting is off).
    std::uint32_t next_bits(net::NodeId node, const Hash256& tip) const;

    /// Observed mean block interval over the last `window` blocks of the
    /// canonical chain (timestamp deltas).
    std::optional<double> observed_interval(std::size_t window = 32) const;

    // --- Inspection -------------------------------------------------------------

    /// Active tip of one peer.
    const Hash256& tip_of(net::NodeId node) const;

    /// Chain height at one peer's active tip.
    std::uint64_t height_of(net::NodeId node) const;

    bool converged() const override;

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
    /// Blocks one peer has parked until their parent arrives.
    std::size_t orphan_count(net::NodeId node) const;

    /// Observer hooks for one peer's chain events (see ChainEvents). Any node
    /// may be observed. Defaults to peer 0, the historically observed replica.
    ChainEvents& events(net::NodeId node = 0);
    const ledger::ChainStore& chain_of(net::NodeId node) const;
    const ledger::UtxoSet& utxo_of(net::NodeId node) const;

private:
    class Peer;

    /// Peer 0's tip moved: lifecycle stamps and the reorg trace event.
    void observe_reorg(const std::vector<Hash256>& disconnected,
                       const std::vector<Hash256>& connected);

    NakamotoParams params_;
    ledger::Block genesis_;
    std::vector<std::unique_ptr<Peer>> peers_;
    mutable NakamotoStats stats_; // filled by stats()
};

} // namespace dlt::consensus
