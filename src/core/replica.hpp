// Replica: one consensus node written against net::transport::Transport, so
// the same protocol logic runs inside the deterministic simulator
// (SimTransport) and as a real networked process (TcpTransport under
// dlt-node) — the deployment mode E29 measures against its sim prediction.
//
// Two engines (ReplicaEngine), each the one implementation the simulator
// runs too:
//
//   kNakamoto — one consensus::NakamotoEngine, the engine NakamotoNetwork
//     simulates: proof-of-work longest chain (each replica holds 1/n of the
//     hash power), blocks relayed to every peer, branches indexed in
//     PersistentNode's own ChainStore, a block that fails check_on_tip tainted
//     with its subtree, and missing ancestry fetched hop by hop and asked again
//     every sync_interval, which is also how a restarted replica catches up.
//
//   kPbft — one consensus::PbftEngine, the engine PbftCluster simulates,
//     ordering the blocks the primary assembles: digest-matched 2f+1 quorums
//     and view change. The primary proposes at most one block per
//     block_interval, on its committed tip; a backup votes only for a block
//     that fully validates on its own tip. A lagging replica catches up by
//     requesting committed blocks by sequence number ("getseq") and connects
//     one once f+1 peers return it — the path E29's restart cells exercise.
//
// Both take transactions through one consensus::TxRelay (seen-set and mempool
// admission), as the simulated Nakamoto peers do, and a submitted transaction
// goes to every peer. What a replica received from a peer it relays by
// engine: a Nakamoto replica floods it on, as a random overlay needs; a PBFT
// replica sends nothing on, since only the primary must hold a transaction
// promptly and its pre-prepare carries the block to the backups. To cover a
// copy lost on the way to the primary, each PBFT sync tick a backup sends the
// view's primary every pooled transaction that has waited longer than
// block_interval + sync_interval, unless that primary is known to hold it: it
// sent the transaction, pre-prepared a block carrying it, or was sent it.
//
// Durability comes from core::PersistentNode: every connect/disconnect is
// WAL-journaled under ReplicaConfig::data_dir, so a SIGKILLed replica reopens
// to its exact committed chain and rejoins by catch-up.
//
// Threading: every method except the constructor must run on the transport's
// callback thread (the daemon posts RPC work into the loop). The constructor
// installs the message handler; call start() from the loop (or before the TCP
// loop starts) to arm timers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pbft.hpp"
#include "core/persistent_node.hpp"
#include "ledger/mempool.hpp"
#include "ledger/validation.hpp"
#include "net/transport/transport.hpp"

namespace dlt::core {

enum class ReplicaEngine : std::uint8_t { kNakamoto, kPbft };

struct ReplicaConfig {
    ReplicaEngine engine = ReplicaEngine::kNakamoto;
    /// Total replica count (peer ids 0..node_count-1; ours comes from the
    /// transport). Sets the PBFT quorum and the per-replica hash share.
    std::uint32_t node_count = 4;
    /// Expected seconds between blocks network-wide (Nakamoto) or the
    /// primary's batch interval (PBFT).
    double block_interval = 2.0;
    std::size_t max_block_bytes = 1'000'000;
    std::size_t max_block_txs = 10'000;
    /// Signature policy for structural checks; deployment defaults to kSkip
    /// exactly like the million-user workload experiments (a measurement
    /// knob — see DESIGN.md).
    ledger::SigCheckMode sig_mode = ledger::SigCheckMode::kSkip;
    ledger::MempoolConfig mempool{};
    std::string chain_tag = "e29";
    /// Durable state root for this replica (created on first open).
    std::filesystem::path data_dir;
    StateEngine state_engine = StateEngine::kInMemory;
    storage::FsyncMode fsync = storage::FsyncMode::kNever;
    /// Seed for the replica's private randomness (mining race, peer picks).
    std::uint64_t seed = 1;
    /// Nakamoto: how long a block fetch waits before it is asked again of a
    /// random peer. PBFT: seconds between sequence requests to every peer
    /// and between repairs of the primary's missed transactions, and the
    /// bootstrap delay after start().
    double sync_interval = 0.5;
};

class Replica : private consensus::PbftHost, private consensus::NakamotoHost {
public:
    /// Opens (or recovers) the durable node under config.data_dir and
    /// installs the transport handler. Timers start at start().
    Replica(net::transport::Transport& transport, ReplicaConfig config);

    /// Arm the engine timers (mining / proposal / catch-up probes).
    void start();
    /// Cancel timers. A PBFT replica then ignores its peers; a Nakamoto one
    /// only stops mining and still takes blocks in, so replicas stopped
    /// together settle on one tip. The durable node needs no flush here —
    /// every connect was WAL-committed when it happened, and the node
    /// flushes its state engine when it is destroyed.
    void stop();

    /// Inject a locally submitted transaction: mempool admission, gossip to
    /// every peer, and lifecycle stamping for confirmation latency.
    /// Returns false when the mempool refused it.
    bool submit_transaction(const ledger::Transaction& tx);

    // --- Inspection (transport thread, or any thread after stop()) -----------
    const Hash256& tip() const { return node_.tip(); }
    std::uint64_t height() const { return node_.height(); }
    /// Non-coinbase transactions on the canonical chain.
    std::uint64_t confirmed_txs() const { return confirmed_txs_; }
    /// Submit→canonical-inclusion latency of each locally submitted
    /// transaction that has confirmed, in confirmation order (seconds).
    const std::vector<double>& confirmation_latencies() const { return latencies_; }
    std::size_t mempool_size() const { return txs_.mempool().size(); }
    PersistentNode& node() { return node_; }

private:
    void on_message(net::transport::PeerId from, const std::string& topic,
                    ByteView payload);
    /// Throws ValidationError unless `block` fully validates on the durable
    /// tip (structure, spends, coinbase ceiling) and extends it.
    void check_on_tip(const ledger::Block& block) const;
    void connected(const ledger::Block& block);
    void arm_sync_timer();

    // Nakamoto: the engine's host, on the durable node ----------------------
    const ledger::UtxoSet& utxo() const override { return node_.utxo(); }
    void connect(const ledger::Block& block) override;
    void disconnect(const ledger::Block& block) override;

    // PBFT: the engine's host, ordering one block per batch ------------------
    std::optional<std::vector<Bytes>> next_batch(std::uint64_t seq,
                                                 bool interval_elapsed) override;
    void execute(std::uint64_t seq, std::uint32_t view,
                 std::vector<Bytes> batch) override;
    bool has_pending() const override { return !txs_.mempool().empty(); }
    bool accepts(std::uint64_t seq, const std::vector<Bytes>& batch) override;
    bool connect_committed(const ledger::Block& block);
    void pbft_sync_probe();
    /// Backup only: send the view's primary each pooled transaction it seems
    /// to have missed, unless the primary is known to hold it.
    void repair_primary();
    /// Record that `peer` holds `txid`; false when that was known.
    bool held_by(const Hash256& txid, net::transport::PeerId peer);

    net::transport::Transport& transport_;
    ReplicaConfig config_;
    ledger::ValidationRules rules_;
    Rng rng_;

    PersistentNode node_;
    consensus::TxRelay txs_;
    crypto::Address miner_;

    std::unique_ptr<consensus::NakamotoEngine> nakamoto_; // kNakamoto only
    std::unique_ptr<consensus::PbftEngine> pbft_;         // kPbft only
    /// Catch-up: the block hash each peer returned for height()+1.
    std::unordered_map<net::transport::PeerId, Hash256> seq_claims_;
    /// Repair: the peers known to hold each pooled transaction (the peer it
    /// arrived from, the primary whose pre-prepared block carried it, and the
    /// primaries it was repaired to).
    std::unordered_map<Hash256, std::vector<net::transport::PeerId>> repaired_;

    std::optional<net::transport::TimerId> sync_timer_;
    bool running_ = false;

    // Lifecycle latencies for locally submitted transactions.
    std::unordered_map<Hash256, double> submitted_at_;
    std::vector<double> latencies_;
    std::uint64_t confirmed_txs_ = 0;
};

} // namespace dlt::core
