// Replica: one consensus node written against net::transport::Transport, so
// the same protocol logic runs inside the deterministic simulator
// (SimTransport) and as a real networked process (TcpTransport under
// dlt-node) — the deployment mode E29 measures against its sim prediction.
//
// Two engines (ReplicaEngine):
//
//   kNakamoto — proof-of-work longest chain. Block discovery is the standard
//     Poisson race (each replica holds 1/n of the hash power, so the network
//     mines one block per block_interval in expectation), blocks flood to all
//     peers, branches are tracked in an in-memory ChainStore and the most-work
//     tip wins (ties to the lower hash — the network-wide rule the sim uses);
//     a block that fails check_on_tip is tainted with its subtree.
//     Missing ancestry is fetched hop-by-hop ("getblk" walk-back), which also
//     serves as the catch-up path after a restart or partition.
//
//   kPbft — one consensus::PbftEngine, the engine PbftCluster simulates,
//     ordering the blocks the primary assembles: digest-matched 2f+1 quorums
//     and view change. The primary proposes at most one block per
//     block_interval, on its committed tip; a backup votes only for a block
//     that fully validates on its own tip. A lagging replica catches up by
//     requesting committed blocks by sequence number ("getseq") and connects
//     one once f+1 peers return it — the path E29's restart cells exercise.
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
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "consensus/pbft.hpp"
#include "core/persistent_node.hpp"
#include "ledger/chain.hpp"
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
    std::uint32_t genesis_bits = 0x207fffff;
    /// Durable state root for this replica (created on first open).
    std::filesystem::path data_dir;
    StateEngine state_engine = StateEngine::kInMemory;
    storage::FsyncMode fsync = storage::FsyncMode::kNever;
    /// Seed for the replica's private randomness (mining race, peer picks).
    std::uint64_t seed = 1;
    /// Seconds between catch-up probes (Nakamoto: a tip request to a random
    /// peer; PBFT: a sequence request to every peer); also the bootstrap
    /// delay after start().
    double sync_interval = 0.5;
};

class Replica : private consensus::PbftHost {
public:
    /// Opens (or recovers) the durable node under config.data_dir and
    /// installs the transport handler. Timers start at start().
    Replica(net::transport::Transport& transport, ReplicaConfig config);

    /// Arm the engine timers (mining / proposal / catch-up probes).
    void start();
    /// Cancel timers and stop reacting to messages. The durable node needs no
    /// flush — every connect was WAL-committed when it happened.
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
    std::size_t mempool_size() const { return mempool_.size(); }
    PersistentNode& node() { return node_; }
    const ReplicaConfig& config() const { return config_; }

private:
    // Shared paths -----------------------------------------------------------
    void on_message(net::transport::PeerId from, const std::string& topic,
                    ByteView payload);
    ledger::Block assemble_block();
    /// Throws ValidationError unless `block` fully validates on the durable
    /// tip (structure, spends, coinbase ceiling) and extends it.
    void check_on_tip(const ledger::Block& block) const;
    void connected(const ledger::Block& block);
    void disconnected(const ledger::Block& block);
    net::transport::PeerId random_peer();
    void arm_sync_timer();

    // Nakamoto ---------------------------------------------------------------
    void nk_handle_block(const ledger::Block& block, net::transport::PeerId from,
                         bool relay);
    void nk_try_insert(const ledger::Block& block);
    void nk_update_active_tip();
    Hash256 nk_select_tip() const;
    void nk_mark_invalid(const Hash256& hash);
    void nk_request_block(const Hash256& hash, net::transport::PeerId from);
    void nk_schedule_mining();
    void nk_sync_probe();

    // PBFT: the engine's host, ordering one block per batch ------------------
    std::optional<std::vector<Bytes>> next_batch(std::uint64_t seq,
                                                 bool interval_elapsed) override;
    void execute(std::uint64_t seq, std::uint32_t view,
                 std::vector<Bytes> batch) override;
    bool has_pending() const override { return !mempool_.empty(); }
    bool accepts(std::uint64_t seq, const std::vector<Bytes>& batch) override;
    bool connect_committed(const ledger::Block& block);
    void pbft_sync_probe();

    net::transport::Transport& transport_;
    ReplicaConfig config_;
    ledger::ValidationRules rules_;
    Rng rng_;

    PersistentNode node_;
    ledger::Mempool mempool_;
    crypto::Address miner_;

    // Nakamoto branch tracking (seeded from the durable canonical chain).
    ledger::ChainStore chain_;
    std::unordered_map<Hash256, std::vector<ledger::Block>> orphans_; // by parent
    std::unordered_set<Hash256> invalid_;
    std::unordered_set<Hash256> requested_; // ancestor fetches in flight
    std::optional<net::transport::TimerId> mining_timer_;

    std::unique_ptr<consensus::PbftEngine> pbft_; // kPbft only
    /// Catch-up: the block hash each peer returned for height()+1.
    std::unordered_map<net::transport::PeerId, Hash256> seq_claims_;

    std::optional<net::transport::TimerId> sync_timer_;
    bool running_ = false;

    // Lifecycle latencies for locally submitted transactions.
    std::unordered_map<Hash256, double> submitted_at_;
    /// Every txid ever admitted, relayed, or seen on a connected block. The
    /// simulator's gossip overlay deduplicates deliveries at the overlay
    /// layer; over raw sockets a late relay would re-admit a tx that already
    /// confirmed (record txs carry no UTXO conflict to stop a second
    /// inclusion), so the replica suppresses re-entry itself.
    std::unordered_set<Hash256> seen_txs_;
    std::vector<double> latencies_;
    std::uint64_t confirmed_txs_ = 0;
};

} // namespace dlt::core
