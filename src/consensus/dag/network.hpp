// Fourth-generation DAG-ledger network simulation (paper §2.6): N peers on a
// gossip overlay, each independently producing multi-parent records against
// its current tailing tips instead of racing for one chain head. There are no
// stale blocks — parallel records are *merged*, not discarded: GHOSTDAG
// coloring (DagStore) linearizes the whole DAG into a total order, and each
// peer executes that order against the stock UTXO machine, skipping
// duplicates and first-in-order-resolving conflicts. Late-arriving parallel
// records re-linearize a suffix of the order (the DAG analogue of a reorg);
// the execution layer diffs old vs new order and undoes/replays only the
// changed suffix.
//
// The surface deliberately mirrors NakamotoNetwork (submit_transaction,
// run_for, lifecycle(), events(node), mempool_of, ...) so the workload
// engine, fault injection, and observability stack drive both families
// through the same code paths — E26 compares them head-to-head.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "consensus/dag/store.hpp"
#include "consensus/events.hpp"
#include "crypto/keys.hpp"
#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"
#include "ledger/validation.hpp"
#include "net/gossip.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/txlifecycle.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus::dag {

struct DagParams {
    std::size_t node_count = 16;
    /// Expected seconds between records network-wide. Unlike a chain, pushing
    /// this below the network delay raises throughput instead of the stale
    /// rate — the point E26 measures.
    double record_interval = 10.0;
    /// Max tailing tips a record approves (dledger's k approvals).
    std::size_t max_parents = 3;
    /// PHANTOM's k for the blue-cluster rule.
    std::uint32_t ghostdag_k = 4;
    /// dledger confirmation thresholds: future-cone size and distinct
    /// approver proposers.
    std::uint64_t confirm_weight = 8;
    std::uint32_t confirm_entropy = 3;
    std::size_t max_block_bytes = 1'000'000;
    std::size_t max_block_txs = 10'000;
    ledger::ValidationRules validation{};
    net::LinkParams link{};
    std::size_t overlay_degree = 4;
    ledger::MempoolConfig mempool{};
    /// Seconds before an unanswered orphan-parent fetch is retried toward the
    /// next peer (round-robin). Without retries a single dropped d/getblock or
    /// d/block during a partition/crash window pins the hash in the
    /// requested-set forever and the orphan never resolves — flushed out by
    /// E27's eclipse and crash-during-reorg cells.
    double sync_retry_interval = 15.0;
    std::string chain_tag = "dag";
};

/// Aggregates mirrored into the MetricsRegistry (dag_records_total,
/// dag_relinearizations_total, dag_skipped_txs_total, ...).
struct DagStats {
    std::uint64_t records_produced = 0;
    std::uint64_t invalid_records = 0;
    /// Execution-order suffix rewrites (the DAG's reorg analogue).
    std::uint64_t relinearizations = 0;
    /// Transactions skipped during execution as duplicates or conflict losers.
    std::uint64_t skipped_txs = 0;
    /// Orphan-parent fetches re-sent after a lost request/reply (faulty links).
    std::uint64_t sync_retries = 0;
};

class DagNetwork {
public:
    explicit DagNetwork(DagParams params, std::uint64_t seed);

    /// Begin producing records at every node.
    void start();
    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    /// Inject a signed transaction at `origin`; it gossips to all peers.
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin = 0);

    /// Produced-record interposition hook (the DAG analogue of the Nakamoto
    /// mined-block hook). Returning true keeps the honest broadcast path;
    /// returning false withholds the record — it is inserted into the
    /// producer's own DAG only, so its later release via publish_record()
    /// forces a suffix re-linearization at every peer (the withhold/release
    /// attack GHOSTDAG is designed to bound). Pass nullptr to clear.
    using ProducedRecordHook = std::function<bool(net::NodeId, const ledger::Block&)>;
    void set_produced_record_hook(ProducedRecordHook hook) {
        produced_hook_ = std::move(hook);
    }

    /// Broadcast a record already stored in `node`'s DAG (the release half of
    /// a withhold/release strategy).
    void publish_record(net::NodeId node, const Hash256& hash);

    /// Gossip overlay (attack drivers install relay filters through this).
    net::GossipOverlay& gossip() { return *gossip_; }

    // --- Inspection -------------------------------------------------------------

    std::size_t node_count() const { return peers_.size(); }

    /// One peer's tailing tips (first-seen order).
    const std::vector<Hash256>& tips_of(net::NodeId node) const;

    /// True when every peer holds the same record set (tip sets identical).
    bool converged() const;

    /// GHOSTDAG total order at one peer (genesis first).
    std::vector<Hash256> linear_order(net::NodeId node = 0) const;

    /// sha256 over the concatenated linear order — byte-identical order ⇔
    /// identical digest (the determinism probe of E26's tests and CI).
    Hash256 order_digest(net::NodeId node = 0) const;

    /// Blue fraction of peer 0's DAG under the current virtual coloring.
    double blue_ratio() const;

    /// Non-coinbase transactions currently executed on peer 0's linear order
    /// (duplicates and conflict losers excluded).
    std::uint64_t confirmed_tx_count() const;

    /// Records confirmed by the weight/entropy thresholds at peer 0.
    std::uint64_t confirmed_record_count() const { return peers_[0].store->confirmed_count(); }

    const DagStats& stats() const { return stats_; }
    const net::TrafficStats& traffic() const { return network_->stats(); }

    /// Transaction lifecycle telemetry (submit → first-seen → mempool →
    /// DAG-inclusion → confirmation-weight-final), observed from peer 0.
    const obs::TxLifecycleTracker& lifecycle() const { return lifecycle_; }
    obs::TxLifecycleTracker& lifecycle() { return lifecycle_; }

    /// Observer hooks for one peer's linearized-order events: `height` is the
    /// position in the GHOSTDAG total order, a "reorg" is a re-linearization.
    ChainEvents& events(net::NodeId node = 0) { return observers_[node]; }
    net::Network& network() { return *network_; }
    const DagStore& store_of(net::NodeId node) const { return *peers_.at(node).store; }
    const ledger::Mempool& mempool_of(net::NodeId node) const;
    const ledger::UtxoSet& utxo_of(net::NodeId node) const;
    const crypto::Address& miner_address(net::NodeId node) const;
    sim::Scheduler& scheduler() { return scheduler_; }

private:
    /// Execution bookkeeping for one record in the current linear order.
    struct ExecRecord {
        ledger::UtxoUndo undo;
        std::vector<Hash256> applied; // txids actually applied (coinbase included)
        std::uint64_t applied_payload = 0; // non-coinbase applied count
    };

    struct Peer {
        std::unique_ptr<DagStore> store;
        ledger::UtxoSet utxo; // state after executing exec_order
        std::vector<Hash256> exec_order; // currently executed linear order
        std::unordered_map<Hash256, ExecRecord> exec_records;
        /// Global txid dedup across the executed order: account-family txs
        /// bypass the UTXO set entirely, so duplicates across parallel records
        /// need explicit txid-level suppression.
        std::unordered_set<Hash256> applied_txids;
        std::uint64_t confirmed_txs = 0; // non-coinbase txs currently executed
        ledger::Mempool mempool;
        crypto::Address miner;
        std::optional<sim::EventId> production_event;
        std::unordered_map<Hash256, ledger::Block> orphans; // by record hash
        std::unordered_map<Hash256, std::vector<Hash256>> waiting_on; // parent → orphans
        std::unordered_set<Hash256> invalid;
        /// Parent fetches in flight, hash → attempt generation. The generation
        /// invalidates stale retry timers: any resend (timeout or d/notfound)
        /// bumps it, so only the latest outstanding attempt may retry.
        std::unordered_map<Hash256, std::uint64_t> sync_requested;
        Rng rng;
    };

    void on_gossip(net::NodeId node, net::NodeId from, const std::string& topic,
                   ByteView payload);
    void handle_record(net::NodeId node, const ledger::Block& block,
                       net::NodeId from);
    void request_record(net::NodeId node, const Hash256& hash, net::NodeId from);
    /// Send one d/getblock attempt and arm its retry timer; `generation` must
    /// match the peer's sync_requested entry for the retry to fire.
    void send_sync_request(net::NodeId node, const Hash256& hash, net::NodeId target,
                           std::uint64_t generation);
    /// Next fetch target after `current`, round-robin, skipping `node` itself.
    net::NodeId next_sync_peer(net::NodeId node, net::NodeId current) const;
    /// Insert `block` plus any orphans it unblocks, then re-linearize and
    /// diff-execute.
    void insert_and_update(net::NodeId node, const ledger::Block& block);
    /// Recompute the linear order and roll execution forward/back across the
    /// changed suffix.
    void update_execution(net::NodeId node);
    void schedule_production(net::NodeId node);
    ledger::Block assemble_record(net::NodeId node);
    ChainEvents* find_events(net::NodeId node);

    DagParams params_;
    ProducedRecordHook produced_hook_;
    sim::Scheduler scheduler_;
    Rng rng_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<net::GossipOverlay> gossip_;
    std::vector<Peer> peers_;
    ledger::Block genesis_;
    DagStats stats_;
    obs::TxLifecycleTracker lifecycle_;
    std::unordered_map<net::NodeId, ChainEvents> observers_;
    /// Records confirmed at peer 0 during the current insert batch; their
    /// transactions get lifecycle finality stamps once execution has caught
    /// up (confirmation may land in the same batch as first inclusion).
    std::vector<std::pair<Hash256, double>> pending_confirmed_;
    obs::Counter* records_total_ = nullptr;        // dag_records_total
    obs::Counter* invalid_records_ = nullptr;      // dag_invalid_records_total
    obs::Counter* relinearizations_ = nullptr;     // dag_relinearizations_total
    obs::Counter* skipped_txs_ = nullptr;          // dag_skipped_txs_total
    obs::Counter* sync_retries_ = nullptr;         // dag_sync_retries_total
    obs::Counter* confirmed_records_ = nullptr;    // dag_confirmed_records_total
    obs::Gauge* tips_gauge_ = nullptr;             // dag_tips (peer 0)
    obs::Histogram* reorder_depth_ = nullptr;      // dag_reorder_depth
};

} // namespace dlt::consensus::dag
