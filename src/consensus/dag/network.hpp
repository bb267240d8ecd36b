// Fourth-generation DAG ledger (paper §2.6). DagEngine is one peer over
// net::transport::Transport, built like NakamotoEngine: it produces
// multi-parent records against its current tailing tips instead of racing for
// one chain head, takes transactions through a TxRelay and records through a
// BlockRelay (the receive, fetch and relay path NakamotoEngine uses), and
// executes the DAG. There are no stale blocks — parallel records are *merged*,
// not discarded: GHOSTDAG coloring (DagStore) linearizes the whole DAG into a
// total order, and each engine executes that order against the stock UTXO
// machine, skipping duplicates and first-in-order-resolving conflicts.
// Late-arriving parallel records re-linearize a suffix of the order (the DAG
// analogue of a reorg); execution diffs old vs new order and undoes/replays
// only the changed suffix.
//
// DagNetwork runs N engines over a SimHarness, the scaffolding
// NakamotoNetwork uses, so the workload engine, fault injection, attack
// drivers and observability stack drive both families through the same code
// paths — E26 compares them head-to-head.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "consensus/dag/store.hpp"
#include "consensus/events.hpp"
#include "consensus/relay.hpp"
#include "consensus/sim_harness.hpp"
#include "crypto/keys.hpp"
#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"
#include "ledger/validation.hpp"
#include "net/network.hpp"
#include "obs/txlifecycle.hpp"

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
    /// Orphan-parent fetches asked again after a sync interval (BlockRelay).
    std::uint64_t sync_retries = 0;
};

/// One DAG peer, identified by its transport peer id. Wire topics: "tx"
/// (TxRelay) and "blk", "getblk", "blkreply" (BlockRelay).
class DagEngine final : private BlockIndex {
public:
    /// A record this node just produced: false withholds it, so it joins this
    /// node's DAG only, until publish() releases it.
    using Release = std::function<bool(const ledger::Block&)>;

    /// With a `lifecycle` tracker, the engine is the observed peer: it stamps
    /// inclusion and weight finality of the transactions in its order.
    DagEngine(net::transport::Transport& transport, const ledger::Block& genesis,
              TxRelay& txs, const DagParams& params, crypto::Address miner, Rng rng,
              Release release, obs::TxLifecycleTracker* lifecycle = nullptr);
    ~DagEngine() { stop(); }
    DagEngine(const DagEngine&) = delete;
    DagEngine& operator=(const DagEngine&) = delete;

    /// Begin producing records.
    void start();
    /// Cancel every timer; the engine idles until fed again.
    void stop();
    /// Feed one transport message (other topics and bad payloads are dropped).
    void handle(net::transport::PeerId from, const std::string& topic, ByteView payload) {
        blocks_.handle(from, topic, payload);
    }
    /// Broadcast a record from the store (the release half of withholding).
    void publish(const Hash256& hash);
    /// Observer hooks for this node's linearized-order events.
    ChainEvents& events() { return events_; }

    const DagStore& store() const { return store_; }
    /// State after executing the current linear order.
    const ledger::UtxoSet& utxo() const { return utxo_; }
    /// Non-coinbase transactions executed on the current linear order.
    std::uint64_t confirmed_txs() const { return confirmed_txs_; }
    DagStats stats() const;

private:
    /// Execution bookkeeping for one record in the current linear order.
    struct ExecRecord {
        ledger::UtxoUndo undo;
        std::vector<Hash256> applied; // txids actually applied (coinbase included)
        std::uint64_t applied_payload = 0; // non-coinbase applied count
    };

    bool has(const Hash256& hash) const override {
        return store_.contains(hash) || invalid_.contains(hash);
    }
    const ledger::Block* find(const Hash256& hash) const override;
    std::vector<Hash256> parents(const ledger::Block& block) const override;
    void insert(const ledger::Block& block) override;
    void settle() override;
    bool valid(const ledger::Block& block) const;
    /// Recompute the linear order and roll execution forward/back across the
    /// changed suffix.
    void update_execution();
    void schedule_production();
    void produce();
    ledger::Block assemble_record();

    net::transport::Transport& transport_;
    TxRelay& txs_;
    DagParams params_;
    crypto::Address miner_;
    Rng rng_;
    Release release_;
    obs::TxLifecycleTracker* lifecycle_;
    DagStore store_;
    ledger::UtxoSet utxo_;
    std::vector<Hash256> exec_order_; // currently executed linear order
    std::unordered_map<Hash256, ExecRecord> exec_records_;
    /// Global txid dedup across the executed order: account-family txs
    /// bypass the UTXO set entirely, so duplicates across parallel records
    /// need explicit txid-level suppression.
    std::unordered_set<Hash256> applied_txids_;
    std::uint64_t confirmed_txs_ = 0;
    /// Records that failed validation, or build on one that did.
    std::unordered_set<Hash256> invalid_;
    /// Records confirmed during the current insert batch; their transactions
    /// get lifecycle finality stamps once execution has caught up
    /// (confirmation may land in the same batch as first inclusion).
    std::vector<std::pair<Hash256, double>> confirmed_;
    ChainEvents events_;
    DagStats stats_;
    BlockRelay blocks_;
    std::optional<net::transport::TimerId> production_timer_;
};

class DagNetwork final : public SimHarness {
public:
    explicit DagNetwork(DagParams params, std::uint64_t seed);

    /// Begin producing records at every node.
    void start();

    void publish_block(net::NodeId node, const Hash256& hash) override;
    /// The produced-record hook and its release half: SimHarness's mined-block
    /// hook and publish_block() under the DAG's names.
    void set_produced_record_hook(MinedBlockHook hook) {
        set_mined_block_hook(std::move(hook));
    }
    void publish_record(net::NodeId node, const Hash256& hash) { publish_block(node, hash); }

    // --- Inspection -------------------------------------------------------------

    /// One peer's tailing tips (first-seen order).
    const std::vector<Hash256>& tips_of(net::NodeId node) const;

    bool converged() const override;

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
    std::uint64_t confirmed_record_count() const;

    /// Summed over every engine.
    const DagStats& stats() const;

    /// Observer hooks for one peer's linearized-order events: `height` is the
    /// position in the GHOSTDAG total order, a "reorg" is a re-linearization.
    ChainEvents& events(net::NodeId node = 0);
    const DagStore& store_of(net::NodeId node) const;
    const ledger::UtxoSet& utxo_of(net::NodeId node) const;

private:
    DagParams params_;
    ledger::Block genesis_;
    std::vector<std::unique_ptr<DagEngine>> engines_;
    mutable DagStats stats_; // filled by stats()
};

} // namespace dlt::consensus::dag
