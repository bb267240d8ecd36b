#include "consensus/dag/network.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "consensus/dag/record.hpp"
#include "consensus/dag/tipselect.hpp"
#include "consensus/pow.hpp"
#include "crypto/sha256.hpp"
#include "ledger/difficulty.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlt::consensus::dag {

using ledger::Block;
using net::NodeId;
using net::transport::PeerId;

namespace {

std::uint64_t store_blue_score(const void* ctx, const Hash256& tip) {
    return static_cast<const DagStore*>(ctx)->blue_score_of(tip);
}

/// The registry's DAG metrics: counters summed over every engine, the tips
/// gauge and confirmations from the observed peer.
struct Metrics {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    obs::Counter& records =
        r.counter("dag_records_total", "Records produced across all peers");
    obs::Counter& invalid_records =
        r.counter("dag_invalid_records_total", "Records failing structural checks");
    obs::Counter& relinearizations =
        r.counter("dag_relinearizations_total",
                  "Execution-order suffix rewrites (DAG reorg analogue)");
    obs::Counter& skipped_txs =
        r.counter("dag_skipped_txs_total",
                  "Txs skipped in execution as duplicates or conflict losers");
    obs::Counter& confirmed_records =
        r.counter("dag_confirmed_records_total",
                  "Records past the weight/entropy thresholds at peer 0");
    obs::Gauge& tips = r.gauge("dag_tips", "Tailing tips at peer 0");
    obs::Histogram& reorder_depth =
        r.histogram("dag_reorder_depth", "Records undone per re-linearization",
                    obs::HistogramOptions{1.0, 2.0, 16});
};

Metrics& metrics() {
    static Metrics m;
    return m;
}

} // namespace

// --- Engine ----------------------------------------------------------------------------

DagEngine::DagEngine(net::transport::Transport& transport, const Block& genesis,
                     TxRelay& txs, const DagParams& params, crypto::Address miner,
                     Rng rng, Release release, obs::TxLifecycleTracker* lifecycle)
    : transport_(transport),
      txs_(txs),
      params_(params),
      miner_(miner),
      rng_(rng),
      release_(std::move(release)),
      lifecycle_(lifecycle),
      store_(genesis, DagStore::Config{params_.ghostdag_k, params_.confirm_weight,
                                       params_.confirm_entropy}),
      exec_order_{genesis.hash()},
      blocks_(transport, *this, txs, rng_, BlockRelay::kSyncInterval) {
    DLT_EXPECTS(params_.max_parents >= 1 && params_.max_parents <= kMaxParentsAbsolute);
    exec_records_.emplace(genesis.hash(), ExecRecord{});
    if (lifecycle_ != nullptr)
        store_.set_confirm_observer([this](const Hash256& hash, const DagStore::Entry&,
                                           double at) {
            confirmed_.emplace_back(hash, at);
            metrics().confirmed_records.inc();
        });
}

void DagEngine::start() { schedule_production(); }

void DagEngine::stop() {
    if (production_timer_) transport_.cancel_timer(*production_timer_);
    production_timer_.reset();
    blocks_.stop();
}

void DagEngine::publish(const Hash256& hash) {
    const Block* record = find(hash);
    DLT_EXPECTS(record != nullptr);
    blocks_.publish(*record);
}

DagStats DagEngine::stats() const {
    DagStats stats = stats_;
    stats.sync_retries = blocks_.retries();
    return stats;
}

const Block* DagEngine::find(const Hash256& hash) const {
    const DagStore::Entry* entry = store_.find(hash);
    return entry == nullptr ? nullptr : &entry->block;
}

std::vector<Hash256> DagEngine::parents(const Block& block) const {
    return parents_of(block.header);
}

bool DagEngine::valid(const Block& block) const {
    const std::vector<Hash256> parents = parents_of(block.header);
    if (!parents_well_formed(parents, params_.max_parents) ||
        std::any_of(parents.begin(), parents.end(),
                    [this](const Hash256& p) { return invalid_.contains(p); }))
        return false;
    try {
        // CheckQueue-parallel structural validation: with a non-serial global
        // pool, every signature in the record is verified as one batch.
        ledger::check_block_structure(block, params_.validation);
    } catch (const ValidationError&) {
        return false;
    }
    return true;
}

void DagEngine::insert(const Block& block) {
    if (!valid(block)) {
        invalid_.insert(block.hash());
        ++stats_.invalid_records;
        metrics().invalid_records.inc();
        return;
    }
    store_.insert(block, transport_.now());
    if (events_.on_block_inserted) events_.on_block_inserted(block, transport_.now());
}

void DagEngine::settle() {
    update_execution();
    if (lifecycle_ == nullptr) return;
    metrics().tips.set(static_cast<double>(store_.tips().size()));
    // Finality stamps for records confirmed during this batch — execution has
    // caught up, so their txs carry inclusion stamps by now.
    for (const auto& [hash, at] : confirmed_)
        for (const auto& tx : store_.entry(hash).block.txs)
            lifecycle_->on_finalized(tx.txid(), at);
    confirmed_.clear();
}

void DagEngine::update_execution() {
    const DagStore::LinearOrder lo = store_.linear_order();
    const SimTime at = transport_.now();

    // Common prefix of the old and new orders: only the suffix re-executes.
    std::size_t p = 0;
    while (p < exec_order_.size() && p < lo.order.size() && exec_order_[p] == lo.order[p])
        ++p;

    const std::size_t undone = exec_order_.size() - p;
    std::vector<Hash256> disconnected; // newest first, like a chain reorg
    if (undone > 0) {
        ++stats_.relinearizations;
        metrics().relinearizations.inc();
        metrics().reorder_depth.record(static_cast<double>(undone));
        for (std::size_t i = exec_order_.size(); i-- > p;) {
            const Hash256 h = exec_order_[i];
            const auto rit = exec_records_.find(h);
            DLT_INVARIANT(rit != exec_records_.end());
            utxo_.undo_block(rit->second.undo);
            for (const Hash256& txid : rit->second.applied) applied_txids_.erase(txid);
            confirmed_txs_ -= rit->second.applied_payload;
            if (lifecycle_ != nullptr)
                lifecycle_->on_block_disconnected(i, rit->second.applied);
            // Return the record's payload to the mempool; records that stay
            // in the DAG re-confirm on the replay below.
            txs_.disconnected(store_.entry(h).block);
            exec_records_.erase(rit);
            disconnected.push_back(h);
        }
        exec_order_.resize(p);
    }

    // Replay the new suffix in linear order. Per-tx skip on ValidationError
    // is the conflict rule: of two transactions spending the same coin in
    // parallel records, the first in the total order wins. The explicit txid
    // set additionally suppresses byte-identical duplicates (account-family
    // txs never touch the UTXO set, so they need txid-level dedup).
    std::vector<Hash256> connected;
    for (std::size_t i = p; i < lo.order.size(); ++i) {
        const Hash256& h = lo.order[i];
        const Block& blk = store_.entry(h).block;
        ExecRecord rec;
        for (const auto& tx : blk.txs) {
            const Hash256 txid = tx.txid();
            if (!applied_txids_.insert(txid).second) {
                ++stats_.skipped_txs;
                metrics().skipped_txs.inc();
                continue;
            }
            try {
                utxo_.check_and_apply(tx, rec.undo);
                rec.applied.push_back(txid);
                if (!tx.is_coinbase()) ++rec.applied_payload;
            } catch (const ValidationError&) {
                applied_txids_.erase(txid);
                ++stats_.skipped_txs;
                metrics().skipped_txs.inc();
            }
        }
        confirmed_txs_ += rec.applied_payload;
        txs_.connected(blk);
        if (lifecycle_ != nullptr) lifecycle_->on_block_connected(i, rec.applied, at);
        exec_records_.emplace(h, std::move(rec));
        exec_order_.push_back(h);
        connected.push_back(h);
    }

    if (undone == 0 && connected.empty()) return;
    auto& tracer = obs::Tracer::global();
    if (lifecycle_ != nullptr && undone > 0 && tracer.enabled()) {
        tracer.instant("dag.relinearize", "consensus", at, transport_.local_id(),
                       {{"depth", obs::trace_arg(static_cast<std::uint64_t>(undone))},
                        {"connected", obs::trace_arg(
                             static_cast<std::uint64_t>(connected.size()))}});
    }
    if (events_.on_reorg && undone > 0) events_.on_reorg(disconnected, connected, at);
    if (events_.on_tip_changed)
        events_.on_tip_changed(exec_order_.back(), exec_order_.size() - 1, at);
}

void DagEngine::schedule_production() {
    if (production_timer_) transport_.cancel_timer(*production_timer_);
    // Every peer produces at an equal share of the network rate; the
    // exponential keeps production a Poisson process like PoW discovery, so
    // interval/delay ratios compare one-to-one with the chain families.
    const double share = 1.0 / static_cast<double>(params_.node_count);
    production_timer_ = transport_.schedule_after(
        sample_block_time(share, params_.record_interval, rng_), [this] {
            production_timer_.reset();
            produce();
        });
}

void DagEngine::produce() {
    const Block record = assemble_record();
    ++stats_.records_produced;
    metrics().records.inc();
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.instant("record.produced", "consensus", transport_.now(),
                       transport_.local_id(),
                       {{"parents", obs::trace_arg(static_cast<std::uint64_t>(
                             parents_of(record.header).size()))},
                        {"txs", obs::trace_arg(static_cast<std::uint64_t>(
                             record.txs.size()))}});
    }
    // A withheld record joins this node's DAG only; new production keeps
    // approving it until publish() releases it.
    const bool release = release_(record);
    blocks_.adopt(record);
    if (release) blocks_.publish(record);
    schedule_production();
}

Block DagEngine::assemble_record() {
    const std::vector<Hash256> parents = select_parents(
        store_.tips(), params_.max_parents, rng_, &store_, &store_blue_score);

    ledger::BlockHeader header;
    set_parents(header, parents);
    for (const Hash256& p : parents)
        header.height = std::max(header.height, store_.entry(p).height + 1);
    header.timestamp = transport_.now();
    header.bits = store_.entry(store_.genesis_hash()).block.header.bits;
    header.nonce = rng_.next(); // simulated proof, as in Nakamoto
    header.proposer = miner_;
    // Parallel records can share (height, proposer, reward); salt the
    // coinbase nonce so every record's coinbase txid is unique.
    const std::uint64_t salt = rng_.next();
    return ledger::build_block(header, txs_.mempool(), utxo_, params_.max_block_bytes,
                               params_.max_block_txs, salt);
}

// --- Simulated network -----------------------------------------------------------------

DagNetwork::DagNetwork(DagParams params, std::uint64_t seed)
    // Finality is weight-driven (on_finalized), never depth-driven; a huge
    // depth keeps the tracker's k-deep rule inert.
    : SimHarness(seed, params.node_count, params.overlay_degree, params.link,
                 params.mempool, std::numeric_limits<std::uint64_t>::max() / 2,
                 params.chain_tag),
      params_(std::move(params)),
      genesis_(ledger::make_genesis(params_.chain_tag, ledger::easy_bits(1))) {
    DLT_EXPECTS(params_.record_interval > 0);
    for (NodeId id = 0; id < params_.node_count; ++id) {
        DagEngine& engine = *engines_.emplace_back(std::make_unique<DagEngine>(
            endpoint(id), genesis_, txs(id), params_, miner_address(id),
            rng_.fork(0x100 + id),
            [this, id](const Block& record) { return release(id, record); },
            id == 0 ? &lifecycle() : nullptr));
        endpoint(id).set_handler(
            [&engine](PeerId from, const std::string& topic, ByteView payload) {
                engine.handle(from, topic, payload);
            });
    }
}

void DagNetwork::start() {
    for (auto& engine : engines_) engine->start();
}

void DagNetwork::publish_block(NodeId node, const Hash256& hash) {
    engines_.at(node)->publish(hash);
}

const std::vector<Hash256>& DagNetwork::tips_of(NodeId node) const {
    return store_of(node).tips();
}

bool DagNetwork::converged() const {
    auto sorted_tips = [this](NodeId node) {
        std::vector<Hash256> t = tips_of(node);
        std::sort(t.begin(), t.end());
        return t;
    };
    const auto ref = sorted_tips(0);
    for (NodeId i = 1; i < engines_.size(); ++i)
        if (sorted_tips(i) != ref) return false;
    return true;
}

std::vector<Hash256> DagNetwork::linear_order(NodeId node) const {
    return store_of(node).linear_order().order;
}

Hash256 DagNetwork::order_digest(NodeId node) const {
    crypto::Sha256 ctx;
    for (const Hash256& h : linear_order(node)) ctx.update(h.bytes());
    return ctx.finalize();
}

double DagNetwork::blue_ratio() const {
    const auto lo = store_of(0).linear_order();
    if (lo.order.empty()) return 1.0;
    return static_cast<double>(lo.blue_count) / static_cast<double>(lo.order.size());
}

std::uint64_t DagNetwork::confirmed_tx_count() const {
    return engines_[0]->confirmed_txs();
}

std::uint64_t DagNetwork::confirmed_record_count() const {
    return store_of(0).confirmed_count();
}

const DagStats& DagNetwork::stats() const {
    stats_ = {};
    for (const auto& engine : engines_) {
        const DagStats s = engine->stats();
        stats_.records_produced += s.records_produced;
        stats_.invalid_records += s.invalid_records;
        stats_.relinearizations += s.relinearizations;
        stats_.skipped_txs += s.skipped_txs;
        stats_.sync_retries += s.sync_retries;
    }
    return stats_;
}

ChainEvents& DagNetwork::events(NodeId node) { return engines_.at(node)->events(); }

const DagStore& DagNetwork::store_of(NodeId node) const {
    return engines_.at(node)->store();
}

const ledger::UtxoSet& DagNetwork::utxo_of(NodeId node) const {
    return engines_.at(node)->utxo();
}

} // namespace dlt::consensus::dag
