#include "consensus/dag/network.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "consensus/dag/record.hpp"
#include "consensus/dag/tipselect.hpp"
#include "consensus/pow.hpp"
#include "crypto/sha256.hpp"
#include "ledger/difficulty.hpp"

namespace dlt::consensus::dag {

using ledger::Block;
using ledger::Transaction;
using net::NodeId;

namespace {

std::uint64_t store_blue_score(const void* ctx, const Hash256& tip) {
    return static_cast<const DagStore*>(ctx)->blue_score_of(tip);
}

} // namespace

DagNetwork::DagNetwork(DagParams params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      // Finality is weight-driven (on_finalized), never depth-driven; a huge
      // depth keeps the tracker's k-deep rule inert.
      lifecycle_(std::numeric_limits<std::uint64_t>::max() / 2,
                 &obs::Tracer::global()) {
    DLT_EXPECTS(params_.node_count >= 2);
    DLT_EXPECTS(params_.record_interval > 0);
    DLT_EXPECTS(params_.max_parents >= 1 &&
                params_.max_parents <= kMaxParentsAbsolute);

    auto& registry = obs::MetricsRegistry::global();
    records_total_ = &registry.counter("dag_records_total",
                                       "Records produced across all peers");
    invalid_records_ = &registry.counter("dag_invalid_records_total",
                                         "Records failing structural checks");
    relinearizations_ = &registry.counter(
        "dag_relinearizations_total",
        "Execution-order suffix rewrites (DAG reorg analogue)");
    skipped_txs_ = &registry.counter(
        "dag_skipped_txs_total",
        "Txs skipped in execution as duplicates or conflict losers");
    sync_retries_ = &registry.counter(
        "dag_sync_retries_total",
        "Orphan-parent fetches re-sent after a lost request/reply");
    confirmed_records_ = &registry.counter(
        "dag_confirmed_records_total",
        "Records past the weight/entropy thresholds at peer 0");
    tips_gauge_ = &registry.gauge("dag_tips", "Tailing tips at peer 0");
    reorder_depth_ = &registry.histogram(
        "dag_reorder_depth", "Records undone per re-linearization",
        obs::HistogramOptions{1.0, 2.0, 16});

    genesis_ = ledger::make_genesis(params_.chain_tag, ledger::easy_bits(1));

    network_ = std::make_unique<net::Network>(scheduler_, rng_.fork(0xA));
    gossip_ = std::make_unique<net::GossipOverlay>(
        *network_, params_.node_count, net::GossipParams{},
        [this](NodeId node, NodeId from, const std::string& topic,
               ByteView payload) { on_gossip(node, from, topic, payload); });
    network_->build_unstructured_overlay(params_.overlay_degree, params_.link);

    const DagStore::Config store_cfg{params_.ghostdag_k, params_.confirm_weight,
                                     params_.confirm_entropy};
    peers_.resize(params_.node_count);
    for (std::size_t i = 0; i < params_.node_count; ++i) {
        Peer& peer = peers_[i];
        peer.store = std::make_unique<DagStore>(genesis_, store_cfg);
        peer.exec_order.push_back(genesis_.hash());
        peer.exec_records.emplace(genesis_.hash(), ExecRecord{});
        peer.mempool = ledger::Mempool(params_.mempool);
        peer.miner = crypto::PrivateKey::from_seed(params_.chain_tag + "/miner/" +
                                                   std::to_string(i))
                         .address();
        peer.rng = rng_.fork(0x100 + i);
    }

    // Peer 0 is the observed replica: mempool drops become lifecycle terminal
    // events, and record confirmations become finality stamps (deferred to
    // pending_confirmed_ so inclusion always precedes finality).
    peers_[0].mempool.set_drop_observer(
        [this](const Hash256& txid, ledger::MempoolDropReason reason, SimTime at) {
            lifecycle_.on_dropped(
                txid, 0, at,
                static_cast<obs::TxDropReason>(static_cast<std::uint8_t>(reason)));
        });
    peers_[0].store->set_confirm_observer(
        [this](const Hash256& hash, const DagStore::Entry&, double at) {
            pending_confirmed_.emplace_back(hash, at);
            confirmed_records_->inc();
        });
}

void DagNetwork::start() {
    for (NodeId i = 0; i < peers_.size(); ++i) schedule_production(i);
}

void DagNetwork::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

void DagNetwork::submit_transaction(const Transaction& tx, NodeId origin) {
    lifecycle_.on_submitted(tx.txid(), scheduler_.now(), origin);
    gossip_->broadcast(origin, "tx", encode_to_bytes(tx));
}

void DagNetwork::on_gossip(NodeId node, NodeId from, const std::string& topic,
                           ByteView payload) {
    const ScopedLogTime log_time(scheduler_.now());
    const ScopedLogNode log_node(node);
    if (topic == "tx") {
        try {
            auto tx = decode_from_bytes<Transaction>(payload);
            const Hash256 txid = tx.txid();
            if (node != from) lifecycle_.on_first_seen(txid, node, scheduler_.now());
            const ledger::AdmissionResult verdict =
                peers_[node].mempool.admit(std::move(tx), scheduler_.now());
            if (verdict == ledger::AdmissionResult::kAccepted ||
                verdict == ledger::AdmissionResult::kRbfReplaced)
                lifecycle_.on_mempool_accepted(txid, node, scheduler_.now());
        } catch (const Error&) {
        }
        return;
    }
    if (topic == "block" || topic == "d/block") {
        try {
            handle_record(node, decode_from_bytes<Block>(payload), from);
        } catch (const Error&) {
        }
        return;
    }
    if (topic == "d/getblock") {
        // Orphan-parent fetch: reply with the record if we hold it, or admit
        // we can't so the asker may retry toward a better peer.
        if (payload.size() != 32) return;
        const Hash256 want = Hash256::from_bytes(payload);
        const auto* entry = peers_[node].store->find(want);
        if (entry != nullptr) {
            gossip_->send_direct(node, from, "d/block",
                                 encode_to_bytes(entry->block));
        } else if (const auto it = peers_[node].orphans.find(want);
                   it != peers_[node].orphans.end()) {
            gossip_->send_direct(node, from, "d/block",
                                 encode_to_bytes(it->second));
        } else {
            gossip_->send_direct(node, from, "d/notfound", want.bytes());
        }
        return;
    }
    if (topic == "d/notfound") {
        if (payload.size() != 32) return;
        const Hash256 want = Hash256::from_bytes(payload);
        Peer& peer = peers_[node];
        const auto it = peer.sync_requested.find(want);
        if (it == peer.sync_requested.end()) return;
        if (peer.waiting_on.count(want) != 0) {
            // Orphans still need this record: rotate to the peer after the one
            // that answered "not found" instead of abandoning the fetch.
            ++it->second;
            ++stats_.sync_retries;
            sync_retries_->inc();
            send_sync_request(node, want, next_sync_peer(node, from), it->second);
        } else {
            peer.sync_requested.erase(it);
        }
        return;
    }
}

void DagNetwork::handle_record(NodeId node, const Block& block, NodeId from) {
    Peer& peer = peers_[node];
    const Hash256 hash = block.hash();
    if (peer.store->contains(hash) || peer.orphans.count(hash) != 0 ||
        peer.invalid.count(hash) != 0)
        return;

    std::vector<Hash256> parents;
    try {
        parents = parents_of(block.header);
    } catch (const Error&) {
        peer.invalid.insert(hash);
        ++stats_.invalid_records;
        invalid_records_->inc();
        return;
    }
    if (!parents_well_formed(parents, params_.max_parents)) {
        peer.invalid.insert(hash);
        ++stats_.invalid_records;
        invalid_records_->inc();
        return;
    }

    // A record can wait on several parents at once; park it until the last
    // one arrives, fetching each missing ancestor in parallel. A parent that
    // is itself parked needs no fetch — its own ancestor requests are already
    // in flight.
    std::vector<Hash256> unresolved;
    for (const Hash256& p : parents)
        if (!peer.store->contains(p)) unresolved.push_back(p);
    if (!unresolved.empty()) {
        peer.orphans.emplace(hash, block);
        for (const Hash256& p : unresolved) {
            peer.waiting_on[p].push_back(hash);
            if (peer.orphans.count(p) == 0) request_record(node, p, from);
        }
        return;
    }
    insert_and_update(node, block);
}

void DagNetwork::request_record(NodeId node, const Hash256& hash, NodeId from) {
    Peer& peer = peers_[node];
    if (from == node) return; // locally produced: nobody to ask
    if (!peer.sync_requested.emplace(hash, 0).second) return;
    send_sync_request(node, hash, from, 0);
}

void DagNetwork::send_sync_request(NodeId node, const Hash256& hash, NodeId target,
                                   std::uint64_t generation) {
    gossip_->send_direct(node, target, "d/getblock", hash.bytes());
    // Arm the retry: if the request or its reply is lost on a faulty link
    // (partition, crash window), the entry would otherwise pin the hash in
    // sync_requested forever and the waiting orphans could never resolve.
    // The generation check makes the timer a no-op once any other path (a
    // d/notfound rotation or the record landing) has superseded this attempt.
    scheduler_.schedule_after(
        params_.sync_retry_interval, [this, node, hash, target, generation] {
            Peer& peer = peers_[node];
            const auto it = peer.sync_requested.find(hash);
            if (it == peer.sync_requested.end() || it->second != generation)
                return;
            ++it->second;
            ++stats_.sync_retries;
            sync_retries_->inc();
            send_sync_request(node, hash, next_sync_peer(node, target),
                              it->second);
        });
}

NodeId DagNetwork::next_sync_peer(NodeId node, NodeId current) const {
    NodeId next = static_cast<NodeId>((current + 1) % peers_.size());
    if (next == node) next = static_cast<NodeId>((next + 1) % peers_.size());
    return next;
}

void DagNetwork::insert_and_update(NodeId node, const Block& block) {
    Peer& peer = peers_[node];

    std::vector<Block> pending{block};
    while (!pending.empty()) {
        const Block current = std::move(pending.back());
        pending.pop_back();
        const Hash256 hash = current.hash();
        peer.sync_requested.erase(hash);
        if (!peer.store->contains(hash)) {
            try {
                // CheckQueue-parallel structural validation: with a non-serial
                // global pool, every signature in the record is verified as
                // one batch while concurrent records queue behind it.
                ledger::check_block_structure(current, params_.validation);
            } catch (const ValidationError&) {
                peer.invalid.insert(hash);
                ++stats_.invalid_records;
                invalid_records_->inc();
                continue;
            }
            peer.store->insert(current, scheduler_.now());
            if (node == 0) records_total_->inc();
            if (ChainEvents* ev = find_events(node);
                ev != nullptr && ev->on_block_inserted)
                ev->on_block_inserted(current, scheduler_.now());
        }
        // Unblock orphans that were waiting on this record; they insert only
        // once their *last* missing parent lands.
        const auto wit = peer.waiting_on.find(hash);
        if (wit != peer.waiting_on.end()) {
            const std::vector<Hash256> waiters = std::move(wit->second);
            peer.waiting_on.erase(wit);
            for (const Hash256& w : waiters) {
                const auto oit = peer.orphans.find(w);
                if (oit == peer.orphans.end()) continue;
                const auto ps = parents_of(oit->second.header);
                const bool ready = std::all_of(
                    ps.begin(), ps.end(),
                    [&](const Hash256& p) { return peer.store->contains(p); });
                if (ready) {
                    pending.push_back(std::move(oit->second));
                    peer.orphans.erase(oit);
                }
            }
        }
    }

    update_execution(node);

    if (node == 0) {
        tips_gauge_->set(static_cast<double>(peer.store->tips().size()));
        // Finality stamps for records confirmed during this batch — execution
        // has caught up, so their txs carry inclusion stamps by now.
        for (const auto& [h, at] : pending_confirmed_) {
            const DagStore::Entry* e = peer.store->find(h);
            if (e == nullptr) continue;
            for (const auto& tx : e->block.txs)
                lifecycle_.on_finalized(tx.txid(), at);
        }
        pending_confirmed_.clear();
    }
}

void DagNetwork::update_execution(NodeId node) {
    Peer& peer = peers_[node];
    const DagStore::LinearOrder lo = peer.store->linear_order();
    const SimTime at = scheduler_.now();

    // Common prefix of the old and new orders: only the suffix re-executes.
    std::size_t p = 0;
    while (p < peer.exec_order.size() && p < lo.order.size() &&
           peer.exec_order[p] == lo.order[p])
        ++p;

    const std::size_t undone = peer.exec_order.size() - p;
    std::vector<Hash256> disconnected; // newest first, like a chain reorg
    if (undone > 0) {
        ++stats_.relinearizations;
        relinearizations_->inc();
        reorder_depth_->record(static_cast<double>(undone));
        for (std::size_t i = peer.exec_order.size(); i-- > p;) {
            const Hash256 h = peer.exec_order[i];
            const auto rit = peer.exec_records.find(h);
            DLT_INVARIANT(rit != peer.exec_records.end());
            peer.utxo.undo_block(rit->second.undo);
            for (const Hash256& txid : rit->second.applied)
                peer.applied_txids.erase(txid);
            peer.confirmed_txs -= rit->second.applied_payload;
            if (node == 0)
                lifecycle_.on_block_disconnected(i, rit->second.applied);
            // Return the record's payload to the mempool; records that stay
            // in the DAG re-confirm on the replay below.
            const Block& blk = peer.store->entry(h).block;
            std::vector<Transaction> back;
            for (const auto& tx : blk.txs)
                if (!tx.is_coinbase()) back.push_back(tx);
            peer.mempool.add_back(back, at);
            peer.exec_records.erase(rit);
            disconnected.push_back(h);
        }
        peer.exec_order.resize(p);
    }

    // Replay the new suffix in linear order. Per-tx skip on ValidationError
    // is the conflict rule: of two transactions spending the same coin in
    // parallel records, the first in the total order wins. The explicit txid
    // set additionally suppresses byte-identical duplicates (account-family
    // txs never touch the UTXO set, so they need txid-level dedup).
    std::vector<Hash256> connected;
    for (std::size_t i = p; i < lo.order.size(); ++i) {
        const Hash256& h = lo.order[i];
        const Block& blk = peer.store->entry(h).block;
        ExecRecord rec;
        for (const auto& tx : blk.txs) {
            const Hash256 txid = tx.txid();
            if (!peer.applied_txids.insert(txid).second) {
                ++stats_.skipped_txs;
                skipped_txs_->inc();
                continue;
            }
            try {
                peer.utxo.check_and_apply(tx, rec.undo);
                rec.applied.push_back(txid);
                if (!tx.is_coinbase()) ++rec.applied_payload;
            } catch (const ValidationError&) {
                peer.applied_txids.erase(txid);
                ++stats_.skipped_txs;
                skipped_txs_->inc();
            }
        }
        peer.confirmed_txs += rec.applied_payload;
        peer.mempool.remove_confirmed(blk.txids());
        if (node == 0) lifecycle_.on_block_connected(i, rec.applied, at);
        peer.exec_records.emplace(h, std::move(rec));
        peer.exec_order.push_back(h);
        connected.push_back(h);
    }

    if ((undone > 0 || !connected.empty())) {
        if (node == 0 && undone > 0) {
            auto& tracer = obs::Tracer::global();
            if (tracer.enabled()) {
                tracer.instant(
                    "dag.relinearize", "consensus", at, node,
                    {{"depth", obs::trace_arg(static_cast<std::uint64_t>(undone))},
                     {"connected", obs::trace_arg(
                          static_cast<std::uint64_t>(connected.size()))}});
            }
        }
        if (ChainEvents* ev = find_events(node); ev != nullptr) {
            if (ev->on_reorg && undone > 0) ev->on_reorg(disconnected, connected, at);
            if (ev->on_tip_changed && !peer.exec_order.empty())
                ev->on_tip_changed(peer.exec_order.back(),
                                   peer.exec_order.size() - 1, at);
        }
    }
}

void DagNetwork::schedule_production(NodeId node) {
    Peer& peer = peers_[node];
    if (peer.production_event) scheduler_.cancel(*peer.production_event);
    // Every peer produces at an equal share of the network rate; the
    // exponential keeps production a Poisson process like PoW discovery, so
    // interval/delay ratios compare one-to-one with the chain families.
    const double share = 1.0 / static_cast<double>(peers_.size());
    const double delay =
        sample_block_time(share, params_.record_interval, peer.rng);
    peer.production_event = scheduler_.schedule_after(delay, [this, node] {
        peers_[node].production_event.reset();
        const Block record = assemble_record(node);
        ++stats_.records_produced;
        auto& tracer = obs::Tracer::global();
        if (tracer.enabled()) {
            tracer.instant("record.produced", "consensus", scheduler_.now(), node,
                           {{"parents", obs::trace_arg(static_cast<std::uint64_t>(
                                 parents_of(record.header).size()))},
                            {"txs", obs::trace_arg(static_cast<std::uint64_t>(
                                 record.txs.size()))}});
        }
        // Local delivery runs through the gossip handler, so the producer
        // adopts its own record exactly like any other peer.
        if (produced_hook_ && !produced_hook_(node, record)) {
            // Withheld: adopt privately; new production keeps approving the
            // secret records until publish_record() releases them.
            insert_and_update(node, record);
        } else {
            gossip_->broadcast(node, "block", encode_to_bytes(record));
        }
        schedule_production(node);
    });
}

void DagNetwork::publish_record(NodeId node, const Hash256& hash) {
    const auto* entry = peers_.at(node).store->find(hash);
    DLT_EXPECTS(entry != nullptr);
    gossip_->broadcast(node, "block", encode_to_bytes(entry->block));
}

ledger::Block DagNetwork::assemble_record(NodeId node) {
    Peer& peer = peers_[node];
    const std::vector<Hash256> parents =
        select_parents(peer.store->tips(), params_.max_parents, peer.rng,
                       peer.store.get(), &store_blue_score);

    ledger::BlockHeader header;
    set_parents(header, parents);
    for (const Hash256& p : parents)
        header.height = std::max(header.height, peer.store->entry(p).height + 1);
    header.timestamp = scheduler_.now();
    header.bits = genesis_.header.bits;
    header.nonce = peer.rng.next(); // simulated proof, as in Nakamoto
    header.proposer = peer.miner;
    // Parallel records can share (height, proposer, reward); salt the
    // coinbase nonce so every record's coinbase txid is unique.
    const std::uint64_t salt = peer.rng.next();
    return ledger::build_block(header, peer.mempool, peer.utxo,
                               params_.max_block_bytes, params_.max_block_txs, salt);
}

ChainEvents* DagNetwork::find_events(NodeId node) {
    const auto it = observers_.find(node);
    return it == observers_.end() ? nullptr : &it->second;
}

const std::vector<Hash256>& DagNetwork::tips_of(NodeId node) const {
    return peers_.at(node).store->tips();
}

bool DagNetwork::converged() const {
    auto sorted_tips = [](const Peer& p) {
        std::vector<Hash256> t = p.store->tips();
        std::sort(t.begin(), t.end());
        return t;
    };
    const auto ref = sorted_tips(peers_[0]);
    for (std::size_t i = 1; i < peers_.size(); ++i)
        if (sorted_tips(peers_[i]) != ref) return false;
    return true;
}

std::vector<Hash256> DagNetwork::linear_order(NodeId node) const {
    return peers_.at(node).store->linear_order().order;
}

Hash256 DagNetwork::order_digest(NodeId node) const {
    const auto order = linear_order(node);
    crypto::Sha256 ctx;
    for (const Hash256& h : order) ctx.update(h.bytes());
    return ctx.finalize();
}

double DagNetwork::blue_ratio() const {
    const auto lo = peers_[0].store->linear_order();
    if (lo.order.empty()) return 1.0;
    return static_cast<double>(lo.blue_count) /
           static_cast<double>(lo.order.size());
}

std::uint64_t DagNetwork::confirmed_tx_count() const {
    return peers_[0].confirmed_txs;
}

const ledger::Mempool& DagNetwork::mempool_of(NodeId node) const {
    return peers_.at(node).mempool;
}

const ledger::UtxoSet& DagNetwork::utxo_of(NodeId node) const {
    return peers_.at(node).utxo;
}

const crypto::Address& DagNetwork::miner_address(NodeId node) const {
    return peers_.at(node).miner;
}

} // namespace dlt::consensus::dag
