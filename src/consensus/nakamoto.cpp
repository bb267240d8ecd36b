#include "consensus/nakamoto.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "consensus/pow.hpp"
#include "ledger/difficulty.hpp"

namespace dlt::consensus {

using ledger::Block;
using ledger::Transaction;
using net::NodeId;

NakamotoNetwork::NakamotoNetwork(NakamotoParams params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      lifecycle_(params_.finality_depth, &obs::Tracer::global()) {
    DLT_EXPECTS(params_.node_count >= 2);
    DLT_EXPECTS(params_.block_interval > 0);

    auto& registry = obs::MetricsRegistry::global();
    blocks_mined_ = &registry.counter("consensus_blocks_mined_total",
                                      "Blocks mined across all peers");
    reorgs_ = &registry.counter("consensus_reorgs_total",
                                "Reorganizations across all peers");
    invalid_blocks_ = &registry.counter("consensus_invalid_blocks_total",
                                        "Blocks rejected during connect");

    genesis_ = ledger::make_genesis(params_.chain_tag, ledger::easy_bits(1));

    network_ = std::make_unique<net::Network>(scheduler_, rng_.fork(0xA));
    gossip_ = std::make_unique<net::GossipOverlay>(
        *network_, params_.node_count, params_.gossip,
        [this](NodeId node, NodeId from, const std::string& topic,
               ByteView payload) { on_gossip(node, from, topic, payload); });
    network_->build_unstructured_overlay(params_.overlay_degree, params_.link);

    // Normalize hash power.
    std::vector<double> shares = params_.hashrate_shares;
    if (shares.empty()) shares.assign(params_.node_count, 1.0);
    DLT_EXPECTS(shares.size() == params_.node_count);
    double total = 0;
    for (const double s : shares) total += s;
    DLT_EXPECTS(total > 0);

    peers_.resize(params_.node_count);
    for (std::size_t i = 0; i < params_.node_count; ++i) {
        Peer& peer = peers_[i];
        peer.chain = std::make_unique<ledger::ChainStore>(genesis_);
        peer.active_tip = genesis_.hash();
        peer.mempool = ledger::Mempool(params_.mempool);
        peer.miner = crypto::PrivateKey::from_seed(params_.chain_tag + "/miner/" +
                                                   std::to_string(i))
                         .address();
        peer.hashrate_share = shares[i] / total;
        peer.rng = rng_.fork(0x100 + i);
    }

    // Peer 0 is the observed replica: its mempool drops become explicit
    // lifecycle terminal events (reasons share the enumeration order).
    peers_[0].mempool.set_drop_observer(
        [this](const Hash256& txid, ledger::MempoolDropReason reason, SimTime at) {
            lifecycle_.on_dropped(
                txid, 0, at,
                static_cast<obs::TxDropReason>(static_cast<std::uint8_t>(reason)));
        });
}

void NakamotoNetwork::start() {
    for (NodeId i = 0; i < peers_.size(); ++i) schedule_mining(i);
}

void NakamotoNetwork::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

void NakamotoNetwork::submit_transaction(const Transaction& tx, NodeId origin) {
    lifecycle_.on_submitted(tx.txid(), scheduler_.now(), origin);
    gossip_->broadcast(origin, "tx", encode_to_bytes(tx));
}

void NakamotoNetwork::on_gossip(NodeId node, NodeId from, const std::string& topic,
                                ByteView payload) {
    // Stamp log lines emitted while handling this delivery with the virtual
    // time and acting node, so interleaved multi-node logs stay attributable.
    const ScopedLogTime log_time(scheduler_.now());
    const ScopedLogNode log_node(node);
    if (topic == "tx") {
        try {
            auto tx = decode_from_bytes<Transaction>(payload);
            // Lifecycle stamps are no-ops for untracked ids; the txid is
            // computed by mempool admission anyway (cached), so this is cheap.
            const Hash256 txid = tx.txid();
            if (node != from) lifecycle_.on_first_seen(txid, node, scheduler_.now());
            const ledger::AdmissionResult verdict =
                peers_[node].mempool.admit(std::move(tx), scheduler_.now());
            if (verdict == ledger::AdmissionResult::kAccepted ||
                verdict == ledger::AdmissionResult::kRbfReplaced)
                lifecycle_.on_mempool_accepted(txid, node, scheduler_.now());
        } catch (const Error&) {
            // Undecodable gossip is dropped silently, as a real peer would.
        }
        return;
    }
    if (topic == "block" || topic == "d/block") {
        try {
            handle_block(node, decode_from_bytes<Block>(payload), from);
        } catch (const Error&) {
        }
        return;
    }
    if (topic == "d/getblock") {
        // Peer `from` asks for one block by hash; reply when we have it so its
        // ancestor walk makes progress, or tell it we can't help so it may
        // retry elsewhere.
        if (payload.size() != 32) return;
        const Hash256 want = Hash256::from_bytes(payload);
        const auto* entry = peers_[node].chain->find(want);
        if (entry != nullptr) {
            gossip_->send_direct(node, from, "d/block", encode_to_bytes(entry->block));
        } else {
            gossip_->send_direct(node, from, "d/notfound", want.bytes());
        }
        return;
    }
    if (topic == "d/notfound") {
        // The peer we asked lacks the block; clear the in-flight marker so a
        // later arrival can trigger a fresh request toward a better peer.
        if (payload.size() != 32) return;
        peers_[node].sync_requested.erase(Hash256::from_bytes(payload));
        return;
    }
}

void NakamotoNetwork::handle_block(NodeId node, const Block& block, NodeId from) {
    Peer& peer = peers_[node];
    if (peer.chain->contains(block.hash())) return;
    if (!peer.chain->contains(block.header.prev_hash)) {
        auto& siblings = peer.orphans[block.header.prev_hash];
        const Hash256 hash = block.hash();
        const bool duplicate =
            std::any_of(siblings.begin(), siblings.end(),
                        [&](const Block& b) { return b.hash() == hash; });
        if (!duplicate) siblings.push_back(block);
        request_block(node, block.header.prev_hash, from);
        return;
    }
    try_insert_and_update(node, block);
}

void NakamotoNetwork::request_block(NodeId node, const Hash256& hash, NodeId from) {
    Peer& peer = peers_[node];
    if (from == node) return; // locally injected: nobody to ask
    if (!peer.sync_requested.insert(hash).second) return; // already in flight
    gossip_->send_direct(node, from, "d/getblock", hash.bytes());
}

void NakamotoNetwork::try_insert_and_update(NodeId node, const Block& block) {
    Peer& peer = peers_[node];

    // Insert the block and any orphans it unblocks (BFS).
    std::vector<Block> pending{block};
    while (!pending.empty()) {
        const Block current = std::move(pending.back());
        pending.pop_back();
        const Hash256 hash = current.hash();
        peer.sync_requested.erase(hash); // a pending ancestor fetch is satisfied
        if (!peer.chain->contains(hash)) {
            const auto target = ledger::compact_to_target(current.header.bits);
            peer.chain->insert(current, ledger::work_from_target(target),
                               scheduler_.now());
            if (ChainEvents* ev = find_events(node);
                ev != nullptr && ev->on_block_inserted)
                ev->on_block_inserted(current, scheduler_.now());
        }
        const auto it = peer.orphans.find(hash);
        if (it != peer.orphans.end()) {
            for (auto& orphan : it->second) pending.push_back(std::move(orphan));
            peer.orphans.erase(it);
        }
    }

    update_active_tip(node);
}

Hash256 NakamotoNetwork::select_tip(const Peer& peer) const {
    return params_.branch_rule == BranchRule::kGhost ? peer.chain->best_tip_by_ghost()
                                                     : peer.chain->best_tip_by_work();
}

bool NakamotoNetwork::path_contains_invalid(const Peer& peer,
                                            const Hash256& tip) const {
    if (peer.invalid.empty()) return false;
    for (const auto& hash : peer.chain->path_from_genesis(tip))
        if (peer.invalid.contains(hash)) return true;
    return false;
}

void NakamotoNetwork::update_active_tip(NodeId node) {
    Peer& peer = peers_[node];
    for (;;) {
        const Hash256 best = select_tip(peer);
        if (best == peer.active_tip) return;
        if (path_contains_invalid(peer, best)) {
            // Fall back to most-work valid leaf.
            Hash256 fallback = peer.active_tip;
            crypto::U256 fallback_work =
                peer.chain->find(peer.active_tip)->cumulative_work;
            for (const auto& leaf : peer.chain->leaves()) {
                if (path_contains_invalid(peer, leaf)) continue;
                const auto* entry = peer.chain->find(leaf);
                if (entry->cumulative_work > fallback_work) {
                    fallback = leaf;
                    fallback_work = entry->cumulative_work;
                }
            }
            if (fallback == peer.active_tip) return;
            reorg_to(node, fallback);
            return;
        }
        reorg_to(node, best);
        // A failed connect marks blocks invalid and restores the old tip; loop to
        // re-select. A successful reorg leaves active_tip == best and we exit.
        if (peer.active_tip == best) return;
    }
}

void NakamotoNetwork::reorg_to(NodeId node, const Hash256& new_tip) {
    Peer& peer = peers_[node];
    if (new_tip == peer.active_tip) return;
    const auto path = peer.chain->reorg_path(peer.active_tip, new_tip);
    if (!path.disconnect.empty()) {
        ++stats_.reorgs;
        reorgs_->inc();
    }

    // Disconnect the old branch (tip first), returning its txs to the mempool.
    for (const auto& hash : path.disconnect) {
        const auto undo_it = peer.undo.find(hash);
        DLT_INVARIANT(undo_it != peer.undo.end());
        peer.utxo.undo_block(undo_it->second);
        peer.undo.erase(undo_it);
        peer.mempool.add_back(peer.chain->find(hash)->block.txs, scheduler_.now());
    }
    Hash256 reached = path.disconnect.empty()
                          ? peer.active_tip
                          : peer.chain->find(path.disconnect.back())->block.header.prev_hash;

    // Connect the new branch (oldest first).
    std::vector<Hash256> connected;
    for (const auto& hash : path.connect) {
        const Block& blk = peer.chain->find(hash)->block;
        try {
            peer.undo.emplace(hash, ledger::connect_block(blk, peer.utxo,
                                                          params_.validation));
        } catch (const ValidationError&) {
            ++stats_.invalid_blocks;
            invalid_blocks_->inc();
            peer.invalid.insert(hash);
            // Roll back whatever we connected from this branch (newest first),
            // then restore the old branch so state matches active_tip again.
            for (auto rit = connected.rbegin(); rit != connected.rend(); ++rit) {
                const auto undo_it = peer.undo.find(*rit);
                peer.utxo.undo_block(undo_it->second);
                peer.undo.erase(undo_it);
            }
            for (auto it = path.disconnect.rbegin(); it != path.disconnect.rend();
                 ++it) {
                const Block& old_blk = peer.chain->find(*it)->block;
                peer.undo.emplace(*it, ledger::connect_block(old_blk, peer.utxo,
                                                             params_.validation));
            }
            return; // active_tip unchanged
        }
        peer.mempool.remove_confirmed(blk.txids());
        connected.push_back(hash);
        reached = hash;
    }

    peer.active_tip = reached;

    // Observers fire only after the reorg fully succeeded (a failed connect
    // rolls everything back above, so nothing is emitted for it). Peer 0 is
    // the lifecycle-observed replica; chain events go to whichever nodes
    // registered an observer set.
    if (node == 0) {
        const SimTime at = scheduler_.now();
        for (const auto& hash : path.disconnect) {
            const auto* entry = peer.chain->find(hash);
            lifecycle_.on_block_disconnected(entry->height, entry->block.txids());
        }
        for (const auto& hash : connected) {
            const auto* entry = peer.chain->find(hash);
            lifecycle_.on_block_connected(entry->height, entry->block.txids(), at);
        }
        const std::uint64_t tip_height = peer.chain->find(reached)->height;
        lifecycle_.on_tip_height(tip_height, at);
        auto& tracer = obs::Tracer::global();
        if (tracer.enabled() && !path.disconnect.empty()) {
            tracer.instant("chain.reorg", "consensus", at, node,
                           {{"depth", obs::trace_arg(static_cast<std::uint64_t>(
                                 path.disconnect.size()))},
                            {"connected", obs::trace_arg(static_cast<std::uint64_t>(
                                 connected.size()))}});
        }
    }
    if (ChainEvents* ev = find_events(node); ev != nullptr) {
        const SimTime at = scheduler_.now();
        const std::uint64_t tip_height = peer.chain->find(reached)->height;
        if (ev->on_reorg) ev->on_reorg(path.disconnect, connected, at);
        if (ev->on_tip_changed) ev->on_tip_changed(reached, tip_height, at);
    }

    schedule_mining(node); // re-point mining at the new tip
}

void NakamotoNetwork::set_network_hashrate(double multiplier) {
    DLT_EXPECTS(multiplier > 0);
    network_hashrate_ = multiplier;
    // Reschedule every miner at the new rate (exponentials are memoryless).
    for (NodeId i = 0; i < peers_.size(); ++i)
        if (peers_[i].mining_event) schedule_mining(i);
}

std::uint32_t NakamotoNetwork::next_bits(NodeId node, const Hash256& tip) const {
    if (!params_.enable_retargeting) return genesis_.header.bits;
    const Peer& peer = peers_.at(node);
    const auto* entry = peer.chain->find(tip);
    DLT_EXPECTS(entry != nullptr);
    const std::uint64_t next_height = entry->height + 1;
    if (next_height % params_.retarget.interval_blocks != 0)
        return entry->block.header.bits;

    // Actual time the last interval took, from block timestamps. Walk back
    // `interval_blocks` parents so the window spans interval_blocks gaps
    // (avoiding Bitcoin's famous off-by-one, which at our short retarget
    // windows would bias difficulty ~12% high).
    const Hash256 first = peer.chain->ancestor(tip, params_.retarget.interval_blocks);
    const auto* first_entry = peer.chain->find(first);
    const std::uint64_t gaps = entry->height - first_entry->height;
    if (gaps == 0) return entry->block.header.bits;
    double actual =
        entry->block.header.timestamp - first_entry->block.header.timestamp;
    // Normalize to a full window when clipped at genesis.
    actual *= static_cast<double>(params_.retarget.interval_blocks) /
              static_cast<double>(gaps);
    if (actual <= 0) return entry->block.header.bits;
    return ledger::retarget(entry->block.header.bits, actual, params_.retarget);
}

std::optional<double> NakamotoNetwork::observed_interval(std::size_t window) const {
    const Peer& peer = peers_.front();
    const auto path = peer.chain->path_from_genesis(peer.active_tip);
    if (path.size() < 3) return std::nullopt;
    const std::size_t take = std::min(window + 1, path.size());
    const auto& newest = peer.chain->find(path.back())->block.header;
    const auto& oldest =
        peer.chain->find(path[path.size() - take])->block.header;
    return (newest.timestamp - oldest.timestamp) / static_cast<double>(take - 1);
}

void NakamotoNetwork::schedule_mining(NodeId node) {
    Peer& peer = peers_[node];
    if (peer.hashrate_share <= 0) return;
    if (peer.mining_event) scheduler_.cancel(*peer.mining_event);
    // Expected network interval scales with the current difficulty relative to
    // genesis, and inversely with total hash power.
    double interval = params_.block_interval / network_hashrate_;
    if (params_.enable_retargeting) {
        const auto to_double = [](const crypto::U256& v) {
            double out = 0;
            for (int i = 3; i >= 0; --i)
                out = out * 18446744073709551616.0 +
                      static_cast<double>(v.limbs[static_cast<std::size_t>(i)]);
            return out;
        };
        const auto genesis_target = ledger::compact_to_target(genesis_.header.bits);
        const auto current_target =
            ledger::compact_to_target(next_bits(node, peer.active_tip));
        // difficulty ratio = genesis_target / current_target (smaller target =
        // harder); double precision is ample for interval scaling.
        interval *= to_double(genesis_target) / to_double(current_target);
    }
    const double delay = sample_block_time(peer.hashrate_share, interval, peer.rng);
    peer.mining_event = scheduler_.schedule_after(delay, [this, node] {
        peers_[node].mining_event.reset();
        const Block block = assemble_block(node);
        ++stats_.blocks_mined;
        blocks_mined_->inc();
        auto& tracer = obs::Tracer::global();
        if (tracer.enabled()) {
            tracer.instant("block.mined", "consensus", scheduler_.now(), node,
                           {{"height", obs::trace_arg(block.header.height)},
                            {"txs", obs::trace_arg(static_cast<std::uint64_t>(
                                 block.txs.size()))}});
        }
        if (mined_hook_ && !mined_hook_(node, block)) {
            // Withheld: the miner adopts the block privately (it has the most
            // work locally, so mining continues on the secret fork) and no
            // frame ever enters the overlay. publish_block() releases it.
            try_insert_and_update(node, block);
        } else {
            gossip_->broadcast(node, "block", encode_to_bytes(block));
        }
        // Local delivery runs through the gossip handler, so the miner adopts its
        // own block exactly like any other peer; mining then restarts via reorg.
        schedule_mining(node);
    });
}

void NakamotoNetwork::publish_block(NodeId node, const Hash256& hash) {
    const auto* entry = peers_.at(node).chain->find(hash);
    DLT_EXPECTS(entry != nullptr);
    gossip_->broadcast(node, "block", encode_to_bytes(entry->block));
}

ledger::Block NakamotoNetwork::assemble_block(NodeId node) {
    Peer& peer = peers_[node];
    const auto* tip_entry = peer.chain->find(peer.active_tip);
    DLT_INVARIANT(tip_entry != nullptr);

    ledger::BlockHeader header;
    header.prev_hash = peer.active_tip;
    header.height = tip_entry->height + 1;
    header.timestamp = scheduler_.now();
    header.bits = next_bits(node, peer.active_tip);
    header.nonce = peer.rng.next(); // simulated proof (see DESIGN.md)
    header.proposer = peer.miner;
    return ledger::build_block(header, peer.mempool, peer.utxo,
                               params_.max_block_bytes, params_.max_block_txs);
}

const Hash256& NakamotoNetwork::tip_of(NodeId node) const {
    return peers_.at(node).active_tip;
}

std::uint64_t NakamotoNetwork::height_of(NodeId node) const {
    const Peer& peer = peers_.at(node);
    return peer.chain->find(peer.active_tip)->height;
}

bool NakamotoNetwork::converged() const {
    for (std::size_t i = 1; i < peers_.size(); ++i)
        if (peers_[i].active_tip != peers_[0].active_tip) return false;
    return true;
}

std::optional<Hash256> NakamotoNetwork::majority_tip() const {
    std::unordered_map<Hash256, std::size_t> votes;
    for (const auto& peer : peers_) ++votes[peer.active_tip];
    for (const auto& [tip, count] : votes)
        if (count * 2 > peers_.size()) return tip;
    return std::nullopt;
}

std::vector<Block> NakamotoNetwork::canonical_chain() const {
    const Peer& peer = peers_.front();
    std::vector<Block> blocks;
    for (const auto& hash : peer.chain->path_from_genesis(peer.active_tip)) {
        if (hash == peer.chain->genesis_hash()) continue;
        blocks.push_back(peer.chain->find(hash)->block);
    }
    return blocks;
}

std::uint64_t NakamotoNetwork::confirmed_tx_count() const {
    std::uint64_t count = 0;
    for (const auto& block : canonical_chain())
        for (const auto& tx : block.txs)
            if (!tx.is_coinbase()) ++count;
    return count;
}

std::size_t NakamotoNetwork::stale_blocks() const {
    const Peer& peer = peers_.front();
    return peer.chain->stale_count(peer.active_tip);
}

double NakamotoNetwork::stale_rate() const {
    const Peer& peer = peers_.front();
    const std::size_t total = peer.chain->size() - 1; // exclude genesis
    if (total == 0) return 0.0;
    return static_cast<double>(stale_blocks()) / static_cast<double>(total);
}

std::optional<std::uint64_t> NakamotoNetwork::confirmations_of(
    const Hash256& txid) const {
    const Peer& peer = peers_.front();
    const auto path = peer.chain->path_from_genesis(peer.active_tip);
    const std::uint64_t tip_height = peer.chain->find(peer.active_tip)->height;
    for (const auto& hash : path) {
        const auto* entry = peer.chain->find(hash);
        for (const auto& tx : entry->block.txs)
            if (tx.txid() == txid) return tip_height - entry->height + 1;
    }
    return std::nullopt;
}

const ledger::ChainStore& NakamotoNetwork::chain_of(NodeId node) const {
    return *peers_.at(node).chain;
}

const ledger::Mempool& NakamotoNetwork::mempool_of(NodeId node) const {
    return peers_.at(node).mempool;
}

ChainEvents* NakamotoNetwork::find_events(NodeId node) {
    const auto it = observers_.find(node);
    return it == observers_.end() ? nullptr : &it->second;
}

const ledger::UtxoSet& NakamotoNetwork::utxo_of(NodeId node) const {
    return peers_.at(node).utxo;
}

const crypto::Address& NakamotoNetwork::miner_address(NodeId node) const {
    return peers_.at(node).miner;
}

} // namespace dlt::consensus
