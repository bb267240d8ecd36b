#include "consensus/nakamoto.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "consensus/pow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlt::consensus {

using ledger::AdmissionResult;
using ledger::Block;
using ledger::Transaction;
using net::NodeId;
using net::transport::PeerId;

namespace {

bool admitted(AdmissionResult verdict) {
    return verdict == AdmissionResult::kAccepted ||
           verdict == AdmissionResult::kRbfReplaced;
}

/// The registry's consensus and gossip counters, summed over every engine.
struct Counters {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    obs::Counter& blocks_mined =
        r.counter("consensus_blocks_mined_total", "Blocks mined across all peers");
    obs::Counter& reorgs = r.counter("consensus_reorgs_total", "Reorganizations across all peers");
    obs::Counter& invalid_blocks =
        r.counter("consensus_invalid_blocks_total", "Blocks rejected during connect");
    obs::Counter& accepts =
        r.counter("gossip_accepts_total", "First-time deliveries across all nodes");
    obs::Counter& dedup_hits =
        r.counter("gossip_dedup_hits_total", "Frames discarded as already seen");
};

Counters& counters() {
    static Counters c;
    return c;
}

/// Count one relayed frame as a first delivery or a duplicate dropped.
void count_frame(bool duplicate) {
    (duplicate ? counters().dedup_hits : counters().accepts).inc();
}

/// A "tx" frame: the txid, then the transaction.
Bytes tx_frame(const Transaction& tx) {
    Writer frame;
    frame.fixed(tx.txid());
    tx.encode(frame);
    return std::move(frame).take();
}

} // namespace

// --- Transaction path ------------------------------------------------------------------

TxRelay::TxRelay(net::transport::Transport& transport,
                 const ledger::MempoolConfig& config, obs::TxLifecycleTracker* lifecycle)
    : transport_(transport), mempool_(config), lifecycle_(lifecycle) {}

bool TxRelay::admit(const Transaction& tx, PeerId from) {
    const bool ok = admitted(mempool_.admit(tx, transport_.now()));
    if (lifecycle_ != nullptr) {
        const PeerId self = transport_.local_id();
        if (from != self) lifecycle_->on_first_seen(tx.txid(), self, transport_.now());
        if (ok) lifecycle_->on_mempool_accepted(tx.txid(), self, transport_.now());
    }
    return ok;
}

bool TxRelay::submit(const Transaction& tx) {
    if (seen_.contains(tx.txid()) || !admit(tx, transport_.local_id())) return false;
    seen_.insert(tx.txid());
    transport_.broadcast("tx", ByteView(tx_frame(tx)));
    return true;
}

void TxRelay::send(PeerId to, const Transaction& tx) {
    transport_.send(to, "tx", ByteView(tx_frame(tx)));
}

bool TxRelay::handle(PeerId from, ByteView frame) {
    Reader r(frame);
    const Hash256 claimed = r.fixed<32>();
    if (seen_.contains(claimed)) {
        count_frame(/*duplicate=*/true);
        return false;
    }
    const Transaction tx = Transaction::decode(r);
    r.expect_done();
    if (tx.txid() != claimed) return false;
    seen_.insert(claimed);
    count_frame(/*duplicate=*/false);
    return admit(tx, from);
}

void TxRelay::connected(const Block& block) {
    const std::vector<Hash256> ids = block.txids();
    seen_.insert(ids.begin(), ids.end()); // a late relay must not re-admit them
    mempool_.remove_confirmed(ids);
}

void TxRelay::disconnected(const Block& block) {
    mempool_.add_back(block.txs, transport_.now());
}

// --- Engine ----------------------------------------------------------------------------

NakamotoEngine::NakamotoEngine(net::transport::Transport& transport, NakamotoHost& host,
                               ledger::ChainStore& index, const Hash256& tip,
                               TxRelay& txs, const NakamotoParams& params,
                               double hash_share, crypto::Address miner, Rng rng,
                               double sync_interval)
    : transport_(transport),
      host_(host),
      index_(index),
      txs_(txs),
      params_(params),
      hash_share_(hash_share),
      miner_(miner),
      rng_(rng),
      sync_interval_(sync_interval),
      tip_(tip) {
    DLT_EXPECTS(index_.contains(tip_));
    DLT_EXPECTS(hash_share_ >= 0 && hash_share_ <= 1);
    DLT_EXPECTS(sync_interval_ > 0);
}

void NakamotoEngine::start() {
    mining_ = true;
    schedule_mining();
}

void NakamotoEngine::stop() {
    mining_ = false;
    for (auto* timer : {&mining_timer_, &retry_timer_}) {
        if (*timer) transport_.cancel_timer(**timer);
        timer->reset();
    }
}

void NakamotoEngine::handle(PeerId from, const std::string& topic, ByteView payload) {
    try {
        if (topic == "tx") {
            // On a random overlay a transaction reaches every peer only if
            // each one floods what it admits.
            if (txs_.handle(from, payload)) transport_.broadcast_except(from, "tx", payload);
        } else if (topic == "blk" || topic == "blkreply") {
            on_block(from, payload, topic == "blk");
        } else if (topic == "getblk") {
            Reader r(payload);
            const Hash256 hash = r.fixed<32>();
            r.expect_done();
            if (const auto* entry = index_.find(hash))
                transport_.send(from, "blkreply", ByteView(encode_to_bytes(entry->block)));
        }
    } catch (const DecodeError&) {
        // A malformed payload from a peer is dropped, never fatal.
    }
}

void NakamotoEngine::on_block(PeerId from, ByteView payload, bool relay) {
    // A duplicate costs one header decode and hash.
    Reader header(payload);
    const Hash256 hash = ledger::BlockHeader::decode(header).hash();
    if (index_.contains(hash) || orphans_.contains(hash)) {
        count_frame(/*duplicate=*/true);
        return;
    }
    Block block = decode_from_bytes<Block>(payload);
    // The hash commits to the body only through the Merkle root, which also
    // matches a body that repeats its last transactions (an odd level pairs
    // its last hash with itself). Such a body is not the block the hash
    // names, so it must not be indexed (or tainted) under it.
    const std::vector<Hash256> ids = block.txids();
    if (block.header.merkle_root != block.compute_merkle_root() ||
        std::unordered_set<Hash256>(ids.begin(), ids.end()).size() != ids.size())
        return;
    count_frame(/*duplicate=*/false);
    const Hash256 parent = block.header.prev_hash;
    if (index_.contains(parent)) {
        adopt(std::move(block));
    } else {
        // Fetch the oldest missing ancestor; each reply walks one hop back
        // until the branch roots in our index.
        Hash256 missing = parent;
        for (auto it = orphans_.find(missing); it != orphans_.end();
             it = orphans_.find(missing))
            missing = it->second.header.prev_hash;
        orphans_.emplace(hash, std::move(block));
        request(missing, from);
    }
    if (relay) transport_.broadcast_except(from, "blk", payload);
}

void NakamotoEngine::adopt(Block block) {
    std::vector<Block> pending;
    pending.push_back(std::move(block));
    while (!pending.empty()) {
        const Block current = std::move(pending.back());
        pending.pop_back();
        const Hash256 hash = current.hash();
        requested_.erase(hash);
        if (index_.insert(current, ledger::work_from_bits(current.header.bits)) &&
            events_.on_block_inserted)
            events_.on_block_inserted(current, transport_.now());
        std::erase_if(orphans_, [&](auto& orphan) { // now connectable
            if (orphan.second.header.prev_hash != hash) return false;
            pending.push_back(std::move(orphan.second));
            return true;
        });
    }
    update_tip();
}

void NakamotoEngine::request(const Hash256& hash, PeerId peer) {
    if (!requested_.insert(hash).second) return;
    transport_.send(peer, "getblk", hash.view());
    if (!retry_timer_)
        retry_timer_ = transport_.schedule_after(sync_interval_, [this] {
            retry_timer_.reset();
            retry_requests();
        });
}

void NakamotoEngine::retry_requests() {
    // Ask a random peer again for every block still missing: the request or
    // its reply may have been lost, or the peer asked may not have it.
    requested_.clear();
    const auto peers = transport_.peer_ids();
    if (peers.empty()) return;
    for (const auto& [hash, block] : orphans_)
        if (!orphans_.contains(block.header.prev_hash))
            request(block.header.prev_hash, peers[rng_.index(peers.size())]);
}

void NakamotoEngine::update_tip() {
    const Hash256 before = tip_;
    for (bool failed = true; failed;) {
        const Hash256 best = params_.branch_rule == BranchRule::kGhost
                                 ? index_.best_tip_by_ghost()
                                 : index_.best_tip_by_work();
        if (best == tip_) break;
        const auto path = index_.reorg_path(tip_, best);
        if (!path.disconnect.empty()) {
            ++stats_.reorgs;
            counters().reorgs.inc();
        }
        for (const Hash256& hash : path.disconnect) {
            const Block& block = index_.find(hash)->block;
            host_.disconnect(block);
            txs_.disconnected(block);
            tip_ = block.header.prev_hash;
        }
        // A block that does not connect taints its subtree; the loop then
        // picks the best tip that is still valid, from wherever state is.
        failed = false;
        std::vector<Hash256> connected;
        for (const Hash256& hash : path.connect) {
            const Block& block = index_.find(hash)->block;
            try {
                host_.connect(block);
            } catch (const ValidationError&) {
                ++stats_.invalid_blocks;
                counters().invalid_blocks.inc();
                index_.mark_invalid(hash);
                failed = true;
                break;
            }
            txs_.connected(block);
            connected.push_back(hash);
            tip_ = hash;
        }
        if (path.disconnect.empty() && connected.empty()) continue;
        host_.on_reorg(path.disconnect, connected);
        const double at = transport_.now();
        if (events_.on_reorg) events_.on_reorg(path.disconnect, connected, at);
        if (events_.on_tip_changed) events_.on_tip_changed(tip_, height(), at);
    }
    if (tip_ != before && mining_) schedule_mining(); // mine on the new tip
}

void NakamotoEngine::set_network_hashrate(double multiplier) {
    DLT_EXPECTS(multiplier > 0);
    network_hashrate_ = multiplier;
    if (mining_timer_) schedule_mining(); // exponentials are memoryless
}

std::uint32_t NakamotoEngine::next_bits(const Hash256& tip) const {
    const std::uint32_t genesis_bits = index_.find(index_.genesis_hash())->block.header.bits;
    if (!params_.enable_retargeting) return genesis_bits;
    const auto* entry = index_.find(tip);
    DLT_EXPECTS(entry != nullptr);
    if ((entry->height + 1) % params_.retarget.interval_blocks != 0)
        return entry->block.header.bits;

    // Actual time the last interval took, from block timestamps. Walk back
    // `interval_blocks` parents so the window spans interval_blocks gaps
    // (avoiding Bitcoin's famous off-by-one, which at our short retarget
    // windows would bias difficulty ~12% high).
    const auto* first = index_.find(index_.ancestor(tip, params_.retarget.interval_blocks));
    const std::uint64_t gaps = entry->height - first->height;
    if (gaps == 0) return entry->block.header.bits;
    double actual = entry->block.header.timestamp - first->block.header.timestamp;
    // Normalize to a full window when clipped at genesis.
    actual *= static_cast<double>(params_.retarget.interval_blocks) /
              static_cast<double>(gaps);
    if (actual <= 0) return entry->block.header.bits;
    return ledger::retarget(entry->block.header.bits, actual, params_.retarget);
}

void NakamotoEngine::schedule_mining() {
    if (mining_timer_) transport_.cancel_timer(*mining_timer_);
    mining_timer_.reset();
    if (hash_share_ <= 0) return;
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
        const std::uint32_t genesis_bits =
            index_.find(index_.genesis_hash())->block.header.bits;
        // difficulty ratio = genesis_target / current_target (smaller target =
        // harder); double precision is ample for interval scaling.
        interval *= to_double(ledger::compact_to_target(genesis_bits)) /
                    to_double(ledger::compact_to_target(next_bits(tip_)));
    }
    mining_timer_ = transport_.schedule_after(
        sample_block_time(hash_share_, interval, rng_), [this] {
            mining_timer_.reset();
            mine();
        });
}

void NakamotoEngine::mine() {
    ledger::BlockHeader header;
    header.prev_hash = tip_;
    header.height = height() + 1;
    header.timestamp = transport_.now();
    header.bits = next_bits(tip_);
    header.nonce = rng_.next(); // simulated proof (see DESIGN.md)
    header.proposer = miner_;
    const Block block = ledger::build_block(header, txs_.mempool(), host_.utxo(),
                                            params_.max_block_bytes, params_.max_block_txs);
    ++stats_.blocks_mined;
    counters().blocks_mined.inc();
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
        tracer.instant("block.mined", "consensus", transport_.now(), transport_.local_id(),
                       {{"height", obs::trace_arg(block.header.height)},
                        {"txs", obs::trace_arg(static_cast<std::uint64_t>(
                             block.txs.size()))}});
    }
    // The miner adopts its block (the most work it knows), then relays it.
    const bool release = host_.release(block);
    adopt(block);
    if (release) transport_.broadcast("blk", ByteView(encode_to_bytes(block)));
    if (!mining_timer_) schedule_mining();
}

void NakamotoEngine::publish(const Hash256& hash) {
    const auto* entry = index_.find(hash);
    DLT_EXPECTS(entry != nullptr);
    transport_.broadcast("blk", ByteView(encode_to_bytes(entry->block)));
}

// --- Simulated network -----------------------------------------------------------------

/// One simulated peer: the engine's host, on an in-memory UTXO set.
class NakamotoNetwork::Peer final : public NakamotoHost {
public:
    Peer(NakamotoNetwork& net, NodeId id, double hash_share)
        : chain(net.genesis_),
          txs(net.hub_->endpoint(id), net.params_.mempool, &net.lifecycle_),
          miner(crypto::PrivateKey::from_seed(net.params_.chain_tag + "/miner/" +
                                              std::to_string(id))
                    .address()),
          engine(net.hub_->endpoint(id), *this, chain, chain.genesis_hash(), txs,
                 net.params_, hash_share, miner, net.rng_.fork(0x100 + id)),
          net_(net),
          id_(id) {
        net.hub_->endpoint(id).set_handler(
            [this](PeerId from, const std::string& topic, ByteView payload) {
                engine.handle(from, topic, payload);
            });
    }

    const ledger::UtxoSet& utxo() const override { return state; }
    void connect(const Block& block) override {
        undo.emplace(block.hash(), ledger::connect_block(block, state, net_.params_.validation));
    }
    void disconnect(const Block& block) override {
        state.undo_block(undo.at(block.hash()));
        undo.erase(block.hash());
    }
    bool release(const Block& block) override {
        return !net_.mined_hook_ || net_.mined_hook_(id_, block);
    }
    void on_reorg(const std::vector<Hash256>& disconnected,
                  const std::vector<Hash256>& connected) override {
        if (id_ == 0) net_.observe_reorg(disconnected, connected);
    }

    ledger::ChainStore chain;
    ledger::UtxoSet state; // at the engine's tip
    std::unordered_map<Hash256, ledger::UtxoUndo> undo; // connected blocks
    TxRelay txs;
    crypto::Address miner;
    NakamotoEngine engine;

private:
    NakamotoNetwork& net_;
    NodeId id_;
};

NakamotoNetwork::NakamotoNetwork(NakamotoParams params, std::uint64_t seed)
    : params_(std::move(params)),
      rng_(seed),
      lifecycle_(params_.finality_depth, &obs::Tracer::global()) {
    DLT_EXPECTS(params_.node_count >= 2);
    DLT_EXPECTS(params_.block_interval > 0);

    genesis_ = ledger::make_genesis(params_.chain_tag, ledger::easy_bits(1));
    network_ = std::make_unique<net::Network>(scheduler_, rng_.fork(0xA));
    hub_ = std::make_unique<net::transport::SimTransportHub>(*network_,
                                                             params_.node_count);
    network_->build_unstructured_overlay(params_.overlay_degree, params_.link);
    hub_->set_send_filter([this](PeerId from, PeerId to, const std::string& topic) {
        return !relay_filter_ || (topic != "tx" && topic != "blk") ||
               relay_filter_(from, to, topic);
    });

    // Normalize hash power.
    std::vector<double> shares = params_.hashrate_shares;
    if (shares.empty()) shares.assign(params_.node_count, 1.0);
    DLT_EXPECTS(shares.size() == params_.node_count);
    double total = 0;
    for (const double s : shares) total += s;
    DLT_EXPECTS(total > 0);
    for (NodeId i = 0; i < params_.node_count; ++i)
        peers_.push_back(std::make_unique<Peer>(*this, i, shares[i] / total));

    // Peer 0 is the observed replica: its mempool drops become explicit
    // lifecycle terminal events (reasons share the enumeration order).
    peers_[0]->txs.mempool().set_drop_observer(
        [this](const Hash256& txid, ledger::MempoolDropReason reason, SimTime at) {
            lifecycle_.on_dropped(
                txid, 0, at,
                static_cast<obs::TxDropReason>(static_cast<std::uint8_t>(reason)));
        });
}

NakamotoNetwork::~NakamotoNetwork() = default;

void NakamotoNetwork::start() {
    for (auto& peer : peers_) peer->engine.start();
}

void NakamotoNetwork::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

void NakamotoNetwork::submit_transaction(const Transaction& tx, NodeId origin) {
    lifecycle_.on_submitted(tx.txid(), scheduler_.now(), origin);
    peers_.at(origin)->txs.submit(tx);
}

void NakamotoNetwork::observe_reorg(const std::vector<Hash256>& disconnected,
                                    const std::vector<Hash256>& connected) {
    const ledger::ChainStore& chain = peers_[0]->chain;
    const SimTime at = scheduler_.now();
    for (const auto& hash : disconnected) {
        const auto* entry = chain.find(hash);
        lifecycle_.on_block_disconnected(entry->height, entry->block.txids());
    }
    for (const auto& hash : connected) {
        const auto* entry = chain.find(hash);
        lifecycle_.on_block_connected(entry->height, entry->block.txids(), at);
    }
    lifecycle_.on_tip_height(height_of(0), at);
    auto& tracer = obs::Tracer::global();
    if (tracer.enabled() && !disconnected.empty()) {
        tracer.instant("chain.reorg", "consensus", at, 0,
                       {{"depth", obs::trace_arg(static_cast<std::uint64_t>(
                             disconnected.size()))},
                        {"connected", obs::trace_arg(static_cast<std::uint64_t>(
                             connected.size()))}});
    }
}

void NakamotoNetwork::publish_block(NodeId node, const Hash256& hash) {
    peers_.at(node)->engine.publish(hash);
}

void NakamotoNetwork::push_block(NodeId from, NodeId to, const Block& block) {
    hub_->endpoint(from).send(to, "blkreply", ByteView(encode_to_bytes(block)));
}

void NakamotoNetwork::set_network_hashrate(double multiplier) {
    network_hashrate_ = multiplier;
    for (auto& peer : peers_) peer->engine.set_network_hashrate(multiplier);
}

std::uint32_t NakamotoNetwork::next_bits(NodeId node, const Hash256& tip) const {
    return peers_.at(node)->engine.next_bits(tip);
}

std::optional<double> NakamotoNetwork::observed_interval(std::size_t window) const {
    const ledger::ChainStore& chain = peers_.front()->chain;
    const auto path = chain.path_from_genesis(tip_of(0));
    if (path.size() < 3) return std::nullopt;
    const std::size_t take = std::min(window + 1, path.size());
    const auto& newest = chain.find(path.back())->block.header;
    const auto& oldest = chain.find(path[path.size() - take])->block.header;
    return (newest.timestamp - oldest.timestamp) / static_cast<double>(take - 1);
}

const Hash256& NakamotoNetwork::tip_of(NodeId node) const {
    return peers_.at(node)->engine.tip();
}

std::uint64_t NakamotoNetwork::height_of(NodeId node) const {
    return peers_.at(node)->engine.height();
}

bool NakamotoNetwork::converged() const {
    for (std::size_t i = 1; i < peers_.size(); ++i)
        if (tip_of(i) != tip_of(0)) return false;
    return true;
}

std::optional<Hash256> NakamotoNetwork::majority_tip() const {
    std::unordered_map<Hash256, std::size_t> votes;
    for (NodeId i = 0; i < peers_.size(); ++i) ++votes[tip_of(i)];
    for (const auto& [tip, count] : votes)
        if (count * 2 > peers_.size()) return tip;
    return std::nullopt;
}

std::vector<Block> NakamotoNetwork::canonical_chain() const {
    const ledger::ChainStore& chain = peers_.front()->chain;
    std::vector<Block> blocks;
    for (const auto& hash : chain.path_from_genesis(tip_of(0))) {
        if (hash == chain.genesis_hash()) continue;
        blocks.push_back(chain.find(hash)->block);
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
    return peers_.front()->chain.stale_count(tip_of(0));
}

double NakamotoNetwork::stale_rate() const {
    const std::size_t total = peers_.front()->chain.size() - 1; // exclude genesis
    if (total == 0) return 0.0;
    return static_cast<double>(stale_blocks()) / static_cast<double>(total);
}

std::optional<std::uint64_t> NakamotoNetwork::confirmations_of(
    const Hash256& txid) const {
    const ledger::ChainStore& chain = peers_.front()->chain;
    const std::uint64_t tip_height = height_of(0);
    for (const auto& hash : chain.path_from_genesis(tip_of(0))) {
        const auto* entry = chain.find(hash);
        for (const auto& tx : entry->block.txs)
            if (tx.txid() == txid) return tip_height - entry->height + 1;
    }
    return std::nullopt;
}

const NakamotoStats& NakamotoNetwork::stats() const {
    stats_ = {};
    for (const auto& peer : peers_) {
        stats_.blocks_mined += peer->engine.stats().blocks_mined;
        stats_.reorgs += peer->engine.stats().reorgs;
        stats_.invalid_blocks += peer->engine.stats().invalid_blocks;
    }
    return stats_;
}

ChainEvents& NakamotoNetwork::events(NodeId node) { return peers_.at(node)->engine.events(); }

const ledger::ChainStore& NakamotoNetwork::chain_of(NodeId node) const {
    return peers_.at(node)->chain;
}

const ledger::Mempool& NakamotoNetwork::mempool_of(NodeId node) const {
    return peers_.at(node)->txs.mempool();
}

const ledger::UtxoSet& NakamotoNetwork::utxo_of(NodeId node) const {
    return peers_.at(node)->state;
}

const crypto::Address& NakamotoNetwork::miner_address(NodeId node) const {
    return peers_.at(node)->miner;
}

} // namespace dlt::consensus
