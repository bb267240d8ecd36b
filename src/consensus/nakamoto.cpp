#include "consensus/nakamoto.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "consensus/pow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlt::consensus {

using ledger::Block;
using net::NodeId;
using net::transport::PeerId;

namespace {

/// The registry's consensus counters, summed over every engine.
struct Counters {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    obs::Counter& blocks_mined =
        r.counter("consensus_blocks_mined_total", "Blocks mined across all peers");
    obs::Counter& reorgs = r.counter("consensus_reorgs_total", "Reorganizations across all peers");
    obs::Counter& invalid_blocks =
        r.counter("consensus_invalid_blocks_total", "Blocks rejected during connect");
};

Counters& counters() {
    static Counters c;
    return c;
}

} // namespace

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
      tip_(tip),
      blocks_(transport, *this, txs, rng_, sync_interval) {
    DLT_EXPECTS(index_.contains(tip_));
    DLT_EXPECTS(hash_share_ >= 0 && hash_share_ <= 1);
}

void NakamotoEngine::start() {
    mining_ = true;
    schedule_mining();
}

void NakamotoEngine::stop() {
    mining_ = false;
    if (mining_timer_) transport_.cancel_timer(*mining_timer_);
    mining_timer_.reset();
    blocks_.stop();
}

const Block* NakamotoEngine::find(const Hash256& hash) const {
    const auto* entry = index_.find(hash);
    return entry == nullptr ? nullptr : &entry->block;
}

void NakamotoEngine::insert(const Block& block) {
    if (index_.insert(block, ledger::work_from_bits(block.header.bits)) &&
        events_.on_block_inserted)
        events_.on_block_inserted(block, transport_.now());
}

void NakamotoEngine::settle() {
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
    blocks_.adopt(block);
    if (release) blocks_.publish(block);
    if (!mining_timer_) schedule_mining();
}

void NakamotoEngine::publish(const Hash256& hash) {
    const Block* block = find(hash);
    DLT_EXPECTS(block != nullptr);
    blocks_.publish(*block);
}

// --- Simulated network -----------------------------------------------------------------

/// One simulated peer: the engine's host, on an in-memory UTXO set.
class NakamotoNetwork::Peer final : public NakamotoHost {
public:
    Peer(NakamotoNetwork& net, NodeId id, double hash_share)
        : chain(net.genesis_),
          engine(net.endpoint(id), *this, chain, chain.genesis_hash(), net.txs(id),
                 net.params_, hash_share, net.miner_address(id), net.rng_.fork(0x100 + id)),
          net_(net),
          id_(id) {
        net.endpoint(id).set_handler(
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
    bool release(const Block& block) override { return net_.release(id_, block); }
    void on_reorg(const std::vector<Hash256>& disconnected,
                  const std::vector<Hash256>& connected) override {
        if (id_ == 0) net_.observe_reorg(disconnected, connected);
    }

    ledger::ChainStore chain;
    ledger::UtxoSet state; // at the engine's tip
    std::unordered_map<Hash256, ledger::UtxoUndo> undo; // connected blocks
    NakamotoEngine engine;

private:
    NakamotoNetwork& net_;
    NodeId id_;
};

NakamotoNetwork::NakamotoNetwork(NakamotoParams params, std::uint64_t seed)
    : SimHarness(seed, params.node_count, params.overlay_degree, params.link,
                 params.mempool, params.finality_depth, params.chain_tag),
      params_(std::move(params)),
      genesis_(ledger::make_genesis(params_.chain_tag, ledger::easy_bits(1))) {
    DLT_EXPECTS(params_.block_interval > 0);

    // Normalize hash power.
    std::vector<double> shares = params_.hashrate_shares;
    if (shares.empty()) shares.assign(params_.node_count, 1.0);
    DLT_EXPECTS(shares.size() == params_.node_count);
    double total = 0;
    for (const double s : shares) total += s;
    DLT_EXPECTS(total > 0);
    for (NodeId i = 0; i < params_.node_count; ++i)
        peers_.push_back(std::make_unique<Peer>(*this, i, shares[i] / total));
}

NakamotoNetwork::~NakamotoNetwork() = default;

void NakamotoNetwork::start() {
    for (auto& peer : peers_) peer->engine.start();
}

void NakamotoNetwork::observe_reorg(const std::vector<Hash256>& disconnected,
                                    const std::vector<Hash256>& connected) {
    const ledger::ChainStore& chain = peers_[0]->chain;
    const SimTime at = scheduler_.now();
    for (const auto& hash : disconnected) {
        const auto* entry = chain.find(hash);
        lifecycle().on_block_disconnected(entry->height, entry->block.txids());
    }
    for (const auto& hash : connected) {
        const auto* entry = chain.find(hash);
        lifecycle().on_block_connected(entry->height, entry->block.txids(), at);
    }
    lifecycle().on_tip_height(height_of(0), at);
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

std::size_t NakamotoNetwork::orphan_count(NodeId node) const {
    return peers_.at(node)->engine.orphan_count();
}

ChainEvents& NakamotoNetwork::events(NodeId node) { return peers_.at(node)->engine.events(); }

const ledger::ChainStore& NakamotoNetwork::chain_of(NodeId node) const {
    return peers_.at(node)->chain;
}

const ledger::UtxoSet& NakamotoNetwork::utxo_of(NodeId node) const {
    return peers_.at(node)->state;
}

} // namespace dlt::consensus
