#include "core/replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/keys.hpp"
#include "ledger/amount.hpp"

namespace dlt::core {

using ledger::Block;
using ledger::Transaction;
using net::transport::PeerId;

namespace {

PersistentNodeOptions node_options(const ReplicaConfig& config) {
    PersistentNodeOptions options;
    options.state_engine = config.state_engine;
    options.fsync = config.fsync;
    return options;
}

// Wire helpers: every protocol payload is a Writer/Reader composition of the
// ledger types' own codecs.
Bytes encode_hash(const Hash256& hash) {
    Writer w;
    w.fixed(hash);
    return std::move(w).take();
}

} // namespace

Replica::Replica(net::transport::Transport& transport, ReplicaConfig config)
    : transport_(transport),
      config_(std::move(config)),
      rng_(config_.seed + 0x9e3779b97f4a7c15ull * (transport.local_id() + 1)),
      node_(config_.data_dir,
            ledger::make_genesis(config_.chain_tag, config_.genesis_bits),
            node_options(config_)),
      mempool_(config_.mempool),
      miner_(crypto::PrivateKey::from_seed(config_.chain_tag + "/miner/" +
                                           std::to_string(transport.local_id()))
                 .address()),
      chain_(ledger::make_genesis(config_.chain_tag, config_.genesis_bits)) {
    DLT_EXPECTS(config_.node_count >= 1);
    rules_.max_block_bytes = config_.max_block_bytes;
    rules_.max_txs_per_block = config_.max_block_txs;
    rules_.sig_mode = config_.sig_mode;

    // Seed the in-memory branch index with the recovered canonical chain so
    // fork choice and reorg paths work immediately after a restart.
    for (const Hash256& hash : node_.chain().path_from_genesis(node_.tip())) {
        if (hash == chain_.genesis_hash()) continue;
        chain_.insert(node_.chain().find(hash)->block, crypto::U256::one());
    }
    confirmed_txs_ = 0;
    for (const Hash256& hash : chain_.path_from_genesis(node_.tip()))
        for (const Transaction& tx : chain_.find(hash)->block.txs)
            if (!tx.is_coinbase()) {
                ++confirmed_txs_;
                seen_txs_.insert(tx.txid());
            }

    if (config_.engine == ReplicaEngine::kPbft) {
        consensus::PbftConfig pbft;
        pbft.f = (config_.node_count - 1) / 3;
        pbft.batch_interval = config_.block_interval;
        // Backups must outwait one batch interval plus a commit round.
        pbft.view_change_timeout =
            std::max(pbft.view_change_timeout, 2 * config_.block_interval);
        DLT_EXPECTS(config_.node_count == 3 * pbft.f + 1);
        consensus::PbftHost& host = *this;
        pbft_ = std::make_unique<consensus::PbftEngine>(transport_, host, pbft,
                                                        node_.height());
    }

    transport_.set_handler(
        [this](PeerId from, const std::string& topic, ByteView payload) {
            try {
                on_message(from, topic, payload);
            } catch (const DecodeError&) {
                // Malformed payload from a peer: drop it, never crash.
            }
        });
}

void Replica::start() {
    if (running_) return;
    running_ = true;
    if (config_.engine == ReplicaEngine::kNakamoto)
        nk_schedule_mining();
    else if (has_pending())
        pbft_->work_arrived();
    arm_sync_timer();
}

void Replica::stop() {
    if (!running_) return;
    running_ = false;
    if (mining_timer_) transport_.cancel_timer(*mining_timer_);
    if (sync_timer_) transport_.cancel_timer(*sync_timer_);
    mining_timer_.reset();
    sync_timer_.reset();
    if (pbft_) pbft_->stop();
}

void Replica::arm_sync_timer() {
    sync_timer_ = transport_.schedule_after(config_.sync_interval, [this] {
        if (!running_) return;
        if (config_.engine == ReplicaEngine::kNakamoto)
            nk_sync_probe();
        else
            pbft_sync_probe();
        arm_sync_timer();
    });
}

PeerId Replica::random_peer() {
    const auto peers = transport_.peer_ids();
    DLT_EXPECTS(!peers.empty());
    return peers[rng_.index(peers.size())];
}

bool Replica::submit_transaction(const Transaction& tx) {
    const Hash256 txid = tx.txid();
    if (seen_txs_.contains(txid)) return false;
    if (!mempool_.add(tx, transport_.now())) return false;
    seen_txs_.insert(txid);
    submitted_at_.emplace(txid, transport_.now());
    transport_.broadcast("tx", ByteView(encode_to_bytes(tx)));
    if (pbft_ && running_) pbft_->work_arrived();
    return true;
}

ledger::Block Replica::assemble_block() {
    ledger::BlockHeader header;
    header.prev_hash = node_.tip();
    header.height = node_.height() + 1;
    header.timestamp = transport_.now();
    header.bits = config_.genesis_bits;
    header.nonce = rng_.next(); // simulated proof, as in the simulator
    header.proposer = miner_;
    return ledger::build_block(header, mempool_, node_.utxo(), config_.max_block_bytes,
                               config_.max_block_txs);
}

void Replica::check_on_tip(const Block& block) const {
    // Full validation against just the tip's outputs the block spends.
    ledger::UtxoSet coins;
    for (const Transaction& tx : block.txs) coins.fetch_inputs(node_.utxo(), tx);
    ledger::connect_block(block, coins, rules_);
    if (block.header.prev_hash != node_.tip())
        throw ValidationError("block does not extend the tip");
}

void Replica::connected(const Block& block) {
    std::vector<Hash256> ids;
    ids.reserve(block.txs.size());
    const double t = transport_.now();
    for (const Transaction& tx : block.txs) {
        if (tx.is_coinbase()) continue;
        const Hash256 txid = tx.txid();
        ids.push_back(txid);
        seen_txs_.insert(txid); // a later relay must not re-admit it
        ++confirmed_txs_;
        if (const auto it = submitted_at_.find(txid); it != submitted_at_.end()) {
            latencies_.push_back(t - it->second);
            submitted_at_.erase(it);
        }
    }
    mempool_.remove_confirmed(ids);
    seq_claims_.clear(); // they named the block at the old height + 1
}

void Replica::disconnected(const Block& block) {
    std::vector<Transaction> back;
    for (const Transaction& tx : block.txs)
        if (!tx.is_coinbase()) {
            --confirmed_txs_;
            back.push_back(tx);
        }
    mempool_.add_back(back, transport_.now());
}

void Replica::on_message(PeerId from, const std::string& topic, ByteView payload) {
    if (topic == "tx") {
        if (!running_) return;
        Transaction tx = decode_from_bytes<Transaction>(payload);
        if (!seen_txs_.insert(tx.txid()).second) return; // relay dedup
        if (mempool_.add(tx, transport_.now())) {
            transport_.broadcast_except(from, "tx", payload);
            if (pbft_) pbft_->work_arrived();
        }
        return;
    }

    if (config_.engine == ReplicaEngine::kNakamoto) {
        if (topic == "blk") {
            if (!running_) return;
            nk_handle_block(decode_from_bytes<Block>(payload), from,
                            /*relay=*/true);
        } else if (topic == "getblk") {
            Reader r(payload);
            const Hash256 hash = r.fixed<32>();
            r.expect_done();
            if (const auto* entry = chain_.find(hash))
                transport_.send(from, "blk", ByteView(encode_to_bytes(entry->block)));
        } else if (topic == "gettip") {
            if (node_.height() > 0)
                transport_.send(from, "blk",
                                ByteView(encode_to_bytes(
                                    chain_.find(node_.tip())->block)));
        }
        return;
    }

    if (topic == "getseq") {
        Reader r(payload);
        const std::uint64_t seq = r.u64();
        r.expect_done();
        if (seq >= 1 && seq <= node_.height()) {
            const Hash256 hash =
                node_.chain().ancestor(node_.tip(), node_.height() - seq);
            Writer w;
            w.u64(seq);
            node_.chain().find(hash)->block.encode(w);
            transport_.send(from, "seq", ByteView(w.data()));
        }
    } else if (!running_) {
        return;
    } else if (topic == "seq") {
        // Catch-up: the next block from peers' canonical chains, connected once
        // f+1 of them return it, so at least one correct replica committed it.
        Reader r(payload);
        if (r.u64() != node_.height() + 1 || from >= config_.node_count) return;
        const Block block = Block::decode(r);
        r.expect_done();
        const Hash256 hash = seq_claims_[from] = block.hash();
        std::uint32_t vouchers = 0;
        for (const auto& [peer, claimed] : seq_claims_) vouchers += claimed == hash;
        if (vouchers > (config_.node_count - 1) / 3 && connect_committed(block)) {
            pbft_->skip_to(node_.height());
            pbft_sync_probe(); // ask for the next one at once
        }
    } else {
        pbft_->handle(from, topic, payload);
    }
}

// --- Nakamoto ---------------------------------------------------------------

void Replica::nk_handle_block(const Block& block, PeerId from, bool relay) {
    const Hash256 hash = block.hash();
    requested_.erase(hash);
    if (chain_.contains(hash) || invalid_.contains(hash)) return;
    try {
        ledger::check_block_structure(block, rules_);
    } catch (const ValidationError&) {
        invalid_.insert(hash);
        return;
    }
    if (!chain_.contains(block.header.prev_hash)) {
        auto& waiting = orphans_[block.header.prev_hash];
        if (std::none_of(waiting.begin(), waiting.end(),
                         [&](const Block& b) { return b.hash() == hash; }))
            waiting.push_back(block);
        nk_request_block(block.header.prev_hash, from);
        return;
    }
    nk_try_insert(block);
    if (relay)
        transport_.broadcast_except(from, "blk", ByteView(encode_to_bytes(block)));
    nk_update_active_tip();
}

void Replica::nk_try_insert(const Block& block) {
    // Insert the block, then any orphans that became connectable through it.
    std::vector<Block> queue{block};
    while (!queue.empty()) {
        Block b = std::move(queue.back());
        queue.pop_back();
        const Hash256 h = b.hash();
        if (!chain_.contains(h))
            chain_.insert(b, crypto::U256::one(), transport_.now());
        if (const auto it = orphans_.find(h); it != orphans_.end()) {
            for (auto& child : it->second) queue.push_back(std::move(child));
            orphans_.erase(it);
        }
    }
}

Hash256 Replica::nk_select_tip() const {
    if (invalid_.empty()) return chain_.best_tip_by_work();
    // Best-work leaf whose ancestry avoids every invalid block. The current
    // durable tip is always a valid fallback.
    Hash256 winner = node_.tip();
    crypto::U256 winner_work = chain_.find(winner)->cumulative_work;
    for (const Hash256& leaf : chain_.leaves()) {
        bool tainted = false;
        for (Hash256 walk = leaf; walk != chain_.genesis_hash();
             walk = chain_.find(walk)->block.header.prev_hash) {
            if (invalid_.contains(walk)) {
                tainted = true;
                break;
            }
        }
        if (tainted) continue;
        const auto* entry = chain_.find(leaf);
        if (entry->cumulative_work > winner_work ||
            (entry->cumulative_work == winner_work && leaf < winner)) {
            winner = leaf;
            winner_work = entry->cumulative_work;
        }
    }
    return winner;
}

void Replica::nk_mark_invalid(const Hash256& hash) {
    std::vector<Hash256> queue{hash};
    while (!queue.empty()) {
        const Hash256 h = queue.back();
        queue.pop_back();
        if (!invalid_.insert(h).second) continue;
        for (const Hash256& child : chain_.children(h)) queue.push_back(child);
    }
}

void Replica::nk_update_active_tip() {
    while (true) {
        const Hash256 best = nk_select_tip();
        if (best == node_.tip()) return;
        const auto path = chain_.reorg_path(node_.tip(), best);
        bool failed = false;
        for (const Hash256& h : path.disconnect) {
            const auto* entry = chain_.find(h);
            node_.disconnect_tip();
            disconnected(entry->block);
        }
        for (const Hash256& h : path.connect) {
            const auto* entry = chain_.find(h);
            try {
                check_on_tip(entry->block); // apply_block skips the coinbase ceiling
                node_.connect_block(entry->block);
            } catch (const Error&) {
                nk_mark_invalid(h); // contextually invalid: taint the subtree
                failed = true;
                break;
            }
            connected(entry->block);
        }
        if (!failed) return;
    }
}

void Replica::nk_request_block(const Hash256& hash, PeerId from) {
    if (chain_.contains(hash) || !requested_.insert(hash).second) return;
    if (!transport_.send(from, "getblk", ByteView(encode_hash(hash))) &&
        !transport_.peer_ids().empty())
        transport_.send(random_peer(), "getblk", ByteView(encode_hash(hash)));
}

void Replica::nk_schedule_mining() {
    const double rate = 1.0 / (config_.block_interval * config_.node_count);
    const double delay = rng_.exponential(rate);
    mining_timer_ = transport_.schedule_after(delay, [this] {
        mining_timer_.reset();
        if (!running_) return;
        const Block block = assemble_block();
        nk_handle_block(block, transport_.local_id(), /*relay=*/false);
        transport_.broadcast("blk", ByteView(encode_to_bytes(block)));
        nk_schedule_mining();
    });
}

void Replica::nk_sync_probe() {
    if (transport_.peer_ids().empty()) return;
    // Re-issue fetches that went unanswered (lost frame, peer was down).
    requested_.clear();
    std::vector<Hash256> missing;
    for (const auto& [parent, blocks] : orphans_) missing.push_back(parent);
    for (const Hash256& parent : missing) nk_request_block(parent, random_peer());
    // Bootstrap / divergence repair: learn a random peer's tip.
    transport_.send(random_peer(), "gettip", ByteView());
}

// --- PBFT -------------------------------------------------------------------

std::optional<std::vector<Bytes>> Replica::next_batch(std::uint64_t seq,
                                                      bool interval_elapsed) {
    // One block per interval, built on the committed tip: a block still in
    // flight makes `seq` run ahead of the tip, and the engine asks again.
    if (!interval_elapsed || seq != node_.height() + 1) return std::nullopt;
    return std::vector<Bytes>{encode_to_bytes(assemble_block())};
}

bool Replica::accepts(std::uint64_t seq, const std::vector<Bytes>& batch) {
    // One valid block on the committed tip. A backup still executing seq-1
    // refuses for now; the engine asks again once it has.
    if (batch.size() != 1 || seq != node_.height() + 1) return false;
    try {
        const Block block = decode_from_bytes<Block>(ByteView(batch[0]));
        check_on_tip(block);
        return block.header.height == seq;
    } catch (const Error&) {
        return false;
    }
}

void Replica::execute(std::uint64_t, std::uint32_t, std::vector<Bytes> batch) {
    // Only blocks accepts() passed, or this replica's own, commit here.
    connect_committed(decode_from_bytes<Block>(ByteView(batch.front())));
}

bool Replica::connect_committed(const Block& block) {
    try {
        ledger::check_block_structure(block, rules_);
        node_.connect_block(block); // throws unless it extends the tip
    } catch (const Error&) {
        return false;
    }
    connected(block);
    return true;
}

void Replica::pbft_sync_probe() {
    // Ask every peer for the next committed sequence; each answers only when
    // it has one. Covers bootstrap, missed commits, and post-restart rejoin.
    Writer w;
    w.u64(node_.height() + 1);
    transport_.broadcast("getseq", ByteView(w.data()));
}

} // namespace dlt::core
