#include "core/replica.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/keys.hpp"

namespace dlt::core {

using ledger::Block;
using ledger::Transaction;
using net::transport::PeerId;

Replica::Replica(net::transport::Transport& transport, ReplicaConfig config)
    : transport_(transport),
      config_(std::move(config)),
      rng_(config_.seed + 0x9e3779b97f4a7c15ull * (transport.local_id() + 1)),
      node_(config_.data_dir,
            ledger::make_genesis(config_.chain_tag, config_.genesis_bits),
            {.fsync = config_.fsync, .state_engine = config_.state_engine}),
      txs_(transport, config_.mempool),
      miner_(crypto::PrivateKey::from_seed(config_.chain_tag + "/miner/" +
                                           std::to_string(transport.local_id()))
                 .address()) {
    DLT_EXPECTS(config_.node_count >= 1);
    rules_.max_block_bytes = config_.max_block_bytes;
    rules_.max_txs_per_block = config_.max_block_txs;
    rules_.sig_mode = config_.sig_mode;

    // The recovered chain's transactions count as confirmed and seen.
    for (const Hash256& hash : node_.chain().path_from_genesis(node_.tip())) {
        const Block& block = node_.chain().find(hash)->block;
        connected(block);
        txs_.connected(block);
    }

    if (config_.engine == ReplicaEngine::kNakamoto) {
        consensus::NakamotoParams params;
        params.block_interval = config_.block_interval;
        params.max_block_bytes = config_.max_block_bytes;
        params.max_block_txs = config_.max_block_txs;
        params.validation = rules_;
        consensus::NakamotoHost& host = *this;
        nakamoto_ = std::make_unique<consensus::NakamotoEngine>(
            transport_, host, node_.chain(), node_.tip(), txs_, params,
            1.0 / config_.node_count, miner_, rng_, config_.sync_interval);
    } else {
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
    if (nakamoto_) {
        nakamoto_->start();
    } else {
        if (has_pending()) pbft_->work_arrived();
        arm_sync_timer();
    }
}

void Replica::stop() {
    if (!running_) return;
    running_ = false;
    if (sync_timer_) transport_.cancel_timer(*sync_timer_);
    sync_timer_.reset();
    if (nakamoto_) nakamoto_->stop();
    if (pbft_) pbft_->stop();
}

void Replica::arm_sync_timer() {
    sync_timer_ = transport_.schedule_after(config_.sync_interval, [this] {
        if (!running_) return;
        pbft_sync_probe();
        repair_primary();
        arm_sync_timer();
    });
}

bool Replica::submit_transaction(const Transaction& tx) {
    if (!txs_.submit(tx)) return false;
    submitted_at_.emplace(tx.txid(), transport_.now());
    if (pbft_ && running_) pbft_->work_arrived();
    return true;
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
    const double t = transport_.now();
    for (const Transaction& tx : block.txs) {
        if (tx.is_coinbase()) continue;
        ++confirmed_txs_;
        if (const auto it = submitted_at_.find(tx.txid()); it != submitted_at_.end()) {
            latencies_.push_back(t - it->second);
            submitted_at_.erase(it);
        }
    }
    seq_claims_.clear(); // they named the block at the old height + 1
}

void Replica::connect(const Block& block) {
    check_on_tip(block); // apply_block skips the coinbase ceiling
    node_.connect_block(block);
    connected(block);
}

void Replica::disconnect(const Block& block) {
    node_.disconnect_tip();
    for (const Transaction& tx : block.txs)
        if (!tx.is_coinbase()) --confirmed_txs_;
}

void Replica::on_message(PeerId from, const std::string& topic, ByteView payload) {
    if (nakamoto_) {
        nakamoto_->handle(from, topic, payload);
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
    } else if (topic == "tx") {
        if (!txs_.handle(from, payload)) return;
        held_by(Reader(payload).fixed<32>(), from);
        pbft_->work_arrived();
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

// --- PBFT -------------------------------------------------------------------

std::optional<std::vector<Bytes>> Replica::next_batch(std::uint64_t seq,
                                                      bool interval_elapsed) {
    // One block per interval, built on the committed tip: a block still in
    // flight makes `seq` run ahead of the tip, and the engine asks again.
    if (!interval_elapsed || seq != node_.height() + 1) return std::nullopt;
    ledger::BlockHeader header;
    header.prev_hash = node_.tip();
    header.height = seq;
    header.timestamp = transport_.now();
    header.bits = config_.genesis_bits;
    header.nonce = rng_.next(); // simulated proof, as in the Nakamoto engine
    header.proposer = miner_;
    return std::vector<Bytes>{encode_to_bytes(ledger::build_block(
        header, txs_.mempool(), node_.utxo(), config_.max_block_bytes,
        config_.max_block_txs))};
}

bool Replica::accepts(std::uint64_t seq, const std::vector<Bytes>& batch) {
    // One valid block on the committed tip. A backup still executing seq-1
    // refuses for now; the engine asks again once it has.
    if (batch.size() != 1 || seq != node_.height() + 1) return false;
    try {
        const Block block = decode_from_bytes<Block>(ByteView(batch[0]));
        for (const Hash256& txid : block.txids())
            held_by(txid, pbft_->view() % config_.node_count);
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
    txs_.connected(block);
    return true;
}

void Replica::pbft_sync_probe() {
    // Ask every peer for the next committed sequence; each answers only when
    // it has one. Covers bootstrap, missed commits, and post-restart rejoin.
    Writer w;
    w.u64(node_.height() + 1);
    transport_.broadcast("getseq", ByteView(w.data()));
}

void Replica::repair_primary() {
    const ledger::Mempool& pool = txs_.mempool();
    std::erase_if(repaired_, [&pool](const auto& entry) { return !pool.contains(entry.first); });
    const PeerId primary = pbft_->view() % config_.node_count;
    if (primary == transport_.local_id()) return;
    // A lossless primary proposes what it holds within one block interval;
    // one sync tick more means its copy was most likely lost. The repair
    // then lands within block_interval + 2 * sync_interval of admission,
    // inside the view-change timeout.
    const double cutoff = transport_.now() - config_.block_interval - config_.sync_interval;
    for (const Transaction* tx : pool.admitted_before(cutoff))
        if (held_by(tx->txid(), primary)) txs_.send(primary, *tx);
}

bool Replica::held_by(const Hash256& txid, PeerId peer) {
    std::vector<PeerId>& holders = repaired_[txid];
    if (std::find(holders.begin(), holders.end(), peer) != holders.end()) return false;
    holders.push_back(peer);
    return true;
}

} // namespace dlt::core
