#include "consensus/relay.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"

namespace dlt::consensus {

using ledger::Block;
using ledger::Transaction;
using net::transport::PeerId;

namespace {

/// Count one relayed frame as a first delivery or a duplicate dropped, summed
/// over every node.
void count_frame(bool duplicate) {
    auto& registry = obs::MetricsRegistry::global();
    static obs::Counter& accepts =
        registry.counter("gossip_accepts_total", "First-time deliveries across all nodes");
    static obs::Counter& dedup_hits =
        registry.counter("gossip_dedup_hits_total", "Frames discarded as already seen");
    (duplicate ? dedup_hits : accepts).inc();
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
    const ledger::AdmissionResult verdict = mempool_.admit(tx, transport_.now());
    const bool ok = verdict == ledger::AdmissionResult::kAccepted ||
                    verdict == ledger::AdmissionResult::kRbfReplaced;
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

// --- Block path ------------------------------------------------------------------------

BlockRelay::BlockRelay(net::transport::Transport& transport, BlockIndex& index,
                       TxRelay& txs, Rng& rng, double sync_interval)
    : transport_(transport),
      index_(index),
      txs_(txs),
      rng_(rng),
      sync_interval_(sync_interval) {
    DLT_EXPECTS(sync_interval_ > 0);
}

void BlockRelay::stop() {
    if (retry_timer_) transport_.cancel_timer(*retry_timer_);
    retry_timer_.reset();
}

void BlockRelay::handle(PeerId from, const std::string& topic, ByteView payload) {
    try {
        if (topic == "tx") {
            if (txs_.handle(from, payload)) transport_.broadcast_except(from, "tx", payload);
        } else if (topic == "blk" || topic == "blkreply") {
            on_block(from, payload, topic == "blk");
        } else if (topic == "getblk") {
            Reader r(payload);
            const Hash256 hash = r.fixed<32>();
            r.expect_done();
            if (const Block* block = index_.find(hash))
                transport_.send(from, "blkreply", ByteView(encode_to_bytes(*block)));
        }
    } catch (const DecodeError&) {
    }
}

void BlockRelay::on_block(PeerId from, ByteView payload, bool relay) {
    // A duplicate costs one header decode and hash.
    Reader header(payload);
    const Hash256 hash = ledger::BlockHeader::decode(header).hash();
    if (index_.has(hash) || orphans_.contains(hash)) {
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
    std::vector<Hash256> parents = index_.parents(block);
    count_frame(/*duplicate=*/false);
    if (std::all_of(parents.begin(), parents.end(),
                    [this](const Hash256& p) { return index_.has(p); }))
        adopt(std::move(block));
    else
        park(hash, std::move(block), std::move(parents), from);
    if (relay) transport_.broadcast_except(from, "blk", payload);
}

void BlockRelay::park(const Hash256& hash, Block block, std::vector<Hash256> parents,
                      PeerId from) {
    if (orphans_.size() >= kMaxOrphans) {
        orphans_.erase(std::min_element(
            orphans_.begin(), orphans_.end(),
            [](const auto& a, const auto& b) { return a.second.parked < b.second.parked; }));
    }
    // Fetch the oldest missing ancestors: follow parked parents back to the
    // hashes neither indexed nor parked. Each reply walks one hop further
    // back, until the branch roots in the index.
    std::vector<Hash256> missing;
    std::unordered_set<Hash256> visited;
    for (std::vector<Hash256> walk = parents; !walk.empty();) {
        const Hash256 ancestor = walk.back();
        walk.pop_back();
        if (index_.has(ancestor) || !visited.insert(ancestor).second) continue;
        if (const auto it = orphans_.find(ancestor); it != orphans_.end())
            walk.insert(walk.end(), it->second.parents.begin(), it->second.parents.end());
        else
            missing.push_back(ancestor);
    }
    orphans_.emplace(hash, Orphan{std::move(block), std::move(parents), parked_++});
    for (const Hash256& ancestor : missing) request(ancestor, from);
}

void BlockRelay::adopt(Block block) {
    std::vector<Block> pending;
    pending.push_back(std::move(block));
    while (!pending.empty()) {
        const Block current = std::move(pending.back());
        pending.pop_back();
        const Hash256 hash = current.hash();
        requested_.erase(hash);
        index_.insert(current);
        std::erase_if(orphans_, [&](const auto& entry) { // now connectable
            const Orphan& orphan = entry.second;
            if (std::find(orphan.parents.begin(), orphan.parents.end(), hash) ==
                    orphan.parents.end() ||
                !std::all_of(orphan.parents.begin(), orphan.parents.end(),
                             [this](const Hash256& p) { return index_.has(p); }))
                return false;
            pending.push_back(orphan.block);
            return true;
        });
    }
    index_.settle();
}

void BlockRelay::publish(const Block& block) {
    transport_.broadcast("blk", ByteView(encode_to_bytes(block)));
}

bool BlockRelay::request(const Hash256& hash, PeerId peer) {
    if (!requested_.insert(hash).second) return false;
    transport_.send(peer, "getblk", hash.view());
    if (!retry_timer_)
        retry_timer_ = transport_.schedule_after(sync_interval_, [this] {
            retry_timer_.reset();
            retry_requests();
        });
    return true;
}

void BlockRelay::retry_requests() {
    // Ask a random peer again for every block still missing: the request or
    // its reply may have been lost, or the peer asked may not have it.
    requested_.clear();
    const auto peers = transport_.peer_ids();
    if (peers.empty()) return;
    for (const auto& [hash, orphan] : orphans_)
        for (const Hash256& parent : orphan.parents)
            if (!index_.has(parent) && !orphans_.contains(parent) &&
                request(parent, peers[rng_.index(peers.size())]))
                ++retries_;
}

} // namespace dlt::consensus
