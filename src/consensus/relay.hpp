// The two receive paths every gossiping engine shares, over
// net::transport::Transport. TxRelay dedups transactions and takes them into
// the mempool; BlockRelay floods what TxRelay admitted, takes blocks into an
// engine's index, parks the ones whose parents are missing, fetches those
// parents, and relays. NakamotoEngine and dag::DagEngine run both, the PBFT
// replica runs TxRelay alone; the simulator and dlt-node run the same code.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "ledger/block.hpp"
#include "ledger/mempool.hpp"
#include "net/transport/transport.hpp"
#include "obs/txlifecycle.hpp"

namespace dlt::consensus {

/// One node's transaction path, shared by every engine that gossips
/// transactions (NakamotoEngine, dag::DagEngine and the PBFT replica): a
/// seen-set of txids (received from a peer, submitted here, or confirmed on a
/// connected block), then mempool admission. A transaction submitted here goes
/// to every peer; where one received from a peer goes next is its engine's
/// choice. A "tx" frame is the sender's txid, then the transaction: a
/// duplicate costs one 32-byte lookup, and the set only ever holds txids
/// computed from decoded transactions, so a false id drops only its own frame.
class TxRelay {
public:
    /// With a `lifecycle` tracker, stamps first-seen and mempool admission.
    TxRelay(net::transport::Transport& transport, const ledger::MempoolConfig& config,
            obs::TxLifecycleTracker* lifecycle = nullptr);

    /// Admit a transaction submitted here and broadcast it; false when it was
    /// seen before or the pool refused it (a refused one may be resubmitted).
    bool submit(const ledger::Transaction& tx);
    /// Handle one "tx" frame: dedup, then admission. True when the pool
    /// admitted it. Sends nothing on: BlockRelay floods an admitted frame to
    /// every peer but `from`, and a PBFT replica relays nothing. Throws
    /// DecodeError on a malformed frame.
    bool handle(net::transport::PeerId from, ByteView frame);
    /// Send one transaction to one peer as a "tx" frame.
    void send(net::transport::PeerId to, const ledger::Transaction& tx);
    /// A block joined the active chain: its txids are seen, its txs leave the pool.
    void connected(const ledger::Block& block);
    /// A block left the active chain: its txs return to the pool.
    void disconnected(const ledger::Block& block);

    ledger::Mempool& mempool() { return mempool_; }
    const ledger::Mempool& mempool() const { return mempool_; }

private:
    bool admit(const ledger::Transaction& tx, net::transport::PeerId from);

    net::transport::Transport& transport_;
    ledger::Mempool mempool_;
    obs::TxLifecycleTracker* lifecycle_;
    std::unordered_set<Hash256> seen_;
};

/// What a BlockRelay needs from the engine whose block index it feeds. All
/// calls arrive on the transport's callback thread.
class BlockIndex {
public:
    virtual ~BlockIndex() = default;
    /// True when `hash` is indexed, valid or not: another copy of it is a
    /// duplicate, and a child of it is no orphan.
    virtual bool has(const Hash256& hash) const = 0;
    /// The indexed block a fetch of `hash` is answered with; nullptr when none.
    virtual const ledger::Block* find(const Hash256& hash) const = 0;
    /// The blocks `block` builds on, each indexed before it. Throws
    /// DecodeError when the header names them malformed.
    virtual std::vector<Hash256> parents(const ledger::Block& block) const = 0;
    /// Index `block`, whose parents are all indexed.
    virtual void insert(const ledger::Block& block) = 0;
    /// A block and every orphan it released are indexed: move the tip.
    virtual void settle() = 0;
};

/// One node's receive path, shared by NakamotoEngine and dag::DagEngine. Wire
/// topics: "tx" goes to the node's TxRelay, and what it admits is flooded to
/// every peer but the sender (on a random overlay a transaction reaches every
/// peer only if each one floods it); "blk" relays a block, "getblk"
/// asks one peer for a block by hash, and "blkreply" carries a block point to
/// point (a fetch reply or a direct push), which is never relayed on. A
/// received block is
///   - dropped as a duplicate when its header hash is indexed or parked;
///   - dropped, not indexed and not tainted, when its body does not match its
///     header's Merkle root or repeats a transaction, because such a body is
///     not the block the hash names;
///   - parked until every parent is indexed, while its oldest missing
///     ancestors are asked of the sender, then of a random peer every sync
///     interval until they arrive;
///   - relayed to every peer but the sender when it came as "blk".
/// At most kMaxOrphans blocks are parked; the one parked longest ago makes
/// room for a new one.
class BlockRelay {
public:
    /// Far above the most any experiment parks at once (20), so that only a
    /// flood reaches it.
    static constexpr std::size_t kMaxOrphans = 256;
    /// Seconds between fetch retries, unless the engine's owner sets another.
    static constexpr double kSyncInterval = 0.5;

    /// `rng` picks the peer a fetch is asked of again every `sync_interval`
    /// seconds; it is the engine's stream, drawn once per missing parent of a
    /// parked block, parked blocks in hash order.
    BlockRelay(net::transport::Transport& transport, BlockIndex& index, TxRelay& txs,
               Rng& rng, double sync_interval);
    ~BlockRelay() { stop(); }
    BlockRelay(const BlockRelay&) = delete;
    BlockRelay& operator=(const BlockRelay&) = delete;

    /// Feed one transport message; other topics and malformed payloads from a
    /// peer are dropped, never fatal.
    void handle(net::transport::PeerId from, const std::string& topic, ByteView payload);
    /// Index a block made here, with every orphan it releases.
    void adopt(ledger::Block block);
    /// Broadcast `block` as a relay.
    void publish(const ledger::Block& block);
    /// Cancel the retry timer.
    void stop();

    std::size_t orphan_count() const { return orphans_.size(); }
    /// Fetches asked again after a sync interval passed without the block.
    std::uint64_t retries() const { return retries_; }

private:
    struct Orphan {
        ledger::Block block;
        std::vector<Hash256> parents;
        std::uint64_t parked = 0; // eviction order
    };

    void on_block(net::transport::PeerId from, ByteView payload, bool relay);
    void park(const Hash256& hash, ledger::Block block, std::vector<Hash256> parents,
              net::transport::PeerId from);
    bool request(const Hash256& hash, net::transport::PeerId peer);
    void retry_requests();

    net::transport::Transport& transport_;
    BlockIndex& index_;
    TxRelay& txs_;
    Rng& rng_;
    double sync_interval_;
    std::map<Hash256, Orphan> orphans_;     // a parent not indexed yet
    std::unordered_set<Hash256> requested_; // fetches asked since the last retry
    std::optional<net::transport::TimerId> retry_timer_;
    std::uint64_t parked_ = 0;
    std::uint64_t retries_ = 0;
};

} // namespace dlt::consensus
