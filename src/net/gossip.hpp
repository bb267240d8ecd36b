// Gossip broadcast (paper §2.3): peers relay new data to a random subset of
// neighbors over multiple rounds, deduplicating by message id, until the whole
// overlay has seen it. E18 measures its propagation behaviour with it; the
// consensus engines relay over net::transport::Transport instead
// (consensus/relay.hpp). Relays never echo a frame back to the peer it
// arrived from.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"

namespace dlt::net {

struct GossipParams {
    /// Number of random neighbors each node forwards to; 0 means flood (all).
    std::size_t fanout = 0;
};

/// Measured dissemination record for one broadcast.
struct PropagationRecord {
    SimTime origin_time = 0;
    std::size_t delivered = 0;                     // distinct nodes reached
    std::unordered_map<NodeId, SimTime> arrival;   // first arrival per node
};

/// Runs a gossip overlay over a Network. The overlay registers `node_count`
/// nodes on the (empty) network itself and owns their message handling; the
/// caller then builds a topology and injects broadcasts. The single callback is
/// invoked exactly once per (node, message).
class GossipOverlay {
public:
    /// Handler(node, from, topic, payload) fires on first delivery of a gossip
    /// message at each node. `from` is the peer the message arrived from
    /// (== node for locally injected broadcasts). The payload view aliases the
    /// shared message frame — copy it if it must outlive the callback.
    using Handler =
        std::function<void(NodeId, NodeId, const std::string&, ByteView)>;

    /// Precondition: `network` has no nodes yet.
    GossipOverlay(Network& network, std::size_t node_count, GossipParams params,
                  Handler handler);

    /// Number of nodes this overlay manages (== network node count at creation).
    std::size_t node_count() const { return seen_.size(); }

    /// Inject a message at `origin`; it is delivered locally and relayed.
    /// Returns the message id used for tracking.
    Hash256 broadcast(NodeId origin, const std::string& topic, const Bytes& payload);

    /// Propagation telemetry for a message id (empty when unknown).
    const PropagationRecord* record(const Hash256& id) const;

    /// Fraction of nodes reached for a message id.
    double delivery_ratio(const Hash256& id) const;

    /// Virtual time by which `quantile` (e.g. 0.5, 0.99) of nodes had the message;
    /// nullopt when fewer nodes than that ever received it.
    std::optional<SimTime> time_to_quantile(const Hash256& id, double quantile) const;

private:
    void on_delivery(NodeId at, const Delivery& d);
    void relay(NodeId at, NodeId skip, const std::string& topic,
               const std::shared_ptr<const Bytes>& framed);
    void accept(NodeId at, NodeId from, const Hash256& id, const std::string& topic,
                const std::shared_ptr<const Bytes>& framed);

    Network* network_;
    GossipParams params_;
    Handler handler_;
    obs::Counter* broadcasts_ = nullptr;  // gossip_broadcasts_total
    obs::Counter* accepts_ = nullptr;     // gossip_accepts_total
    obs::Counter* dedup_hits_ = nullptr;  // gossip_dedup_hits_total
    std::vector<std::unordered_set<Hash256>> seen_; // per node
    std::unordered_map<Hash256, PropagationRecord> records_;
};

} // namespace dlt::net
