// Simulated P2P network (paper §2.3, network layer of §4.6): nodes joined by
// links with latency + bandwidth models, message delivery through the
// discrete-event scheduler, and topology builders for the unstructured overlays
// popular blockchains use. Deterministic given the seed.
//
// Fault injection (paper §3.1 dependability): links can lose or duplicate
// messages, named partitions can cut the network into groups and heal again,
// and peers can churn (leave and rejoin the overlay). A FaultPlan schedules
// those faults at fixed sim-times so fault scenarios replay bit-for-bit under
// a seed. Semantics are documented in src/net/README.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace dlt::net {

using NodeId = std::uint32_t;

/// Link quality model. Delivery time = latency sample + size / bandwidth.
struct LinkParams {
    SimDuration latency_mean = 0.05;   // 50 ms, a typical WAN hop
    SimDuration latency_jitter = 0.02; // uniform +/- jitter
    double bandwidth_bps = 8e6 * 10;   // 10 MB/s

    /// Per-link fault injection: probability a message on this link is lost in
    /// transit, and probability it is delivered twice (the duplicate samples
    /// its own independent delay). Combined with the network-wide FaultParams.
    double loss = 0.0;
    double duplicate = 0.0;

    SimDuration sample_delay(std::size_t message_bytes, Rng& rng) const;
};

/// Network-wide loss/duplication applied on top of each link's own values
/// (probabilities combine as independent events).
struct FaultParams {
    double loss = 0.0;
    double duplicate = 0.0;
};

/// A message as seen by a receiving node. The body is shared: a broadcast to N
/// neighbors schedules N deliveries that all point at one buffer instead of
/// copying the payload per hop (messages are immutable once sent).
struct Delivery {
    NodeId from = 0;
    std::string topic;
    std::shared_ptr<const Bytes> body;

    Delivery(NodeId from_, std::string topic_, std::shared_ptr<const Bytes> body_)
        : from(from_), topic(std::move(topic_)), body(std::move(body_)) {}
    Delivery(NodeId from_, std::string topic_, Bytes payload_)
        : from(from_),
          topic(std::move(topic_)),
          body(std::make_shared<const Bytes>(std::move(payload_))) {}

    const Bytes& payload() const { return *body; }
};

/// Aggregate traffic counters (per network). Since the observability layer
/// landed this is a *view*: the authoritative tallies are obs::Counter
/// handles (per-network, mirrored into the global MetricsRegistry under
/// net_messages_total{kind=...}); Network::stats() materializes this struct
/// from them, so existing callers and recorded schemas are unchanged.
struct TrafficStats {
    std::uint64_t messages_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t messages_dropped = 0;      // receiver crashed or departed
    std::uint64_t messages_lost = 0;         // random loss (link or global)
    std::uint64_t messages_duplicated = 0;   // extra copies injected
    std::uint64_t messages_partitioned = 0;  // cut by an active partition
    std::uint64_t messages_from_crashed = 0; // fail-stop: silenced sender traffic
};

/// The obs handles behind TrafficStats: one per-network counter per kind plus
/// the shared process-wide registry children every Network reports into.
struct TrafficCounters {
    obs::Counter messages_sent;
    obs::Counter bytes_sent;
    obs::Counter messages_dropped;
    obs::Counter messages_lost;
    obs::Counter messages_duplicated;
    obs::Counter messages_partitioned;
    obs::Counter messages_from_crashed;
};

/// A deterministic schedule of network faults: named partitions cut and healed
/// at fixed sim-times, peers leaving and rejoining (churn), nodes crashing and
/// recovering. Build the plan up front, then Network::apply() registers every
/// action on the simulation clock; actions at equal times run in insertion
/// order (scheduler FIFO), so identically-seeded runs replay the same fault
/// sequence exactly.
class FaultPlan {
public:
    /// Activate partition `name` at time `at`: nodes in different groups can no
    /// longer exchange messages until the partition heals.
    FaultPlan& cut(SimTime at, std::string name,
                   std::vector<std::vector<NodeId>> groups);
    /// Deactivate partition `name` at time `at`.
    FaultPlan& heal(SimTime at, std::string name);
    /// Churn: `node` departs the overlay at `at` (links parked) / relinks.
    FaultPlan& leave(SimTime at, NodeId node);
    FaultPlan& rejoin(SimTime at, NodeId node);
    /// Fail-stop crash / recovery of `node` at `at`.
    FaultPlan& crash(SimTime at, NodeId node);
    FaultPlan& recover(SimTime at, NodeId node);

    bool empty() const { return actions_.empty(); }

private:
    friend class Network;
    struct Action {
        enum class Kind { kCut, kHeal, kLeave, kRejoin, kCrash, kRecover };
        Kind kind;
        SimTime at = 0;
        std::string name;                        // kCut / kHeal
        std::vector<std::vector<NodeId>> groups; // kCut
        NodeId node = 0;                         // kLeave..kRecover
    };
    std::vector<Action> actions_;
};

class Network {
public:
    Network(sim::Scheduler& scheduler, Rng rng);

    /// Add a node; its handler is invoked for each delivered message.
    NodeId add_node(std::function<void(const Delivery&)> handler);

    std::size_t node_count() const { return nodes_.size(); }

    /// Create a bidirectional link. Duplicate connects are ignored: the first
    /// link's parameters win and later calls do not overwrite them. Self-links
    /// are rejected.
    void connect(NodeId a, NodeId b, LinkParams params = {});

    bool connected(NodeId a, NodeId b) const;
    const std::vector<NodeId>& neighbors(NodeId n) const;

    /// Send over an existing link; throws ValidationError when not connected.
    /// Delivery is scheduled on the link's latency/bandwidth model, subject to
    /// the fault layer: sends by crashed nodes are silenced (fail-stop),
    /// partitioned pairs drop, and loss/duplication probabilities apply. A node
    /// whose `crashed` flag is set also drops inbound messages. The shared_ptr
    /// overload lets fan-out callers frame a message once and share the buffer
    /// across every recipient.
    void send(NodeId from, NodeId to, std::string topic, Bytes payload);
    void send(NodeId from, NodeId to, std::string topic,
              std::shared_ptr<const Bytes> payload);

    /// Crash / recover a node (fail-stop model for PBFT fault experiments).
    /// A crashed node neither receives nor originates traffic; in-flight
    /// messages it sent before crashing are cut too (nothing from the node is
    /// observed after the crash instant).
    void set_crashed(NodeId n, bool crashed);
    bool is_crashed(NodeId n) const;

    // --- Fault injection --------------------------------------------------------

    /// Network-wide loss/duplication, combined with each link's own values.
    void set_global_faults(FaultParams faults) { global_faults_ = faults; }
    const FaultParams& global_faults() const { return global_faults_; }

    /// Activate a named partition: messages between nodes in different groups
    /// are dropped (counted in messages_partitioned) until heal(name). Nodes
    /// absent from every group are unaffected by this partition. Re-cutting an
    /// active name replaces its grouping.
    void partition(const std::string& name,
                   const std::vector<std::vector<NodeId>>& groups);
    void heal(const std::string& name);
    /// True when any active partition separates `a` and `b`.
    bool partitioned(NodeId a, NodeId b) const;

    /// Churn: a departing node is unlinked from every neighbor (the links are
    /// parked) and receives nothing while away; rejoin() re-links it to each
    /// parked peer that is still present. Idempotent in both directions.
    void leave(NodeId n);
    void rejoin(NodeId n);
    bool is_departed(NodeId n) const;

    /// Schedule every action in `plan` on this network's scheduler (absolute
    /// sim-times; all must be >= now).
    void apply(const FaultPlan& plan);

    /// Materialize the TrafficStats view from the live obs counters. The
    /// returned reference stays valid (and is refreshed on every call).
    const TrafficStats& stats() const;
    /// Direct access to the per-network counter handles.
    const TrafficCounters& counters() const { return counters_; }
    sim::Scheduler& scheduler() { return *scheduler_; }
    Rng& rng() { return rng_; }

    // --- Topology builders ------------------------------------------------------

    /// Unstructured overlay: each node links to `degree` random distinct peers
    /// (the union graph typically has ~2*degree mean degree). Guarantees
    /// connectivity by first laying a ring.
    void build_unstructured_overlay(std::size_t degree, LinkParams params = {});

    /// Complete graph (small consortium networks, PBFT clusters).
    void build_full_mesh(LinkParams params = {});

    /// Simple ring (worst case diameter, useful in propagation experiments).
    void build_ring(LinkParams params = {});

private:
    struct NodeState {
        std::function<void(const Delivery&)> handler;
        std::vector<NodeId> neighbors;
        bool crashed = false;
        bool departed = false;
        std::vector<std::pair<NodeId, LinkParams>> parked_links; // saved on leave()
    };

    static std::uint64_t link_key(NodeId a, NodeId b) {
        const NodeId lo = a < b ? a : b;
        const NodeId hi = a < b ? b : a;
        return (static_cast<std::uint64_t>(lo) << 32) | hi;
    }

    const LinkParams* find_link(NodeId a, NodeId b) const;
    void disconnect(NodeId a, NodeId b);
    void schedule_delivery(NodeId from, NodeId to, std::string topic,
                           std::shared_ptr<const Bytes> payload,
                           const LinkParams& link);

    sim::Scheduler* scheduler_;
    Rng rng_;
    std::vector<NodeState> nodes_;
    std::unordered_map<std::uint64_t, LinkParams> links_;
    /// Active partitions: name -> (node -> group index).
    std::unordered_map<std::string, std::unordered_map<NodeId, std::uint32_t>>
        partitions_;
    FaultParams global_faults_;
    TrafficCounters counters_;
    mutable TrafficStats stats_view_; // materialized by stats()
    /// Shared children of the global-registry families this network mirrors
    /// its tallies into (net_messages_total{kind=...}, net_bytes_sent_total).
    struct RegistryMirror {
        obs::Counter* sent = nullptr;
        obs::Counter* dropped = nullptr;
        obs::Counter* lost = nullptr;
        obs::Counter* duplicated = nullptr;
        obs::Counter* partitioned = nullptr;
        obs::Counter* from_crashed = nullptr;
        obs::Counter* bytes = nullptr;
    } mirror_;
};

} // namespace dlt::net
