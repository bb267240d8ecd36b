#include "net/network.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace dlt::net {

namespace {

/// Probability that at least one of two independent fault events fires.
double combine_probability(double a, double b) {
    if (a <= 0) return b;
    if (b <= 0) return a;
    return 1.0 - (1.0 - a) * (1.0 - b);
}

} // namespace

Network::Network(sim::Scheduler& scheduler, Rng rng)
    : scheduler_(&scheduler), rng_(std::move(rng)) {
    auto& messages = obs::MetricsRegistry::global().counter_family(
        "net_messages_total", "Network messages by outcome", {"kind"});
    mirror_.sent = &messages.with({"sent"});
    mirror_.dropped = &messages.with({"dropped"});
    mirror_.lost = &messages.with({"lost"});
    mirror_.duplicated = &messages.with({"duplicated"});
    mirror_.partitioned = &messages.with({"partitioned"});
    mirror_.from_crashed = &messages.with({"from_crashed"});
    mirror_.bytes = &obs::MetricsRegistry::global().counter(
        "net_bytes_sent_total", "Payload bytes sent on the wire");
}

const TrafficStats& Network::stats() const {
    stats_view_.messages_sent = counters_.messages_sent.value();
    stats_view_.bytes_sent = counters_.bytes_sent.value();
    stats_view_.messages_dropped = counters_.messages_dropped.value();
    stats_view_.messages_lost = counters_.messages_lost.value();
    stats_view_.messages_duplicated = counters_.messages_duplicated.value();
    stats_view_.messages_partitioned = counters_.messages_partitioned.value();
    stats_view_.messages_from_crashed = counters_.messages_from_crashed.value();
    return stats_view_;
}

SimDuration LinkParams::sample_delay(std::size_t message_bytes, Rng& rng) const {
    const double jitter = latency_jitter > 0
                              ? (rng.uniform01() * 2.0 - 1.0) * latency_jitter
                              : 0.0;
    double latency = latency_mean + jitter;
    if (latency < 0) latency = 0;
    const double transfer =
        bandwidth_bps > 0 ? static_cast<double>(message_bytes) * 8.0 / bandwidth_bps
                          : 0.0;
    return latency + transfer;
}

// --- FaultPlan -----------------------------------------------------------------

FaultPlan& FaultPlan::cut(SimTime at, std::string name,
                          std::vector<std::vector<NodeId>> groups) {
    Action action{Action::Kind::kCut, at, std::move(name), std::move(groups), 0};
    actions_.push_back(std::move(action));
    return *this;
}

FaultPlan& FaultPlan::heal(SimTime at, std::string name) {
    actions_.push_back(Action{Action::Kind::kHeal, at, std::move(name), {}, 0});
    return *this;
}

FaultPlan& FaultPlan::leave(SimTime at, NodeId node) {
    actions_.push_back(Action{Action::Kind::kLeave, at, {}, {}, node});
    return *this;
}

FaultPlan& FaultPlan::rejoin(SimTime at, NodeId node) {
    actions_.push_back(Action{Action::Kind::kRejoin, at, {}, {}, node});
    return *this;
}

FaultPlan& FaultPlan::crash(SimTime at, NodeId node) {
    actions_.push_back(Action{Action::Kind::kCrash, at, {}, {}, node});
    return *this;
}

FaultPlan& FaultPlan::recover(SimTime at, NodeId node) {
    actions_.push_back(Action{Action::Kind::kRecover, at, {}, {}, node});
    return *this;
}

// --- Network -------------------------------------------------------------------

NodeId Network::add_node(std::function<void(const Delivery&)> handler) {
    DLT_EXPECTS(handler != nullptr);
    nodes_.push_back(NodeState{std::move(handler), {}, false, false, {}});
    return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::connect(NodeId a, NodeId b, LinkParams params) {
    DLT_EXPECTS(a < nodes_.size() && b < nodes_.size());
    DLT_EXPECTS(a != b);
    if (connected(a, b)) return;
    links_.emplace(link_key(a, b), params);
    nodes_[a].neighbors.push_back(b);
    nodes_[b].neighbors.push_back(a);
}

void Network::disconnect(NodeId a, NodeId b) {
    links_.erase(link_key(a, b));
    auto& na = nodes_[a].neighbors;
    na.erase(std::remove(na.begin(), na.end(), b), na.end());
    auto& nb = nodes_[b].neighbors;
    nb.erase(std::remove(nb.begin(), nb.end(), a), nb.end());
}

bool Network::connected(NodeId a, NodeId b) const { return find_link(a, b) != nullptr; }

const std::vector<NodeId>& Network::neighbors(NodeId n) const {
    DLT_EXPECTS(n < nodes_.size());
    return nodes_[n].neighbors;
}

const LinkParams* Network::find_link(NodeId a, NodeId b) const {
    const auto it = links_.find(link_key(a, b));
    return it == links_.end() ? nullptr : &it->second;
}

void Network::send(NodeId from, NodeId to, std::string topic, Bytes payload) {
    send(from, to, std::move(topic),
         std::make_shared<const Bytes>(std::move(payload)));
}

void Network::send(NodeId from, NodeId to, std::string topic,
                   std::shared_ptr<const Bytes> payload) {
    DLT_EXPECTS(from < nodes_.size() && to < nodes_.size());
    DLT_EXPECTS(payload != nullptr);
    const LinkParams* link = find_link(from, to);
    if (link == nullptr) throw ValidationError("send between unconnected nodes");

    // Fail-stop: a crashed node originates nothing (not even counted as sent).
    if (nodes_[from].crashed) {
        counters_.messages_from_crashed.inc();
        mirror_.from_crashed->inc();
        return;
    }

    counters_.messages_sent.inc();
    mirror_.sent->inc();
    counters_.bytes_sent.inc(payload->size());
    mirror_.bytes->inc(payload->size());

    if (partitioned(from, to)) {
        counters_.messages_partitioned.inc();
        mirror_.partitioned->inc();
        return;
    }

    const double loss = combine_probability(link->loss, global_faults_.loss);
    if (loss > 0 && rng_.chance(loss)) {
        counters_.messages_lost.inc();
        mirror_.lost->inc();
        return;
    }

    const double duplicate =
        combine_probability(link->duplicate, global_faults_.duplicate);
    if (duplicate > 0 && rng_.chance(duplicate)) {
        counters_.messages_duplicated.inc();
        mirror_.duplicated->inc();
        schedule_delivery(from, to, topic, payload, *link);
    }
    schedule_delivery(from, to, std::move(topic), std::move(payload), *link);
}

void Network::schedule_delivery(NodeId from, NodeId to, std::string topic,
                                std::shared_ptr<const Bytes> payload,
                                const LinkParams& link) {
    const SimDuration delay = link.sample_delay(payload->size(), rng_);
    scheduler_->schedule_after(
        delay, [this, from, to, topic = std::move(topic), payload = std::move(payload)] {
            // Fail-stop: nothing from a crashed node is observed after the
            // crash instant, including traffic it sent while still alive.
            if (nodes_[from].crashed) {
                counters_.messages_from_crashed.inc();
                mirror_.from_crashed->inc();
                return;
            }
            if (partitioned(from, to)) {
                counters_.messages_partitioned.inc();
                mirror_.partitioned->inc();
                return;
            }
            NodeState& target = nodes_[to];
            if (target.crashed || target.departed) {
                counters_.messages_dropped.inc();
                mirror_.dropped->inc();
                return;
            }
            target.handler(Delivery{from, topic, payload});
        });
}

void Network::set_crashed(NodeId n, bool crashed) {
    DLT_EXPECTS(n < nodes_.size());
    nodes_[n].crashed = crashed;
}

bool Network::is_crashed(NodeId n) const {
    DLT_EXPECTS(n < nodes_.size());
    return nodes_[n].crashed;
}

// --- Fault injection -------------------------------------------------------------

void Network::partition(const std::string& name,
                        const std::vector<std::vector<NodeId>>& groups) {
    DLT_EXPECTS(!groups.empty());
    std::unordered_map<NodeId, std::uint32_t> membership;
    for (std::uint32_t g = 0; g < groups.size(); ++g) {
        for (const NodeId n : groups[g]) {
            DLT_EXPECTS(n < nodes_.size());
            const auto [it, inserted] = membership.emplace(n, g);
            DLT_EXPECTS(inserted); // a node cannot sit in two groups
        }
    }
    partitions_[name] = std::move(membership);
}

void Network::heal(const std::string& name) { partitions_.erase(name); }

bool Network::partitioned(NodeId a, NodeId b) const {
    if (partitions_.empty()) return false;
    for (const auto& [name, membership] : partitions_) {
        const auto ia = membership.find(a);
        if (ia == membership.end()) continue;
        const auto ib = membership.find(b);
        if (ib == membership.end()) continue;
        if (ia->second != ib->second) return true;
    }
    return false;
}

void Network::leave(NodeId n) {
    DLT_EXPECTS(n < nodes_.size());
    NodeState& node = nodes_[n];
    if (node.departed) return;
    node.departed = true;
    // Park every live link so rejoin() can restore the same topology.
    const std::vector<NodeId> peers = node.neighbors;
    for (const NodeId peer : peers) {
        const LinkParams* link = find_link(n, peer);
        DLT_INVARIANT(link != nullptr);
        node.parked_links.emplace_back(peer, *link);
        disconnect(n, peer);
    }
}

void Network::rejoin(NodeId n) {
    DLT_EXPECTS(n < nodes_.size());
    NodeState& node = nodes_[n];
    if (!node.departed) return;
    node.departed = false;
    std::vector<std::pair<NodeId, LinkParams>> parked;
    parked.swap(node.parked_links);
    for (const auto& [peer, params] : parked) {
        if (nodes_[peer].departed) {
            // A peer that left after our own departure severed this link has no
            // record of it: hand ours over so its rejoin restores the link.
            auto& theirs = nodes_[peer].parked_links;
            const bool known =
                std::any_of(theirs.begin(), theirs.end(),
                            [n](const auto& entry) { return entry.first == n; });
            if (!known) theirs.emplace_back(n, params);
            continue;
        }
        connect(n, peer, params);
    }
}

bool Network::is_departed(NodeId n) const {
    DLT_EXPECTS(n < nodes_.size());
    return nodes_[n].departed;
}

void Network::apply(const FaultPlan& plan) {
    for (const auto& action : plan.actions_) {
        using Kind = FaultPlan::Action::Kind;
        switch (action.kind) {
        case Kind::kCut:
            scheduler_->schedule_at(action.at, [this, name = action.name,
                                                groups = action.groups] {
                partition(name, groups);
            });
            break;
        case Kind::kHeal:
            scheduler_->schedule_at(action.at,
                                    [this, name = action.name] { heal(name); });
            break;
        case Kind::kLeave:
            scheduler_->schedule_at(action.at,
                                    [this, n = action.node] { leave(n); });
            break;
        case Kind::kRejoin:
            scheduler_->schedule_at(action.at,
                                    [this, n = action.node] { rejoin(n); });
            break;
        case Kind::kCrash:
            scheduler_->schedule_at(
                action.at, [this, n = action.node] { set_crashed(n, true); });
            break;
        case Kind::kRecover:
            scheduler_->schedule_at(
                action.at, [this, n = action.node] { set_crashed(n, false); });
            break;
        }
    }
}

// --- Topology builders -----------------------------------------------------------

void Network::build_unstructured_overlay(std::size_t degree, LinkParams params) {
    const std::size_t n = nodes_.size();
    DLT_EXPECTS(n >= 2);
    build_ring(params);
    if (degree <= 2 || n <= 3) return;
    for (NodeId i = 0; i < n; ++i) {
        std::size_t attempts = 0;
        while (nodes_[i].neighbors.size() < degree && attempts < 20 * degree) {
            ++attempts;
            const NodeId peer = static_cast<NodeId>(rng_.uniform(n));
            if (peer == i || connected(i, peer)) continue;
            connect(i, peer, params);
        }
    }
}

void Network::build_full_mesh(LinkParams params) {
    const std::size_t n = nodes_.size();
    for (NodeId i = 0; i < n; ++i)
        for (NodeId j = i + 1; j < n; ++j) connect(i, j, params);
}

void Network::build_ring(LinkParams params) {
    const std::size_t n = nodes_.size();
    DLT_EXPECTS(n >= 2);
    for (NodeId i = 0; i < n; ++i)
        connect(i, static_cast<NodeId>((i + 1) % n), params);
}

} // namespace dlt::net
