#include "net/gossip.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace dlt::net {

namespace {
/// Frame: message id || payload. The id is carried explicitly so relays don't
/// have to re-derive it from (topic, payload) and so distinct broadcasts of
/// identical payloads stay distinguishable. Framed once per broadcast; every
/// hop and delivery shares this one buffer.
std::shared_ptr<const Bytes> frame_message(const Hash256& id, const Bytes& payload) {
    Bytes framed;
    framed.reserve(32 + payload.size());
    append(framed, id.view());
    append(framed, payload);
    return std::make_shared<const Bytes>(std::move(framed));
}
} // namespace

GossipOverlay::GossipOverlay(Network& network, std::size_t node_count,
                             GossipParams params, Handler handler)
    : network_(&network), params_(params), handler_(std::move(handler)) {
    auto& registry = obs::MetricsRegistry::global();
    broadcasts_ = &registry.counter("gossip_broadcasts_total",
                                    "Messages injected into the overlay");
    accepts_ = &registry.counter("gossip_accepts_total",
                                 "First-time deliveries across all nodes");
    dedup_hits_ = &registry.counter("gossip_dedup_hits_total",
                                    "Frames discarded as already seen");
    DLT_EXPECTS(network.node_count() == 0);
    DLT_EXPECTS(node_count >= 2);
    DLT_EXPECTS(handler_ != nullptr);
    seen_.resize(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
        const NodeId id = network.add_node(
            [this, node = static_cast<NodeId>(i)](const Delivery& d) {
                on_delivery(node, d);
            });
        DLT_ENSURES(id == i);
    }
}

Hash256 GossipOverlay::broadcast(NodeId origin, const std::string& topic,
                                 const Bytes& payload) {
    DLT_EXPECTS(origin < seen_.size());
    // Unique id: hash over topic, payload, origin, and injection time.
    Writer w;
    w.str(topic);
    w.blob(payload);
    w.u32(origin);
    w.f64(network_->scheduler().now());
    const Hash256 id = crypto::tagged_hash("dlt/gossip-id", w.data());

    records_[id].origin_time = network_->scheduler().now();
    broadcasts_->inc();
    accept(origin, origin, id, topic, frame_message(id, payload));
    return id;
}

void GossipOverlay::on_delivery(NodeId at, const Delivery& d) {
    if (d.payload().size() < 32) return; // malformed frame
    const Hash256 id = Hash256::from_bytes(ByteView{d.payload().data(), 32});
    if (seen_[at].contains(id)) {
        dedup_hits_->inc();
        return;
    }
    accept(at, d.from, id, d.topic, d.body);
}

void GossipOverlay::accept(NodeId at, NodeId from, const Hash256& id,
                           const std::string& topic,
                           const std::shared_ptr<const Bytes>& framed) {
    seen_[at].insert(id);

    accepts_->inc();
    auto& rec = records_[id];
    ++rec.delivered;
    rec.arrival.emplace(at, network_->scheduler().now());

    handler_(at, from, topic, ByteView{*framed}.subspan(32)); // zero-copy payload view
    relay(at, from, topic, framed);
}

void GossipOverlay::relay(NodeId at, NodeId skip, const std::string& topic,
                          const std::shared_ptr<const Bytes>& framed) {
    // Every neighbor except the one the frame arrived from (echoing it back is
    // pure waste: the sender has it by construction), or `fanout` of them
    // sampled at random.
    std::vector<NodeId> targets;
    for (const NodeId p : network_->neighbors(at))
        if (p != skip) targets.push_back(p);
    if (params_.fanout != 0 && params_.fanout < targets.size()) {
        network_->rng().shuffle(targets);
        targets.resize(params_.fanout);
    }
    for (const NodeId p : targets) network_->send(at, p, topic, framed);
}

const PropagationRecord* GossipOverlay::record(const Hash256& id) const {
    const auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
}

double GossipOverlay::delivery_ratio(const Hash256& id) const {
    const PropagationRecord* rec = record(id);
    if (rec == nullptr || seen_.empty()) return 0.0;
    return static_cast<double>(rec->delivered) / static_cast<double>(seen_.size());
}

std::optional<SimTime> GossipOverlay::time_to_quantile(const Hash256& id,
                                                       double quantile) const {
    DLT_EXPECTS(quantile > 0 && quantile <= 1);
    const PropagationRecord* rec = record(id);
    if (rec == nullptr) return std::nullopt;
    const std::size_t needed = static_cast<std::size_t>(
        std::ceil(quantile * static_cast<double>(seen_.size())));
    if (rec->arrival.size() < needed || needed == 0) return std::nullopt;
    std::vector<SimTime> times;
    times.reserve(rec->arrival.size());
    for (const auto& [node, t] : rec->arrival) times.push_back(t);
    std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(needed - 1),
                     times.end());
    return times[needed - 1] - rec->origin_time;
}

} // namespace dlt::net
