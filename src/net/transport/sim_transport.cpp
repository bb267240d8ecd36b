#include "net/transport/sim_transport.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace dlt::net::transport {

SimTransportHub::SimTransportHub(Network& network, std::size_t node_count)
    : network_(&network) {
    DLT_EXPECTS(network.node_count() == 0);
    endpoints_.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
        auto endpoint = std::unique_ptr<SimTransport>(
            new SimTransport(*this, static_cast<PeerId>(i)));
        SimTransport* raw = endpoint.get();
        const NodeId id =
            network.add_node([raw](const Delivery& d) { raw->deliver(d); });
        DLT_INVARIANT(id == raw->local_id());
        endpoints_.push_back(std::move(endpoint));
    }
}

std::vector<PeerId> SimTransport::peer_ids() const {
    // Network::neighbors is insertion-ordered; sort for the deterministic
    // ascending fan-out order the Transport contract promises.
    std::vector<PeerId> peers = hub_->network_->neighbors(id_);
    std::sort(peers.begin(), peers.end());
    return peers;
}

bool SimTransport::send(PeerId to, const std::string& topic, ByteView payload) {
    return send_shared(to, topic, std::make_shared<const Bytes>(payload.begin(), payload.end()));
}

void SimTransport::broadcast_except(PeerId skip, const std::string& topic,
                                    ByteView payload) {
    const auto body = std::make_shared<const Bytes>(payload.begin(), payload.end());
    for (const PeerId p : peer_ids())
        if (p != skip) send_shared(p, topic, body);
}

bool SimTransport::send_shared(PeerId to, const std::string& topic,
                               std::shared_ptr<const Bytes> body) {
    if (down_ || (hub_->filter_ && !hub_->filter_(id_, to, topic))) return false;
    try {
        hub_->network_->send(id_, to, topic, std::move(body));
    } catch (const ValidationError&) {
        return false; // not currently linked (peer churned away)
    }
    return true;
}

void SimTransport::deliver(const Delivery& d) {
    if (down_ || !handler_) return;
    handler_(d.from, d.topic, ByteView(d.payload()));
}

double SimTransport::now() const { return hub_->network_->scheduler().now(); }

TimerId SimTransport::schedule_after(double delay_s, std::function<void()> fn) {
    return hub_->network_->scheduler().schedule_after(delay_s, std::move(fn));
}

bool SimTransport::cancel_timer(TimerId id) {
    return hub_->network_->scheduler().cancel(id);
}

} // namespace dlt::net::transport
