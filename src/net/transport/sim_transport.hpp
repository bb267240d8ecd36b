// SimTransport: the Transport interface implemented by the deterministic
// discrete-event net::Network — the default backend, byte-identical to driving
// the Network directly. A SimTransportHub registers `node_count` nodes on an
// (empty) Network and hands out one Transport endpoint per node; sends go
// through Network::send (latency/bandwidth models, fault injection, traffic
// counters all apply), timers through the shared sim::Scheduler. Everything
// stays single-threaded and seed-deterministic, so protocol logic tested over
// SimTransport replays bit-for-bit — the sim half of E29's sim-vs-socket
// equivalence contract.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/transport/transport.hpp"

namespace dlt::net::transport {

class SimTransportHub;

/// One node's endpoint over the hub's Network. Obtained from
/// SimTransportHub::endpoint(); lifetime is the hub's.
class SimTransport final : public Transport {
public:
    PeerId local_id() const override { return id_; }
    std::vector<PeerId> peer_ids() const override;
    void set_handler(Handler handler) override { handler_ = std::move(handler); }
    bool send(PeerId to, const std::string& topic, ByteView payload) override;
    /// Every recipient shares one copy of the payload.
    void broadcast_except(PeerId skip, const std::string& topic,
                          ByteView payload) override;
    double now() const override;
    TimerId schedule_after(double delay_s, std::function<void()> fn) override;
    bool cancel_timer(TimerId id) override;
    void post(std::function<void()> fn) override { schedule_after(0.0, std::move(fn)); }
    void shutdown() override { down_ = true; }

private:
    friend class SimTransportHub;
    SimTransport(SimTransportHub& hub, PeerId id) : hub_(&hub), id_(id) {}

    void deliver(const Delivery& d);
    bool send_shared(PeerId to, const std::string& topic,
                     std::shared_ptr<const Bytes> body);

    SimTransportHub* hub_;
    PeerId id_;
    Handler handler_;
    bool down_ = false;
};

/// Factory owning the endpoints. Precondition: `network` has no nodes yet;
/// the hub adds `node_count` nodes whose NodeIds are 0..node_count-1 and owns
/// their delivery handlers. The caller builds the topology afterwards
/// (build_full_mesh, connect, ...), exactly as with a bare Network.
class SimTransportHub {
public:
    SimTransportHub(Network& network, std::size_t node_count);

    Transport& endpoint(PeerId id) { return *endpoints_.at(id); }
    std::size_t node_count() const { return endpoints_.size(); }
    Network& network() { return *network_; }

    /// Send filter, consulted on every send: false drops the message unsent
    /// (no traffic, no delivery, send() returns false). Models a peer that
    /// refuses to carry some traffic, such as an eclipse attacker refusing to
    /// relay to its victim. nullptr clears it.
    using SendFilter =
        std::function<bool(PeerId from, PeerId to, const std::string& topic)>;
    void set_send_filter(SendFilter filter) { filter_ = std::move(filter); }

private:
    friend class SimTransport;

    Network* network_;
    std::vector<std::unique_ptr<SimTransport>> endpoints_;
    SendFilter filter_;
};

} // namespace dlt::net::transport
