// Transport abstraction (ROADMAP item 1): the seam between protocol logic and
// the medium carrying it. A Transport is one node's endpoint — it can send a
// (topic, payload) message to a named peer, receive the same shape through a
// handler, and schedule timers against the transport's own clock. Two
// implementations exist:
//
//   SimTransport (sim_transport.hpp) — a view over the deterministic
//     discrete-event net::Network. Virtual time, seeded latency models, fault
//     injection; the default every experiment keeps using. Handler and timer
//     callbacks run from the single-threaded scheduler loop.
//
//   TcpTransport (tcp_transport.hpp) — real non-blocking TCP sockets with
//     CRC-framed messages (frame.hpp), per-peer bounded outbound queues, and
//     exponential-backoff reconnect. Wall-clock time; callbacks run from the
//     transport's event-loop thread.
//
// The contract both uphold: all handler, timer, and post() callbacks for one
// endpoint are serialized on a single logical thread, so protocol code
// (core::Replica) needs no locks of its own. send() is safe to call from any
// thread and never blocks the caller; delivery is best-effort (the sim fault
// layer or a full/broken TCP connection may drop a message), so protocols must
// tolerate loss — exactly the discipline the simulated stack already imposes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace dlt::net::transport {

/// Peer identifier; shares the value space of net::NodeId so a sim node and a
/// socket-backed process can run the same protocol code unchanged.
using PeerId = std::uint32_t;

/// Token for a scheduled timer; usable to cancel it.
using TimerId = std::uint64_t;

class Transport {
public:
    /// Delivery callback: (peer the message arrived from, topic, payload).
    /// The payload view is valid only for the duration of the call.
    using Handler =
        std::function<void(PeerId from, const std::string& topic, ByteView payload)>;

    virtual ~Transport() = default;

    /// This endpoint's own peer id.
    virtual PeerId local_id() const = 0;

    /// Peers this endpoint can currently address (configured peers for TCP,
    /// linked neighbors for the sim). Sorted ascending, so broadcast order is
    /// deterministic.
    virtual std::vector<PeerId> peer_ids() const = 0;

    /// Install the delivery callback. Must happen before traffic flows.
    virtual void set_handler(Handler handler) = 0;

    /// Queue a message to one peer. Returns false when the transport already
    /// knows delivery is impossible (unknown peer, or a bounded outbound
    /// queue shedding load); true means "accepted", not "delivered".
    virtual bool send(PeerId to, const std::string& topic, ByteView payload) = 0;

    /// Send to every current peer (fan-out in peer_ids() order).
    void broadcast(const std::string& topic, ByteView payload) {
        broadcast_except(local_id(), topic, payload);
    }
    /// Fan-out that skips one peer (gossip relays never echo to the sender).
    virtual void broadcast_except(PeerId skip, const std::string& topic,
                                  ByteView payload) {
        for (const PeerId p : peer_ids())
            if (p != skip) send(p, topic, payload);
    }

    /// Transport-local clock in seconds: virtual sim-time for SimTransport,
    /// monotonic wall-clock seconds since start for TcpTransport.
    virtual double now() const = 0;

    /// Run `fn` on the transport's callback thread after `delay_s` seconds.
    virtual TimerId schedule_after(double delay_s, std::function<void()> fn) = 0;

    /// Cancel a pending timer; false when it already fired or was cancelled.
    virtual bool cancel_timer(TimerId id) = 0;

    /// Run `fn` on the transport's callback thread as soon as possible (the
    /// cross-thread entry point: other threads post work into the loop).
    virtual void post(std::function<void()> fn) = 0;

    /// Stop delivering callbacks and release I/O resources. Idempotent; after
    /// shutdown, send/post are safe no-ops.
    virtual void shutdown() = 0;
};

} // namespace dlt::net::transport
