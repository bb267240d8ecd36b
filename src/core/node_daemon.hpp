// NodeDaemon: one PersistentNode-backed Replica per OS process, the unit the
// dlt-node binary (examples/dlt_node.cpp) runs and app::ClusterDriver spawns
// N of to form a loopback cluster (experiment E29).
//
// Composition per process:
//   TcpTransport  — consensus traffic with the other daemons, and the RPC
//                   port for clients (the cluster driver): frame-codec
//                   requests served as the transport's client connections.
//   Replica       — engine logic (Nakamoto or PBFT) + durable chain state
//
// There is no RPC thread. Every request is answered on the transport's
// event-loop thread, which owns the replica, so the single-threaded protocol
// contract holds with no hand-off. Any number of clients may be connected at
// once; a reply waits in its client's queue until the client reads it, and a
// client that stops reading is dropped at max_queue_bytes_per_peer, so no
// client can stall consensus (tcp_transport.hpp).
//
// RPC methods (topic → body → reply body):
//   submit    Transaction                u8 accepted
//   status    (empty)                    u64 height, tip hash, u64 confirmed
//                                        txs, u64 mempool size, u32 connected
//                                        peers, f64 transport clock
//   latencies (empty)                    varint n, then n × f64 seconds
//   metrics   (empty)                    str (obs registry JSON snapshot)
//   shutdown  (empty)                    u8 1, then the daemon exits cleanly
//
// Graceful shutdown (SIGTERM/SIGINT or the shutdown RPC, satellite 3 of E29):
// close every socket, join the loop, stop timers, exit 0. Every connect was
// WAL-committed when it happened, and with StateEngine::kPersistent the
// replica's PersistentNode flushes the LSM engine as it is destroyed, after
// the loop is joined, so a clean reopen replays zero WAL records.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/replica.hpp"
#include "net/transport/tcp_transport.hpp"

namespace dlt::core {

struct NodeDaemonConfig {
    ReplicaConfig replica;
    net::transport::TcpTransportConfig transport;
    std::string rpc_host = "127.0.0.1";
    std::uint16_t rpc_port = 0; // 0 lets the kernel pick; see rpc_port()
};

class NodeDaemon {
public:
    /// Binds both listen sockets and recovers the replica's durable state;
    /// throws dlt::Error when either port is taken or the data dir is bad.
    explicit NodeDaemon(NodeDaemonConfig config);
    ~NodeDaemon();

    NodeDaemon(const NodeDaemon&) = delete;
    NodeDaemon& operator=(const NodeDaemon&) = delete;

    /// Start the replica's timers and the transport loop, which also serves
    /// the RPC port.
    void start();

    /// Block until stop() is called (signal handler or shutdown RPC).
    void wait();

    /// Request shutdown from any thread; async-signal-usable trigger is
    /// request_stop() below. Idempotent.
    void stop();

    /// Async-signal-safe stop flag; wait() polls it. Signal handlers call
    /// this (and only this).
    void request_stop() { stop_requested_.store(true); }

    std::uint16_t rpc_port() const { return rpc_port_; }
    std::uint16_t listen_port() const { return transport_->listen_port(); }
    Replica& replica() { return *replica_; }

private:
    /// One RPC request, on the loop thread: the reply body, or nullopt to
    /// drop the client (unknown method or malformed body).
    std::optional<Bytes> answer(const std::string& method, ByteView body);

    NodeDaemonConfig config_;
    std::unique_ptr<net::transport::TcpTransport> transport_;
    std::unique_ptr<Replica> replica_;

    std::uint16_t rpc_port_ = 0;
    std::atomic<bool> started_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> stopped_{false};
};

} // namespace dlt::core
