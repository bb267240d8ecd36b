// TcpTransport: the socket-backed Transport (ROADMAP item 1's deployment
// mode). One endpoint per OS process; peers are (id, host, port) entries in
// the config. A single event-loop thread owns all I/O:
//
//   - non-blocking TCP sockets multiplexed with poll(). Each iteration reads
//     what the ready sockets hold (a read ends after a short recv), runs due
//     timers and posted work, and then writes every connection's queued
//     frames with one sendmsg each; a connection whose socket refused bytes
//     waits for POLLOUT. Callbacks running on the loop therefore queue
//     frames, timers and posted work without a wake-up: the self-pipe is
//     written only by send()/post()/schedule_after() calls from other threads.
//   - the lower-id side of every pair *accepts*, the higher-id side *dials*
//     (deterministic single connection per pair with no simultaneous-open
//     races); a HELLO exchange (frame.hpp) identifies the peer before any
//     message flows, and mismatched magic/version/id closes the connection
//     (net_tcp_handshake_failures_total)
//   - per-peer bounded outbound queues: send() appends a framed message while
//     the queue is under max_queue_bytes_per_peer and reports backpressure by
//     returning false (net_tcp_send_drops_total) once it is full — gossip
//     protocols tolerate loss, and bounding here keeps a stalled peer from
//     eating the process's memory. Messages queued while a peer is down are
//     flushed when the connection (re)establishes.
//   - dialers reconnect with exponential backoff (base doubling up to max, so
//     a restarted peer is re-adopted within ~a backoff period;
//     net_tcp_reconnects_total counts re-establishments after the first)
//   - optional client connections (serve_clients()): a second listen socket
//     whose connections carry request/reply frames in the same codec, served
//     by the same loop with the same decoder, queue and flush code as peers.
//     Each request is answered on the loop thread, and the reply waits in the
//     client's queue until its socket takes it. A client whose unsent replies
//     would pass max_queue_bytes_per_peer is dropped
//     (net_tcp_clients_dropped_total), and one read per poll caps the work a
//     flooding client gets per iteration, so no client can stall the peers.
//
// Handler, client handler, timer, and post() callbacks all run on the
// event-loop thread, which satisfies the Transport serialization contract.
// shutdown() (or destruction) closes every socket and joins the thread; it is
// idempotent and safe from any thread, including the event-loop thread itself
// (the join is skipped there and completed by the destructor).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/transport/frame.hpp"
#include "net/transport/transport.hpp"
#include "obs/metrics.hpp"

namespace dlt::net::transport {

struct TcpPeer {
    PeerId id = 0;
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

struct TcpTransportConfig {
    PeerId local_id = 0;
    std::string listen_host = "127.0.0.1";
    /// 0 lets the kernel pick; listen_port() reports the bound port.
    std::uint16_t listen_port = 0;
    std::vector<TcpPeer> peers;
    FrameLimits frame{};
    /// Outbound queue bound per peer (framed bytes). Sends beyond it are
    /// refused — the backpressure signal.
    std::size_t max_queue_bytes_per_peer = 32u << 20;
};

class TcpTransport final : public Transport {
public:
    /// Binds the listen socket (throws dlt::Error on failure) but starts no
    /// I/O; call start() once the handler is installed.
    explicit TcpTransport(TcpTransportConfig config);
    ~TcpTransport() override;

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    /// Launch the event-loop thread (idempotent).
    void start();

    /// The locally bound listen port (resolves a configured port of 0).
    std::uint16_t listen_port() const { return bound_port_; }

    /// Peers with a completed handshake right now.
    std::size_t connected_peers() const {
        return ready_count_.load(std::memory_order_relaxed);
    }

    /// Answers one client request (topic, body) on the loop thread: the reply
    /// body, sent back under the request's topic, or nullopt to close the
    /// client's connection.
    using ClientHandler =
        std::function<std::optional<Bytes>(const std::string& topic, ByteView body)>;

    /// Bind a listen socket for request/reply clients (throws dlt::Error when
    /// the address is taken) and answer their requests with `handler` once
    /// the loop runs. Call before start(); returns the bound port, which
    /// resolves a `port` of 0.
    std::uint16_t serve_clients(const std::string& host, std::uint16_t port,
                                ClientHandler handler);

    // --- Transport -----------------------------------------------------------
    PeerId local_id() const override { return config_.local_id; }
    std::vector<PeerId> peer_ids() const override;
    void set_handler(Handler handler) override;
    bool send(PeerId to, const std::string& topic, ByteView payload) override;
    double now() const override;
    TimerId schedule_after(double delay_s, std::function<void()> fn) override;
    bool cancel_timer(TimerId id) override;
    void post(std::function<void()> fn) override;
    void shutdown() override;

private:
    enum class ConnState : std::uint8_t {
        kDown,       // no socket; dialers have a reconnect deadline armed
        kConnecting, // non-blocking connect() in flight
        kHandshake,  // TCP up, our HELLO queued, waiting for the peer's
        kReady,      // handshake complete, messages flow
    };

    // One socket's framing state, shared by peers, accepted sockets awaiting
    // their HELLO, and clients: the decoder for what it reads and the framed
    // bytes waiting to be written. A peer's queue is shared with send()
    // callers on other threads and guarded by m_; everything else belongs to
    // the event-loop thread.
    struct Link {
        int fd = -1;
        FrameDecoder decoder;
        std::deque<Bytes> outq; // framed bytes awaiting write
        std::size_t outq_bytes = 0;
        std::size_t front_off = 0; // partially written prefix of outq.front()
        bool blocked = false;      // the socket refused bytes; wait for POLLOUT
    };

    struct PeerState : Link {
        TcpPeer cfg;
        bool dialer = false; // we dial iff our id > peer id
        ConnState state = ConnState::kDown;
        bool saw_hello = false;
        bool ever_connected = false;
        double backoff_s = 0;
        double retry_at = 0; // loop-clock deadline for the next dial
        obs::Gauge* queue_gauge = nullptr; // net_tcp_send_queue_bytes{peer}
    };

    struct Timer {
        double at = 0;
        std::function<void()> fn;
    };

    void loop();
    bool on_loop_thread() const;
    void accept_peers();
    void accept_clients();
    void begin_dial(PeerState& p);
    void finish_dial(PeerState& p);
    /// One recv() into `l.decoder`: the byte count, 0 on EOF or a socket
    /// error (close the link), or -1 when the socket had nothing to read.
    /// Callers count peer bytes; client traffic stays out of the net_tcp_*
    /// byte and frame counters.
    long receive(Link& l);
    void read_peer(PeerState& p);
    void drain_peer_frames(PeerState& p);
    /// Reads a pending socket; returns false when it should be dropped from
    /// pending_ (closed, or its fd was adopted by a peer).
    bool read_pending(Link& pd);
    void adopt_pending(Link& pd, PeerId id);
    /// Reads and answers a client's requests; false when it must be closed.
    bool read_client(Link& c);
    struct Written {
        std::uint64_t bytes = 0, frames = 0; // frames that went out whole
        bool broken = false;                 // the connection failed
    };
    /// Writes `l`'s queue with one sendmsg per batch of frames until it is
    /// empty or the socket refuses bytes (m_ held).
    Written write_queued(Link& l);
    /// End of every loop iteration: write each connection's queued frames.
    void flush_all();
    void queue_hello_locked(PeerState& p);
    void mark_ready(PeerState& p);
    void close_conn(PeerState& p);
    void arm_retry(PeerState& p);
    void wake();
    void drain_wake();
    void fire_due_timers();
    void drain_posted();
    PeerState* find_peer(PeerId id);

    TcpTransportConfig config_;
    std::uint16_t bound_port_ = 0;
    int listen_fd_ = -1;
    int client_listen_fd_ = -1;
    int wake_rd_ = -1, wake_wr_ = -1;

    std::thread thread_;
    std::mutex join_m_; // serializes shutdown()/~TcpTransport joins
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex m_; // guards outbound queues + timers_ + posted_
    std::map<PeerId, PeerState> peers_; // keys fixed after construction
    std::vector<Link> pending_;                 // accepted, HELLO not yet read
    std::map<std::uint64_t, Link> clients_;     // keyed by accept order
    std::uint64_t next_client_ = 0;
    ClientHandler client_handler_;
    std::map<TimerId, Timer> timers_;
    TimerId next_timer_ = 1;
    std::vector<std::function<void()>> posted_;
    Handler handler_;
    std::atomic<std::size_t> ready_count_{0};

    // obs instrumentation (process-global registry; satellite of E29).
    obs::Counter* bytes_sent_ = nullptr;
    obs::Counter* bytes_received_ = nullptr;
    obs::Counter* frames_sent_ = nullptr;
    obs::Counter* frames_received_ = nullptr;
    obs::Counter* reconnects_ = nullptr;
    obs::Counter* handshake_failures_ = nullptr;
    obs::Counter* send_drops_ = nullptr;
    obs::Counter* decode_errors_ = nullptr;
    obs::Counter* clients_dropped_ = nullptr;
};

} // namespace dlt::net::transport
