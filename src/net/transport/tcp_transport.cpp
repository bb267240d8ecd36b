#include "net/transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace dlt::net::transport {

namespace {

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw ValidationError("tcp transport: not an IPv4 address: " + host);
    return addr;
}

std::string errno_text(const char* what) {
    return std::string(what) + ": " + std::strerror(errno);
}

/// A bound, listening, non-blocking socket; `port` 0 lets the kernel pick and
/// `bound` reports the result. Throws dlt::Error on failure.
int open_listener(const std::string& host, std::uint16_t port, std::uint16_t& bound) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw Error(errno_text("tcp transport: socket()"));
    try {
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr = make_addr(host, port);
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
            throw Error(errno_text("tcp transport: bind()"));
        if (::listen(fd, 64) != 0) throw Error(errno_text("tcp transport: listen()"));
        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
            throw Error(errno_text("tcp transport: getsockname()"));
        bound = ntohs(addr.sin_port);
    } catch (...) {
        ::close(fd);
        throw;
    }
    set_nonblocking(fd);
    return fd;
}

/// Accept every connection waiting on `listen_fd`, made non-blocking with
/// TCP_NODELAY, passing each fd to `adopt`.
template <typename Adopt>
void accept_all(int listen_fd, Adopt&& adopt) {
    while (true) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return; // EAGAIN or transient accept failure: retry next poll
        }
        set_nonblocking(fd);
        set_nodelay(fd);
        adopt(fd);
    }
}

// Bytes asked of one recv(); a shorter read means the socket is drained.
constexpr std::size_t kReadChunk = 65536;
// Frames handed to one sendmsg().
constexpr std::size_t kMaxIov = 64;
// Reconnect backoff: base doubling up to max (seconds).
constexpr double kReconnectBaseS = 0.05;
constexpr double kReconnectMaxS = 2.0;

// The transport whose event loop runs on this thread, if any.
thread_local const TcpTransport* t_loop_owner = nullptr;

} // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)), epoch_(std::chrono::steady_clock::now()) {
    auto& reg = obs::MetricsRegistry::global();
    bytes_sent_ = &reg.counter("net_tcp_bytes_sent_total",
                               "Framed bytes written to peer sockets");
    bytes_received_ = &reg.counter("net_tcp_bytes_received_total",
                                   "Framed bytes read from peer sockets");
    frames_sent_ = &reg.counter("net_tcp_frames_sent_total",
                                "Complete frames written to peer sockets");
    frames_received_ = &reg.counter("net_tcp_frames_received_total",
                                    "Complete frames decoded from peer sockets");
    reconnects_ = &reg.counter("net_tcp_reconnects_total",
                               "Peer connections re-established after a drop");
    handshake_failures_ =
        &reg.counter("net_tcp_handshake_failures_total",
                     "Connections rejected during the HELLO exchange");
    send_drops_ = &reg.counter("net_tcp_send_drops_total",
                               "Messages refused because a peer queue was full");
    decode_errors_ = &reg.counter("net_tcp_decode_errors_total",
                                  "Connections dropped on a framing error");
    clients_dropped_ =
        &reg.counter("net_tcp_clients_dropped_total",
                     "Client connections closed because their unsent replies passed "
                     "the queue cap");
    auto& queue_family = reg.gauge_family("net_tcp_send_queue_bytes",
                                          "Outbound queue depth per peer (bytes)",
                                          {"peer"});

    for (const TcpPeer& peer : config_.peers) {
        DLT_EXPECTS(peer.id != config_.local_id);
        PeerState st;
        st.cfg = peer;
        st.dialer = config_.local_id > peer.id;
        st.decoder = FrameDecoder(config_.frame);
        st.queue_gauge = &queue_family.with({std::to_string(peer.id)});
        const bool inserted = peers_.emplace(peer.id, std::move(st)).second;
        DLT_EXPECTS(inserted); // duplicate peer id in config
    }

    int fds[2];
    if (::pipe(fds) != 0) throw Error(errno_text("tcp transport: pipe()"));
    wake_rd_ = fds[0];
    wake_wr_ = fds[1];
    set_nonblocking(wake_rd_);
    set_nonblocking(wake_wr_);

    listen_fd_ = open_listener(config_.listen_host, config_.listen_port, bound_port_);
}

TcpTransport::~TcpTransport() {
    shutdown();
    {
        std::lock_guard lk(join_m_);
        if (thread_.joinable()) thread_.join();
    }
    for (auto& [id, p] : peers_)
        if (p.fd >= 0) ::close(p.fd);
    for (Link& pd : pending_)
        if (pd.fd >= 0) ::close(pd.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (client_listen_fd_ >= 0) ::close(client_listen_fd_);
    if (wake_rd_ >= 0) ::close(wake_rd_);
    if (wake_wr_ >= 0) ::close(wake_wr_);
}

void TcpTransport::start() {
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true)) return;
    thread_ = std::thread([this] { loop(); });
}

std::vector<PeerId> TcpTransport::peer_ids() const {
    std::vector<PeerId> ids;
    ids.reserve(peers_.size());
    for (const auto& [id, p] : peers_) ids.push_back(id); // map: already sorted
    return ids;
}

void TcpTransport::set_handler(Handler handler) {
    DLT_EXPECTS(!running_.load(std::memory_order_acquire));
    handler_ = std::move(handler);
}

std::uint16_t TcpTransport::serve_clients(const std::string& host, std::uint16_t port,
                                          ClientHandler handler) {
    DLT_EXPECTS(!running_.load(std::memory_order_acquire));
    DLT_EXPECTS(client_listen_fd_ < 0);
    std::uint16_t bound = 0;
    client_listen_fd_ = open_listener(host, port, bound);
    client_handler_ = std::move(handler);
    return bound;
}

bool TcpTransport::send(PeerId to, const std::string& topic, ByteView payload) {
    if (stopping_.load(std::memory_order_acquire)) return false;
    Bytes framed = encode_message_frame(topic, payload);
    // Frame bodies past the decode limit would be rejected by the receiver;
    // refuse them at the source instead of wasting the bandwidth.
    if (framed.size() - 8 > config_.frame.max_frame_bytes) {
        send_drops_->inc();
        return false;
    }
    {
        std::lock_guard lk(m_);
        PeerState* p = find_peer(to);
        if (p == nullptr) return false;
        if (p->outq_bytes + framed.size() > config_.max_queue_bytes_per_peer) {
            send_drops_->inc();
            return false;
        }
        p->outq_bytes += framed.size();
        p->outq.push_back(std::move(framed));
        p->queue_gauge->set(static_cast<double>(p->outq_bytes));
    }
    wake();
    return true;
}

double TcpTransport::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
}

TimerId TcpTransport::schedule_after(double delay_s, std::function<void()> fn) {
    TimerId id;
    {
        std::lock_guard lk(m_);
        id = next_timer_++;
        timers_[id] = Timer{now() + std::max(0.0, delay_s), std::move(fn)};
    }
    wake();
    return id;
}

bool TcpTransport::cancel_timer(TimerId id) {
    std::lock_guard lk(m_);
    return timers_.erase(id) > 0;
}

void TcpTransport::post(std::function<void()> fn) {
    {
        std::lock_guard lk(m_);
        posted_.push_back(std::move(fn));
    }
    wake();
}

void TcpTransport::shutdown() {
    stopping_.store(true, std::memory_order_release);
    wake();
    if (on_loop_thread()) return; // from a callback: the destructor joins
    std::lock_guard lk(join_m_);
    if (thread_.joinable()) thread_.join();
}

bool TcpTransport::on_loop_thread() const { return t_loop_owner == this; }

void TcpTransport::wake() {
    // The loop re-reads its queues, timers and posted work every iteration
    // and flushes at the end of it, so only other threads interrupt poll().
    if (wake_wr_ < 0 || on_loop_thread()) return;
    const std::uint8_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &one, 1);
}

void TcpTransport::drain_wake() {
    std::uint8_t buf[256];
    while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
    }
}

TcpTransport::PeerState* TcpTransport::find_peer(PeerId id) {
    const auto it = peers_.find(id);
    return it != peers_.end() ? &it->second : nullptr;
}

void TcpTransport::loop() {
    t_loop_owner = this;
    std::vector<pollfd> pfds;
    std::vector<PeerId> poll_peers;         // pfds[3 + i] belongs to poll_peers[i]
    std::vector<int> poll_pending;          // then one entry per pending fd
    std::vector<std::uint64_t> poll_clients; // then one per client

    while (!stopping_.load(std::memory_order_acquire)) {
        const double t = now();
        double timeout_s = 0.5;

        // Dial peers whose retry deadline has passed.
        for (auto& [id, p] : peers_) {
            if (!p.dialer || p.state != ConnState::kDown) continue;
            if (t >= p.retry_at)
                begin_dial(p);
            else
                timeout_s = std::min(timeout_s, p.retry_at - t);
        }

        pfds.clear();
        poll_peers.clear();
        poll_pending.clear();
        poll_clients.clear();
        pfds.push_back({wake_rd_, POLLIN, 0});
        pfds.push_back({listen_fd_, POLLIN, 0});
        pfds.push_back({client_listen_fd_, POLLIN, 0}); // poll skips fd -1
        {
            std::lock_guard lk(m_);
            for (auto& [id, p] : peers_) {
                if (p.fd < 0) continue;
                short events = 0;
                if (p.state == ConnState::kConnecting) {
                    events = POLLOUT;
                } else {
                    events = POLLIN;
                    if (!p.outq.empty()) events |= POLLOUT;
                }
                pfds.push_back({p.fd, events, 0});
                poll_peers.push_back(id);
            }
            if (!posted_.empty()) timeout_s = 0;
            for (const auto& [id, timer] : timers_)
                timeout_s = std::min(timeout_s, std::max(0.0, timer.at - t));
        }
        for (const Link& pd : pending_) {
            pfds.push_back({pd.fd, POLLIN, 0});
            poll_pending.push_back(pd.fd);
        }
        for (const auto& [id, c] : clients_) {
            const short events = c.outq.empty() ? POLLIN : POLLIN | POLLOUT;
            pfds.push_back({c.fd, events, 0});
            poll_clients.push_back(id);
        }

        const int timeout_ms =
            static_cast<int>(std::min(timeout_s, 0.5) * 1000.0) + 1;
        const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
        if (stopping_.load(std::memory_order_acquire)) break;
        if (ready < 0) {
            if (errno == EINTR) continue;
            break; // unrecoverable poll failure; daemon-level code will notice
        }

        if (pfds[0].revents != 0) drain_wake();
        if (pfds[1].revents != 0) accept_peers();
        if (pfds[2].revents != 0) accept_clients();

        for (std::size_t i = 0; i < poll_peers.size(); ++i) {
            const pollfd& pf = pfds[3 + i];
            if (pf.revents == 0) continue;
            PeerState* p = find_peer(poll_peers[i]);
            if (p == nullptr || p->fd != pf.fd) continue; // replaced meanwhile
            if (p->state == ConnState::kConnecting) {
                if (pf.revents & (POLLOUT | POLLERR | POLLHUP)) finish_dial(*p);
                continue;
            }
            if (pf.revents & POLLOUT) p->blocked = false;
            if (pf.revents & (POLLIN | POLLERR | POLLHUP)) read_peer(*p);
        }

        // Pending sockets: match by fd (adoption/closure mutates pending_).
        const std::size_t pending_base = 3 + poll_peers.size();
        for (std::size_t i = 0; i < poll_pending.size(); ++i) {
            if (pfds[pending_base + i].revents == 0) continue;
            const int fd = poll_pending[i];
            for (std::size_t j = 0; j < pending_.size(); ++j) {
                if (pending_[j].fd != fd) continue;
                if (!read_pending(pending_[j]))
                    pending_.erase(pending_.begin() +
                                   static_cast<std::ptrdiff_t>(j));
                break;
            }
        }

        const std::size_t client_base = pending_base + poll_pending.size();
        for (std::size_t i = 0; i < poll_clients.size(); ++i) {
            const short revents = pfds[client_base + i].revents;
            if (revents == 0) continue;
            const auto it = clients_.find(poll_clients[i]);
            if (revents & POLLOUT) it->second.blocked = false;
            if ((revents & (POLLIN | POLLERR | POLLHUP)) && !read_client(it->second)) {
                ::close(it->second.fd);
                clients_.erase(it);
            }
        }

        fire_due_timers();
        drain_posted();
        flush_all();
    }

    // Teardown on the loop thread so no other thread ever races the sockets.
    for (auto& [id, p] : peers_) {
        if (p.fd >= 0) ::close(p.fd);
        p.fd = -1;
        p.state = ConnState::kDown;
    }
    for (Link& pd : pending_)
        if (pd.fd >= 0) ::close(pd.fd);
    pending_.clear();
    for (auto& [id, c] : clients_) ::close(c.fd);
    clients_.clear();
    ready_count_.store(0, std::memory_order_relaxed);
    t_loop_owner = nullptr;
}

void TcpTransport::accept_peers() {
    accept_all(listen_fd_, [this](int fd) {
        Link pd;
        pd.fd = fd;
        pd.decoder = FrameDecoder(config_.frame);
        pending_.push_back(std::move(pd));
    });
}

void TcpTransport::accept_clients() {
    accept_all(client_listen_fd_, [this](int fd) {
        Link& c = clients_[next_client_++];
        c.fd = fd;
        c.decoder = FrameDecoder(config_.frame);
    });
}

void TcpTransport::begin_dial(PeerState& p) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        arm_retry(p);
        return;
    }
    set_nonblocking(fd);
    sockaddr_in addr;
    try {
        addr = make_addr(p.cfg.host, p.cfg.port);
    } catch (const ValidationError&) {
        ::close(fd); // misconfigured peer address: keep retrying, never crash
        arm_retry(p);
        return;
    }
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
        ::close(fd);
        arm_retry(p);
        return;
    }
    p.fd = fd;
    p.state = ConnState::kConnecting;
}

void TcpTransport::finish_dial(PeerState& p) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        close_conn(p);
        return;
    }
    set_nodelay(p.fd);
    p.state = ConnState::kHandshake;
    p.decoder = FrameDecoder(config_.frame);
    p.saw_hello = false;
    std::lock_guard lk(m_);
    queue_hello_locked(p); // written by this iteration's flush
}

void TcpTransport::queue_hello_locked(PeerState& p) {
    // A fresh connection never inherits a partial write, so the front of the
    // queue is a frame boundary and the HELLO can jump the line.
    DLT_INVARIANT(p.front_off == 0);
    Bytes hello = encode_hello_frame(config_.local_id);
    p.outq_bytes += hello.size();
    p.outq.push_front(std::move(hello));
    p.queue_gauge->set(static_cast<double>(p.outq_bytes));
}

void TcpTransport::mark_ready(PeerState& p) {
    p.state = ConnState::kReady;
    p.backoff_s = 0;
    ready_count_.fetch_add(1, std::memory_order_relaxed);
    if (p.ever_connected)
        reconnects_->inc();
    else
        p.ever_connected = true;
}

void TcpTransport::close_conn(PeerState& p) {
    if (p.fd >= 0) {
        ::close(p.fd);
        p.fd = -1;
    }
    if (p.state == ConnState::kReady)
        ready_count_.fetch_sub(1, std::memory_order_relaxed);
    p.state = ConnState::kDown;
    p.saw_hello = false;
    p.blocked = false;
    p.decoder = FrameDecoder(config_.frame);
    {
        std::lock_guard lk(m_);
        // Drop a half-written frame — resuming it on a new connection would
        // corrupt the stream. Whole queued frames stay for the reconnect.
        if (p.front_off > 0 && !p.outq.empty()) {
            p.outq_bytes -= p.outq.front().size();
            p.outq.pop_front();
            p.front_off = 0;
            p.queue_gauge->set(static_cast<double>(p.outq_bytes));
        }
    }
    if (p.dialer) arm_retry(p);
}

void TcpTransport::arm_retry(PeerState& p) {
    p.backoff_s = p.backoff_s == 0
                      ? kReconnectBaseS
                      : std::min(p.backoff_s * 2, kReconnectMaxS);
    p.retry_at = now() + p.backoff_s;
}

long TcpTransport::receive(Link& l) {
    std::uint8_t buf[kReadChunk];
    while (true) {
        const ssize_t n = ::recv(l.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            l.decoder.feed(ByteView(buf, static_cast<std::size_t>(n)));
            return static_cast<long>(n);
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return -1;
        return 0;
    }
}

void TcpTransport::read_peer(PeerState& p) {
    while (p.fd >= 0) {
        const long n = receive(p);
        if (n == 0) {
            close_conn(p);
            return;
        }
        if (n < 0) return;
        bytes_received_->inc(static_cast<std::uint64_t>(n));
        try {
            drain_peer_frames(p);
        } catch (const DecodeError&) {
            decode_errors_->inc();
            close_conn(p);
            return;
        }
        if (static_cast<std::size_t>(n) < kReadChunk) return; // socket drained
    }
}

void TcpTransport::drain_peer_frames(PeerState& p) {
    while (auto frame = p.decoder.next()) {
        frames_received_->inc();
        if (!p.saw_hello) {
            if (frame->kind != FrameKind::kHello) {
                handshake_failures_->inc();
                close_conn(p);
                return;
            }
            Hello hello;
            try {
                hello = decode_from_bytes<Hello>(ByteView(frame->payload));
            } catch (const DecodeError&) {
                handshake_failures_->inc();
                close_conn(p);
                return;
            }
            if (hello.node_id != p.cfg.id) {
                handshake_failures_->inc();
                close_conn(p);
                return;
            }
            p.saw_hello = true;
            if (p.state == ConnState::kHandshake) mark_ready(p);
            continue;
        }
        if (frame->kind == FrameKind::kHello) {
            handshake_failures_->inc(); // duplicate HELLO: protocol violation
            close_conn(p);
            return;
        }
        WireMessage msg;
        try {
            msg = decode_message_payload(ByteView(frame->payload));
        } catch (const DecodeError&) {
            decode_errors_->inc();
            close_conn(p);
            return;
        }
        if (handler_) handler_(p.cfg.id, msg.topic, ByteView(msg.body));
        if (p.fd < 0) return; // a handler-triggered shutdown closed us
    }
}

TcpTransport::Written TcpTransport::write_queued(Link& l) {
    Written out;
    while (!l.outq.empty()) {
        std::array<iovec, kMaxIov> iov{};
        std::size_t count = 0, want = 0;
        for (auto it = l.outq.begin(); it != l.outq.end() && count < iov.size(); ++it) {
            const std::size_t skip = count == 0 ? l.front_off : 0;
            iov[count++] = {const_cast<std::uint8_t*>(it->data()) + skip, it->size() - skip};
            want += it->size() - skip;
        }
        msghdr msg{};
        msg.msg_iov = iov.data();
        msg.msg_iovlen = count;
        const ssize_t n = ::sendmsg(l.fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                l.blocked = true;
            else
                out.broken = true;
            return out;
        }
        out.bytes += static_cast<std::uint64_t>(n);
        // Pop the frames that went out whole; keep the offset into the next.
        std::size_t left = static_cast<std::size_t>(n);
        while (left > 0 && left >= l.outq.front().size() - l.front_off) {
            left -= l.outq.front().size() - l.front_off;
            l.outq_bytes -= l.outq.front().size();
            l.outq.pop_front();
            l.front_off = 0;
            ++out.frames;
        }
        l.front_off += left;
        if (static_cast<std::size_t>(n) < want) {
            l.blocked = true; // the socket buffer is full
            return out;
        }
    }
    return out;
}

void TcpTransport::flush_all() {
    std::vector<PeerId> broken_peers;
    std::vector<std::uint64_t> broken_clients;
    {
        std::lock_guard lk(m_);
        for (auto& [id, p] : peers_) {
            // A dial in flight writes nothing: its HELLO must go first.
            if (p.fd < 0 || p.state == ConnState::kConnecting || p.blocked ||
                p.outq.empty())
                continue;
            const Written w = write_queued(p);
            bytes_sent_->inc(w.bytes);
            frames_sent_->inc(w.frames);
            p.queue_gauge->set(static_cast<double>(p.outq_bytes));
            if (w.broken) broken_peers.push_back(id);
        }
        for (auto& [id, c] : clients_)
            if (!c.blocked && !c.outq.empty() && write_queued(c).broken)
                broken_clients.push_back(id);
    }
    for (const PeerId id : broken_peers) close_conn(*find_peer(id));
    for (const std::uint64_t id : broken_clients) {
        ::close(clients_.at(id).fd);
        clients_.erase(id);
    }
}

bool TcpTransport::read_pending(Link& pd) {
    std::optional<Frame> frame;
    try {
        const long n = receive(pd);
        if (n < 0) return true; // nothing yet
        if (n == 0) {
            ::close(pd.fd);
            return false;
        }
        bytes_received_->inc(static_cast<std::uint64_t>(n));
        frame = pd.decoder.next();
    } catch (const DecodeError&) {
        handshake_failures_->inc();
        ::close(pd.fd);
        return false;
    }
    if (!frame) return true; // HELLO still incomplete
    frames_received_->inc();
    PeerId from = 0;
    bool ok = frame->kind == FrameKind::kHello;
    if (ok) {
        try {
            from = decode_from_bytes<Hello>(ByteView(frame->payload)).node_id;
        } catch (const DecodeError&) {
            ok = false;
        }
    }
    // Only higher-id peers may dial us; anything else is a stranger.
    PeerState* p = ok ? find_peer(from) : nullptr;
    if (p == nullptr || p->dialer) {
        handshake_failures_->inc();
        ::close(pd.fd);
        return false;
    }
    adopt_pending(pd, from);
    return false; // fd now owned by the peer entry
}

void TcpTransport::adopt_pending(Link& pd, PeerId id) {
    PeerState& p = *find_peer(id);
    // A peer that reconnects supersedes its old socket (it would not dial
    // again unless its side considered the old connection dead).
    if (p.fd >= 0) close_conn(p);
    p.fd = pd.fd;
    pd.fd = -1;
    p.decoder = std::move(pd.decoder); // may hold bytes past the HELLO
    p.saw_hello = true;
    {
        std::lock_guard lk(m_);
        queue_hello_locked(p);
    }
    mark_ready(p);
    try {
        drain_peer_frames(p); // frames that followed HELLO in the same read
    } catch (const DecodeError&) {
        decode_errors_->inc();
        close_conn(p);
    }
}

bool TcpTransport::read_client(Link& c) {
    // One read per poll: a client flooding requests cannot keep the loop from
    // its peers and timers.
    const long n = receive(c);
    if (n == 0) return false;
    try {
        while (auto frame = c.decoder.next()) {
            if (frame->kind != FrameKind::kMessage) return false;
            const WireMessage msg = decode_message_payload(ByteView(frame->payload));
            const std::optional<Bytes> reply = client_handler_(msg.topic, ByteView(msg.body));
            if (!reply) return false;
            Bytes framed = encode_message_frame(msg.topic, ByteView(*reply));
            if (c.outq_bytes + framed.size() > config_.max_queue_bytes_per_peer) {
                clients_dropped_->inc();
                return false;
            }
            c.outq_bytes += framed.size();
            c.outq.push_back(std::move(framed));
        }
    } catch (const DecodeError&) {
        return false; // not a well-formed request stream
    }
    return true;
}

void TcpTransport::fire_due_timers() {
    std::vector<std::pair<TimerId, Timer>> due;
    {
        std::lock_guard lk(m_);
        const double t = now();
        for (auto it = timers_.begin(); it != timers_.end();) {
            if (it->second.at <= t) {
                due.emplace_back(it->first, std::move(it->second));
                it = timers_.erase(it);
            } else {
                ++it;
            }
        }
    }
    std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
        return a.second.at != b.second.at ? a.second.at < b.second.at
                                          : a.first < b.first;
    });
    for (auto& [id, timer] : due) {
        if (stopping_.load(std::memory_order_acquire)) return;
        timer.fn();
    }
}

void TcpTransport::drain_posted() {
    std::vector<std::function<void()>> run;
    {
        std::lock_guard lk(m_);
        run.swap(posted_);
    }
    for (auto& fn : run) {
        if (stopping_.load(std::memory_order_acquire)) return;
        fn();
    }
}

} // namespace dlt::net::transport
