#include "app/cluster.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace dlt::app {

using net::transport::FrameDecoder;
using net::transport::FrameKind;

namespace {

/// Ask the kernel for a currently free loopback port. The tiny window between
/// closing this probe socket and the daemon binding it is acceptable for a
/// single-host test harness (SO_REUSEADDR smooths over TIME_WAIT).
std::uint16_t free_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw Error("cluster: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw Error("cluster: bind() failed while probing for a free port");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ::close(fd);
    return ntohs(addr.sin_port);
}

double monotonic_now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

// --- RpcClient --------------------------------------------------------------

RpcClient::RpcClient(RpcClient&& other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
    other.fd_ = -1;
}

RpcClient& RpcClient::operator=(RpcClient&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        decoder_ = std::move(other.decoder_);
        other.fd_ = -1;
    }
    return *this;
}

bool RpcClient::connect(const std::string& host, std::uint16_t port,
                        double timeout_s) {
    close();
    const double deadline = monotonic_now() + timeout_s;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
    while (monotonic_now() < deadline) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return false;
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            fd_ = fd;
            decoder_ = FrameDecoder();
            return true;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
}

void RpcClient::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::optional<Bytes> RpcClient::request(const std::string& topic, ByteView body) {
    if (fd_ < 0) return std::nullopt;
    const Bytes out = net::transport::encode_message_frame(topic, body);
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n =
            ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            close();
            return std::nullopt;
        }
        off += static_cast<std::size_t>(n);
    }
    std::uint8_t buf[65536];
    while (true) {
        try {
            if (auto frame = decoder_.next()) {
                if (frame->kind != FrameKind::kMessage) {
                    close();
                    return std::nullopt;
                }
                auto msg =
                    net::transport::decode_message_payload(ByteView(frame->payload));
                return std::move(msg.body);
            }
        } catch (const DecodeError&) {
            close();
            return std::nullopt;
        }
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            close();
            return std::nullopt;
        }
        decoder_.feed(ByteView(buf, static_cast<std::size_t>(n)));
    }
}

bool RpcClient::submit(const ledger::Transaction& tx) {
    const auto reply = request("submit", ByteView(encode_to_bytes(tx)));
    return reply && !reply->empty() && (*reply)[0] == 1;
}

std::optional<NodeStatus> RpcClient::status() {
    const auto reply = request("status", ByteView());
    if (!reply) return std::nullopt;
    try {
        Reader r{ByteView(*reply)};
        NodeStatus s;
        s.height = r.u64();
        s.tip = r.fixed<32>();
        s.confirmed_txs = r.u64();
        s.mempool_size = r.u64();
        s.connected_peers = r.u32();
        s.clock = r.f64();
        r.expect_done();
        return s;
    } catch (const DecodeError&) {
        return std::nullopt;
    }
}

std::vector<double> RpcClient::latencies() {
    const auto reply = request("latencies", ByteView());
    if (!reply) return {};
    try {
        Reader r{ByteView(*reply)};
        const std::uint64_t n = r.varint_count(8);
        std::vector<double> out;
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) out.push_back(r.f64());
        r.expect_done();
        return out;
    } catch (const DecodeError&) {
        return {};
    }
}

std::string RpcClient::metrics_json() {
    const auto reply = request("metrics", ByteView());
    if (!reply) return {};
    try {
        Reader r{ByteView(*reply)};
        std::string text = r.str();
        r.expect_done();
        return text;
    } catch (const DecodeError&) {
        return {};
    }
}

bool RpcClient::shutdown_node() {
    const auto reply = request("shutdown", ByteView());
    close();
    return reply && !reply->empty() && (*reply)[0] == 1;
}

// --- ClusterDriver ----------------------------------------------------------

ClusterDriver::ClusterDriver(ClusterConfig config) : config_(std::move(config)) {
    if (config_.node_count == 0)
        throw ValidationError("cluster: node_count must be positive");
    if (config_.work_dir.empty())
        throw ValidationError("cluster: work_dir must be set");
}

ClusterDriver::~ClusterDriver() {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].pid > 0) {
            ::kill(nodes_[i].pid, SIGKILL);
            wait_node(i);
        }
    }
}

std::string ClusterDriver::resolve_binary() const {
    if (!config_.node_binary.empty()) return config_.node_binary;
    if (const char* env = std::getenv("DLT_NODE_BIN"); env != nullptr && *env != 0)
        return env;
    for (const char* candidate :
         {"examples/dlt-node", "./dlt-node", "../examples/dlt-node",
          "build/examples/dlt-node"}) {
        if (::access(candidate, X_OK) == 0) return candidate;
    }
    throw Error(
        "cluster: dlt-node binary not found (set DLT_NODE_BIN or "
        "ClusterConfig::node_binary)");
}

void ClusterDriver::start() {
    DLT_EXPECTS(nodes_.empty());
    std::filesystem::create_directories(config_.work_dir);
    nodes_.resize(config_.node_count);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i].listen_port = free_port();
        nodes_[i].rpc_port = free_port();
        nodes_[i].dir = config_.work_dir / ("node" + std::to_string(i));
        std::filesystem::create_directories(nodes_[i].dir);
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) spawn(i);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (!nodes_[i].client.connect("127.0.0.1", nodes_[i].rpc_port, 10.0))
            throw Error("cluster: node " + std::to_string(i) +
                        " RPC did not come up");
    }
}

void ClusterDriver::spawn(std::size_t node) {
    Node& n = nodes_.at(node);
    DLT_EXPECTS(n.pid <= 0);
    const std::string binary = resolve_binary();

    std::vector<std::string> args;
    args.push_back(binary);
    args.push_back("--id");
    args.push_back(std::to_string(node));
    args.push_back("--data");
    args.push_back(n.dir.string());
    args.push_back("--listen");
    args.push_back("127.0.0.1:" + std::to_string(n.listen_port));
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
        if (j == node) continue;
        args.push_back("--peer");
        args.push_back(std::to_string(j) + "=127.0.0.1:" +
                       std::to_string(nodes_[j].listen_port));
    }
    args.push_back("--rpc-port");
    args.push_back(std::to_string(n.rpc_port));
    args.push_back("--engine");
    args.push_back(config_.engine == core::ReplicaEngine::kNakamoto ? "nakamoto"
                                                                    : "pbft");
    args.push_back("--nodes");
    args.push_back(std::to_string(nodes_.size()));
    args.push_back("--interval");
    args.push_back(std::to_string(config_.block_interval));
    args.push_back("--seed");
    args.push_back(std::to_string(config_.seed));
    args.push_back("--state");
    args.push_back(config_.lsm_state ? "lsm" : "mem");
    args.push_back("--chain-tag");
    args.push_back(config_.chain_tag);
    args.push_back("--sync-interval");
    args.push_back(std::to_string(config_.sync_interval));

    // fork() copies the page tables of our resident heap, so a child's peak
    // RSS starts there; hand freed heap back first so the peak is the daemon's.
    ::malloc_trim(0);
    const int pid = ::fork();
    if (pid < 0) throw Error("cluster: fork() failed");
    if (pid == 0) {
        // Child: route stdout/stderr to a per-node log, then exec.
        const std::string log = (n.dir / "node.log").string();
        const int log_fd =
            ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
        if (log_fd >= 0) {
            ::dup2(log_fd, STDOUT_FILENO);
            ::dup2(log_fd, STDERR_FILENO);
            ::close(log_fd);
        }
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(binary.c_str(), argv.data());
        ::_exit(127); // exec failed
    }
    n.pid = pid;
}

RpcClient& ClusterDriver::rpc(std::size_t node) {
    Node& n = nodes_.at(node);
    if (!n.client.connected())
        n.client.connect("127.0.0.1", n.rpc_port, 10.0);
    return n.client;
}

void ClusterDriver::signal_node(std::size_t node, int sig) {
    const Node& n = nodes_.at(node);
    DLT_EXPECTS(n.pid > 0);
    ::kill(n.pid, sig);
}

int ClusterDriver::wait_node(std::size_t node) {
    Node& n = nodes_.at(node);
    DLT_EXPECTS(n.pid > 0);
    int status = 0;
    while (::waitpid(n.pid, &status, 0) < 0 && errno == EINTR) {
    }
    n.pid = -1;
    n.client.close();
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return -WTERMSIG(status);
    return -1;
}

void ClusterDriver::restart_node(std::size_t node) {
    spawn(node);
    Node& n = nodes_.at(node);
    if (!n.client.connect("127.0.0.1", n.rpc_port, 10.0))
        throw Error("cluster: node " + std::to_string(node) +
                    " RPC did not come back after restart");
}

std::vector<int> ClusterDriver::stop_all() {
    std::vector<int> codes(nodes_.size(), -1);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].pid > 0) rpc(i).shutdown_node();
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].pid > 0) codes[i] = wait_node(i);
    return codes;
}

} // namespace dlt::app
