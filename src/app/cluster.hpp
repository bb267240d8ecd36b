// ClusterDriver: spawn and drive an N-process loopback cluster of dlt-node
// daemons — the harness behind experiment E29 (bench_e29_cluster) and the
// deployment-mode tests. The driver
//
//   - pre-allocates loopback ports (consensus + RPC per node), writes one
//     data directory per node under work_dir, and fork/execs the dlt-node
//     binary with the full peer list,
//   - talks to each daemon over its RPC port with RpcClient (frame-codec
//     request/response — the same wire format the consensus sockets use),
//   - injects faults by signal: SIGTERM for the graceful-shutdown path
//     (exit 0, WAL written at every connect, state engine flushed on exit),
//     SIGKILL for the crash path,
//     and restart_node() respawns a node on its old directory and ports so
//     WAL recovery + protocol catch-up can be observed from outside.
//
// The dlt-node binary is found through (in order) ClusterConfig::node_binary,
// the DLT_NODE_BIN environment variable, and conventional build-tree
// locations relative to the current directory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/replica.hpp"
#include "ledger/transaction.hpp"
#include "net/transport/frame.hpp"

namespace dlt::app {

/// One node's answer to the "status" RPC.
struct NodeStatus {
    std::uint64_t height = 0;
    Hash256 tip;
    std::uint64_t confirmed_txs = 0;
    std::uint64_t mempool_size = 0;
    std::uint32_t connected_peers = 0;
    double clock = 0; // the daemon's transport clock (seconds since start)
};

/// Blocking frame-codec RPC connection to one daemon.
class RpcClient {
public:
    RpcClient() = default;
    ~RpcClient() { close(); }
    RpcClient(RpcClient&& other) noexcept;
    RpcClient& operator=(RpcClient&& other) noexcept;

    /// Connect with retry until `timeout_s` elapses (daemons need a moment
    /// between exec and listen).
    bool connect(const std::string& host, std::uint16_t port, double timeout_s);
    void close();
    bool connected() const { return fd_ >= 0; }

    /// True when the daemon's mempool accepted the transaction.
    bool submit(const ledger::Transaction& tx);
    std::optional<NodeStatus> status();
    /// Submit→inclusion latencies of transactions submitted via this node.
    std::vector<double> latencies();
    /// The daemon's obs registry snapshot (JSON text).
    std::string metrics_json();
    /// Ask the daemon to exit cleanly; the connection dies with it.
    bool shutdown_node();

private:
    std::optional<Bytes> request(const std::string& topic, ByteView body);

    int fd_ = -1;
    net::transport::FrameDecoder decoder_;
};

struct ClusterConfig {
    std::size_t node_count = 4;
    core::ReplicaEngine engine = core::ReplicaEngine::kNakamoto;
    double block_interval = 0.5;
    /// Root for per-node data dirs (created; survives restarts).
    std::filesystem::path work_dir;
    /// Path to the dlt-node binary; empty resolves via DLT_NODE_BIN / build tree.
    std::string node_binary;
    std::uint64_t seed = 1;
    /// LSM state engine (kPersistent) — required by the zero-replay reopen
    /// check; mem-backed nodes replay their WAL instead.
    bool lsm_state = true;
    std::string chain_tag = "e29";
    double sync_interval = 0.25;
};

class ClusterDriver {
public:
    explicit ClusterDriver(ClusterConfig config);
    /// Kills any still-running node (SIGKILL) and reaps it.
    ~ClusterDriver();

    ClusterDriver(const ClusterDriver&) = delete;
    ClusterDriver& operator=(const ClusterDriver&) = delete;

    /// Spawn every node and wait until all RPC ports answer. Throws
    /// dlt::Error when a node fails to come up.
    void start();

    std::size_t node_count() const { return nodes_.size(); }
    bool alive(std::size_t node) const { return nodes_.at(node).pid > 0; }
    std::uint16_t rpc_port(std::size_t node) const { return nodes_.at(node).rpc_port; }
    std::filesystem::path data_dir(std::size_t node) const {
        return nodes_.at(node).dir;
    }

    /// RPC handle for one node (reconnects after a restart).
    RpcClient& rpc(std::size_t node);

    /// Send `sig` (e.g. SIGTERM, SIGKILL) to one node.
    void signal_node(std::size_t node, int sig);
    /// Reap one node; returns its exit code (0 = clean), or -N when it died
    /// on signal N. Blocks until the process exits.
    int wait_node(std::size_t node);
    /// Respawn an exited node on its original directory and ports.
    void restart_node(std::size_t node);

    /// Graceful cluster shutdown: shutdown RPC to every live node, reap all,
    /// and return each node's exit code (wait_node semantics).
    std::vector<int> stop_all();

private:
    struct Node {
        int pid = -1;
        std::uint16_t listen_port = 0;
        std::uint16_t rpc_port = 0;
        std::filesystem::path dir;
        RpcClient client;
    };

    void spawn(std::size_t node);
    std::string resolve_binary() const;

    ClusterConfig config_;
    std::vector<Node> nodes_;
};

} // namespace dlt::app
