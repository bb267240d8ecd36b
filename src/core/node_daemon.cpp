#include "core/node_daemon.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"

namespace dlt::core {

NodeDaemon::NodeDaemon(NodeDaemonConfig config) : config_(std::move(config)) {
    transport_ =
        std::make_unique<net::transport::TcpTransport>(config_.transport);
    replica_ = std::make_unique<Replica>(*transport_, config_.replica);
    rpc_port_ = transport_->serve_clients(
        config_.rpc_host, config_.rpc_port,
        [this](const std::string& method, ByteView body) { return answer(method, body); });
}

NodeDaemon::~NodeDaemon() {
    request_stop();
    stop();
}

void NodeDaemon::start() {
    bool expected = false;
    if (!started_.compare_exchange_strong(expected, true)) return;
    replica_->start(); // timers land in the loop's queue before it spins up
    transport_->start();
}

void NodeDaemon::wait() {
    while (!stop_requested_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop();
}

void NodeDaemon::stop() {
    request_stop();
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    transport_->shutdown();
    // The loop thread has been joined, so the replica is this thread's now.
    if (started_.load()) replica_->stop();
}

std::optional<Bytes> NodeDaemon::answer(const std::string& method, ByteView body) {
    Writer reply;
    try {
        if (method == "submit") {
            const auto tx = decode_from_bytes<ledger::Transaction>(body);
            reply.u8(replica_->submit_transaction(tx) ? 1 : 0);
        } else if (method == "status") {
            reply.u64(replica_->height());
            reply.fixed(replica_->tip());
            reply.u64(replica_->confirmed_txs());
            reply.u64(replica_->mempool_size());
            reply.u32(static_cast<std::uint32_t>(transport_->connected_peers()));
            reply.f64(transport_->now());
        } else if (method == "latencies") {
            const std::vector<double>& lat = replica_->confirmation_latencies();
            reply.varint(lat.size());
            for (const double v : lat) reply.f64(v);
        } else if (method == "metrics") {
            reply.str(obs::MetricsRegistry::global().json_snapshot());
        } else if (method == "shutdown") {
            reply.u8(1); // written before wait() sees the flag and stops
            request_stop();
        } else {
            return std::nullopt; // unknown method: drop the client
        }
    } catch (const Error&) {
        return std::nullopt; // malformed request: drop the client
    }
    return std::move(reply).take();
}

} // namespace dlt::core
