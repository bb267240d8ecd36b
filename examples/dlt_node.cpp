// dlt-node: run one PersistentNode-backed consensus replica as an OS process,
// speaking framed TCP to its peers — the deployment mode of experiment E29.
//
//   dlt-node --id 1 --data /tmp/n1 --listen 127.0.0.1:9001 \
//            --peer 0=127.0.0.1:9000 --peer 2=127.0.0.1:9002 \
//            --rpc-port 8001 --engine nakamoto --nodes 3 --interval 1.0
//
// On startup it prints one machine-readable line:
//   READY id=<id> listen=<port> rpc=<port> height=<recovered height>
// then serves until SIGTERM/SIGINT (or a shutdown RPC), shuts down cleanly
// (WAL already durable; sockets closed; threads joined), and exits 0.
// Worker threads for parallel validation come from DLT_THREADS, exactly like
// every other binary in this repo.
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/node_daemon.hpp"

namespace {

dlt::core::NodeDaemon* g_daemon = nullptr;

void on_signal(int) {
    if (g_daemon != nullptr) g_daemon->request_stop();
}

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "dlt-node: " << problem << "\n"
              << "usage: dlt-node --id N --data DIR [--listen HOST:PORT]\n"
              << "  [--peer ID=HOST:PORT]... [--rpc-port P] [--engine nakamoto|pbft]\n"
              << "  [--nodes N] [--interval SECONDS] [--seed N] [--state mem|lsm]\n"
              << "  [--chain-tag TAG] [--sync-interval SECONDS]\n";
    std::exit(2);
}

std::pair<std::string, std::uint16_t> split_host_port(const std::string& s) {
    const auto colon = s.rfind(':');
    if (colon == std::string::npos) usage("expected HOST:PORT, got " + s);
    return {s.substr(0, colon),
            static_cast<std::uint16_t>(std::stoul(s.substr(colon + 1)))};
}

} // namespace

int main(int argc, char** argv) {
    dlt::core::NodeDaemonConfig config;
    config.replica.state_engine = dlt::core::StateEngine::kPersistent;
    bool have_id = false, have_data = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--id") {
            config.transport.local_id =
                static_cast<std::uint32_t>(std::stoul(next()));
            have_id = true;
        } else if (arg == "--data") {
            config.replica.data_dir = next();
            have_data = true;
        } else if (arg == "--listen") {
            const auto [host, port] = split_host_port(next());
            config.transport.listen_host = host;
            config.transport.listen_port = port;
        } else if (arg == "--peer") {
            const std::string spec = next();
            const auto eq = spec.find('=');
            if (eq == std::string::npos) usage("expected ID=HOST:PORT, got " + spec);
            dlt::net::transport::TcpPeer peer;
            peer.id = static_cast<std::uint32_t>(std::stoul(spec.substr(0, eq)));
            const auto [host, port] = split_host_port(spec.substr(eq + 1));
            peer.host = host;
            peer.port = port;
            config.transport.peers.push_back(std::move(peer));
        } else if (arg == "--rpc-port") {
            config.rpc_port = static_cast<std::uint16_t>(std::stoul(next()));
        } else if (arg == "--engine") {
            const std::string engine = next();
            if (engine == "nakamoto")
                config.replica.engine = dlt::core::ReplicaEngine::kNakamoto;
            else if (engine == "pbft")
                config.replica.engine = dlt::core::ReplicaEngine::kPbft;
            else
                usage("unknown engine " + engine);
        } else if (arg == "--nodes") {
            config.replica.node_count =
                static_cast<std::uint32_t>(std::stoul(next()));
        } else if (arg == "--interval") {
            config.replica.block_interval = std::stod(next());
        } else if (arg == "--seed") {
            config.replica.seed = std::stoull(next());
        } else if (arg == "--state") {
            const std::string state = next();
            if (state == "mem")
                config.replica.state_engine = dlt::core::StateEngine::kInMemory;
            else if (state == "lsm")
                config.replica.state_engine = dlt::core::StateEngine::kPersistent;
            else
                usage("unknown state engine " + state);
        } else if (arg == "--chain-tag") {
            config.replica.chain_tag = next();
        } else if (arg == "--sync-interval") {
            config.replica.sync_interval = std::stod(next());
        } else {
            usage("unknown option " + arg);
        }
    }
    if (!have_id) usage("--id is required");
    if (!have_data) usage("--data is required");
    const std::uint32_t node_id = config.transport.local_id;

    try {
        dlt::core::NodeDaemon daemon(std::move(config));
        g_daemon = &daemon;
        struct sigaction sa{};
        sa.sa_handler = on_signal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);

        // Read before start(): from then on the replica belongs to the loop.
        const std::uint64_t recovered_height = daemon.replica().height();
        daemon.start();
        std::cout << "READY id=" << node_id
                  << " listen=" << daemon.listen_port()
                  << " rpc=" << daemon.rpc_port()
                  << " height=" << recovered_height << "\n"
                  << std::flush;
        daemon.wait();
        g_daemon = nullptr;
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "dlt-node: fatal: " << e.what() << "\n";
        return 1;
    }
}
