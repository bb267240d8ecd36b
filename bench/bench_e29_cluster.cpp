// E29 — real-transport deployment mode (ROADMAP item 1): the same consensus
// stack that runs under the discrete-event Scheduler must hold up as an
// N-process loopback cluster of dlt-node daemons speaking framed TCP. The
// harness
//
//   1. generates one deterministic demand trace (app::WorkloadEngine against
//      a recording TxHost — Zipf agents, Poisson arrivals, fee bidding),
//   2. replays that trace wall-clock over each node's RPC port against a
//      live ClusterDriver cluster (Nakamoto and PBFT engines), measuring
//      confirmed tps and submit→inclusion latency percentiles from the
//      daemons' own lifecycle stamps,
//   3. runs the matching virtual-time simulation over the same demand as
//      the prediction baseline: NakamotoNetwork, and for PBFT four
//      core::Replica over a SimTransportHub — the code the daemons run,
//   4. SIGKILLs one node mid-run, restarts it on its old data dir and ports,
//      and requires it to rejoin: WAL/LSM recovery plus protocol catch-up
//      until its tip digest agrees with the cluster. The Nakamoto cell kills
//      the highest-id node; the PBFT failover cell kills the primary, so the
//      survivors must change view.
//
// DLT_E29_QUICK=1 shrinks every dimension for CI smoke runs.
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "app/cluster.hpp"
#include "app/workload.hpp"
#include "bench_util.hpp"
#include "common/serialize.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pbft.hpp"
#include "core/replica.hpp"
#include "net/transport/sim_transport.hpp"
#include "obs/txlifecycle.hpp"
#include "storage/file.hpp"

using namespace dlt;

namespace {

using storage::TempDir;

// --- Demand trace ------------------------------------------------------------

/// TxHost that records what the workload engine would submit instead of
/// feeding a network: the bench replays the identical (tx, node, time) stream
/// against both the socket cluster (wall clock) and the simulation baselines.
class TraceHost final : public app::TxHost {
public:
    struct Entry {
        ledger::Transaction tx;
        double at = 0; // virtual seconds from trace start
        std::uint32_t node = 0;
    };

    sim::Scheduler& scheduler() override { return scheduler_; }
    const ledger::Mempool& mempool_of(net::NodeId) const override {
        return mempool_;
    }
    void submit_transaction(const ledger::Transaction& tx,
                            net::NodeId origin) override {
        entries.push_back(Entry{tx, scheduler_.now(), origin});
    }

    std::vector<Entry> entries;
    sim::Scheduler scheduler_;

private:
    ledger::Mempool mempool_; // fee-floor oracle for market-follower agents
};

std::vector<TraceHost::Entry> make_trace(double tps, double duration,
                                         std::uint32_t submit_nodes,
                                         std::uint64_t seed) {
    TraceHost host;
    app::WorkloadParams params;
    params.population = 10'000;
    params.base_tps = tps;
    params.submit_nodes = submit_nodes;
    app::WorkloadEngine engine(host, params, seed);
    engine.start();
    host.scheduler().run_until(duration);
    engine.stop();
    return std::move(host.entries);
}

// --- Small stats helpers -----------------------------------------------------

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(idx, values.size() - 1)];
}

/// Crude counter extraction from the obs JSON snapshot ("name":value).
double metric_from_json(const std::string& json, const std::string& name) {
    const auto key = "\"" + name + "\":";
    const auto pos = json.find(key);
    if (pos == std::string::npos) return 0;
    return std::strtod(json.c_str() + pos + key.size(), nullptr);
}

// --- Live-cluster cell -------------------------------------------------------

struct ClusterCell {
    double tps = 0;
    double p50 = 0, p99 = 0;
    std::uint64_t submitted = 0, accepted = 0, confirmed = 0;
    bool all_confirmed = false; // every node holds every accepted transaction
    bool digests_agree = false;
    std::size_t clean_exits = 0;
    double net_bytes_sent = 0, reconnects = 0;
    double view_changes = 0; // pbft_view_changes_total at a survivor
};

/// Poll every node until one simultaneous status round shows identical tips.
bool await_digest_agreement(app::ClusterDriver& cluster, double timeout_s) {
    bench::Timer timer;
    while (timer.elapsed_s() < timeout_s) {
        std::vector<app::NodeStatus> statuses;
        bool all = true;
        for (std::size_t i = 0; i < cluster.node_count() && all; ++i) {
            if (!cluster.alive(i)) continue;
            const auto s = cluster.rpc(i).status();
            if (!s) {
                all = false;
                break;
            }
            statuses.push_back(*s);
        }
        if (all && !statuses.empty()) {
            bool agree = true;
            for (const auto& s : statuses)
                agree = agree && s.tip == statuses.front().tip;
            if (agree) return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
}

/// Replay `trace` against a live cluster at wall-clock pace over the offered
/// window of `offered_s` seconds; when `victim` is set, SIGKILL that node a
/// third of the way in and restart it at two thirds, requiring recovery +
/// catch-up. A killed PBFT primary stays down until a survivor has changed
/// view: restarted sooner, it would resume its view, the backups would repair
/// the transactions it missed, and no failover would happen.
ClusterCell run_cluster_cell(core::ReplicaEngine engine, std::size_t nodes,
                             double block_interval,
                             const std::vector<TraceHost::Entry>& trace,
                             double offered_s,
                             const std::filesystem::path& work_dir,
                             std::optional<std::size_t> victim,
                             double settle_timeout_s, int* killed_exit = nullptr) {
    app::ClusterConfig config;
    config.node_count = nodes;
    config.engine = engine;
    config.block_interval = block_interval;
    config.work_dir = work_dir;
    config.chain_tag = "e29";
    app::ClusterDriver cluster(config);
    cluster.start();

    ClusterCell cell;
    const double trace_end = trace.empty() ? 0 : trace.back().at;
    const double kill_at = trace_end / 3.0;
    const double restart_at = 2.0 * trace_end / 3.0;
    bool killed = false, restarted = !victim;
    const std::size_t survivor = victim ? (*victim + 1) % nodes : 0;
    const bool wait_view_change = victim && engine == core::ReplicaEngine::kPbft;
    const auto restart = [&] {
        if (!killed || restarted) return;
        cluster.restart_node(*victim);
        restarted = true;
    };

    bench::Timer clock;
    for (const auto& entry : trace) {
        while (clock.elapsed_s() < entry.at)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (victim && !killed && clock.elapsed_s() >= kill_at) {
            cluster.signal_node(*victim, SIGKILL);
            const int code = cluster.wait_node(*victim);
            if (killed_exit != nullptr) *killed_exit = code;
            killed = true;
        }
        if (!wait_view_change && clock.elapsed_s() >= restart_at) restart();
        std::size_t target = entry.node % nodes;
        if (!cluster.alive(target)) target = (target + 1) % nodes;
        ++cell.submitted;
        if (cluster.rpc(target).submit(entry.tx)) ++cell.accepted;
    }
    if (!wait_view_change) restart();

    // Drain: poll until every node has confirmed every accepted transaction
    // (and, after a PBFT failover, a survivor reports its view change), or
    // the timeout. The view change alone takes the engine's 5 s timeout.
    bench::Timer settle;
    while (true) {
        if (wait_view_change) {
            cell.view_changes = metric_from_json(cluster.rpc(survivor).metrics_json(),
                                                 "pbft_view_changes_total");
            if (cell.view_changes >= 1) restart();
        }
        std::uint64_t least = cell.accepted, most = 0;
        for (std::size_t i = 0; i < cluster.node_count(); ++i) {
            const auto s = cluster.rpc(i).status();
            const std::uint64_t confirmed = s ? s->confirmed_txs : 0;
            least = std::min(least, confirmed);
            most = std::max(most, confirmed);
        }
        cell.confirmed = most;
        cell.all_confirmed = least >= cell.accepted;
        if (cell.all_confirmed && (!wait_view_change || cell.view_changes >= 1)) break;
        if (settle.elapsed_s() >= settle_timeout_s) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    restart(); // no view change in time: bring the node back for a clean stop
    cell.tps = bench::rate_per_sec(static_cast<double>(cell.confirmed), offered_s);

    cell.digests_agree = await_digest_agreement(cluster, settle_timeout_s);

    std::vector<double> latencies;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        const auto node_lat = cluster.rpc(i).latencies();
        latencies.insert(latencies.end(), node_lat.begin(), node_lat.end());
    }
    cell.p50 = percentile(latencies, 0.50);
    cell.p99 = percentile(latencies, 0.99);

    const std::string metrics = cluster.rpc(0).metrics_json();
    cell.net_bytes_sent = metric_from_json(metrics, "net_tcp_bytes_sent_total");
    cell.reconnects = metric_from_json(metrics, "net_tcp_reconnects_total");

    for (const int code : cluster.stop_all())
        if (code == 0) ++cell.clean_exits;
    return cell;
}

// --- Simulation baselines ----------------------------------------------------

struct SimCell {
    double tps = 0;
    double p50 = 0, p99 = 0;
    std::uint64_t confirmed = 0;
    double tx_frames_per_tx = 0; // "tx" sends per accepted transaction (PBFT)
};

SimCell run_nakamoto_sim(std::size_t nodes, double block_interval, double tps,
                         double duration, std::uint64_t seed) {
    consensus::NakamotoParams params;
    params.node_count = nodes;
    params.block_interval = block_interval;
    params.chain_tag = "e29-sim";
    // Match the daemon's ReplicaConfig: unsigned record txs, skip sig checks.
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    consensus::NakamotoNetwork net(params, seed);
    net.start();
    app::WorkloadParams wp;
    wp.population = 10'000;
    wp.base_tps = tps;
    wp.submit_nodes = static_cast<std::uint32_t>(nodes);
    app::WorkloadEngine engine(net, wp, seed);
    engine.start();
    net.run_for(duration);
    engine.stop();
    net.run_for(10.0 * block_interval); // drain in-flight confirmations

    SimCell cell;
    cell.confirmed = net.confirmed_tx_count();
    cell.tps = bench::rate_per_sec(static_cast<double>(cell.confirmed), duration);
    const auto lat = net.lifecycle().latencies(obs::TxStage::kSubmitted,
                                               obs::TxStage::kIncluded);
    cell.p50 = percentile(lat, 0.50);
    cell.p99 = percentile(lat, 0.99);
    return cell;
}

/// The PBFT prediction runs the daemons' own code: four core::Replica over a
/// simulated full mesh, fed the trace at its virtual times. It also counts
/// the "tx" frames the replicas send, exactly: the origin's broadcast is
/// nodes - 1 per transaction, and a lossless mesh needs no repair.
SimCell run_pbft_sim(std::size_t nodes, double block_interval,
                     const std::vector<TraceHost::Entry>& trace, double duration,
                     const std::filesystem::path& work_dir, std::uint64_t seed) {
    std::uint64_t tx_frames = 0, accepted = 0;
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(seed));
    net::transport::SimTransportHub hub(network, nodes);
    network.build_full_mesh();
    hub.set_send_filter([&tx_frames](net::transport::PeerId, net::transport::PeerId,
                                     const std::string& topic) {
        tx_frames += topic == "tx";
        return true;
    });
    std::vector<std::unique_ptr<core::Replica>> replicas;
    for (std::uint32_t id = 0; id < nodes; ++id) {
        core::ReplicaConfig config;
        config.engine = core::ReplicaEngine::kPbft;
        config.node_count = static_cast<std::uint32_t>(nodes);
        config.block_interval = block_interval;
        config.data_dir = work_dir / ("n" + std::to_string(id));
        config.seed = seed;
        replicas.push_back(std::make_unique<core::Replica>(hub.endpoint(id), config));
        replicas.back()->start();
    }
    for (const auto& entry : trace)
        scheduler.schedule_at(entry.at, [&replicas, &entry, &accepted, nodes] {
            accepted += replicas[entry.node % nodes]->submit_transaction(entry.tx);
        });
    scheduler.run_until(duration + 5.0); // drain

    SimCell cell;
    cell.confirmed = replicas[0]->confirmed_txs();
    cell.tx_frames_per_tx =
        accepted > 0 ? static_cast<double>(tx_frames) / static_cast<double>(accepted) : 0;
    cell.tps = bench::rate_per_sec(static_cast<double>(cell.confirmed), duration);
    std::vector<double> lat;
    for (const auto& r : replicas) {
        r->stop();
        lat.insert(lat.end(), r->confirmation_latencies().begin(),
                   r->confirmation_latencies().end());
    }
    cell.p50 = percentile(lat, 0.50);
    cell.p99 = percentile(lat, 0.99);
    return cell;
}

} // namespace

int main() {
#ifdef DLT_NODE_BIN_PATH
    // Baked-in build-tree location; an explicit DLT_NODE_BIN still wins.
    ::setenv("DLT_NODE_BIN", DLT_NODE_BIN_PATH, /*overwrite=*/0);
#endif
    const bool quick = std::getenv("DLT_E29_QUICK") != nullptr;
    bench::Run run("E29");
    bench::ObsEnv obs_env;
    bench::title("E29 - loopback cluster vs simulation",
                 "The socket-backed deployment mode must confirm transactions "
                 "at wall-clock rates comparable to the virtual-time "
                 "prediction, agree on tip digests across processes, and "
                 "survive kill + restart of a node through WAL recovery.");
    run.note("mode", quick ? "quick" : "full");

    const std::size_t nodes = 4;
    const double interval = quick ? 0.3 : 0.4;
    const double duration = quick ? 4.0 : 12.0;
    const double offered_tps = quick ? 60.0 : 150.0;
    const double settle = quick ? 6.0 : 10.0;
    run.metric("nodes", static_cast<std::uint64_t>(nodes));
    run.metric("offered_tps", offered_tps);
    run.metric("trace_seconds", duration);

    const auto trace =
        make_trace(offered_tps, duration, static_cast<std::uint32_t>(nodes), 29);
    std::printf("demand trace: %zu transactions over %.1fs (%.0f tx/s offered)\n\n",
                trace.size(), duration, offered_tps);

    TempDir dirs("bench-e29-work");
    bench::Table table({"cell", "engine", "confirmed", "tps", "p50 s", "p99 s",
                        "digests", "clean exits"});

    // Cell 1: Nakamoto over sockets vs the NakamotoNetwork prediction.
    const ClusterCell nk = run_cluster_cell(core::ReplicaEngine::kNakamoto,
                                            nodes, interval, trace, duration,
                                            dirs.path / "nakamoto", std::nullopt,
                                            settle);
    const SimCell nk_sim = run_nakamoto_sim(nodes, interval, offered_tps,
                                            duration, 29);
    table.row({"cluster", "nakamoto", bench::fmt_int(nk.confirmed),
               bench::fmt(nk.tps, 1), bench::fmt(nk.p50, 3), bench::fmt(nk.p99, 3),
               nk.digests_agree ? "agree" : "DISAGREE",
               bench::fmt_int(nk.clean_exits)});
    table.row({"sim", "nakamoto", bench::fmt_int(nk_sim.confirmed),
               bench::fmt(nk_sim.tps, 1), bench::fmt(nk_sim.p50, 3),
               bench::fmt(nk_sim.p99, 3), "-", "-"});

    // Cell 2: PBFT over sockets vs the same replicas over the simulator.
    const ClusterCell pb = run_cluster_cell(core::ReplicaEngine::kPbft, nodes,
                                            interval, trace, duration,
                                            dirs.path / "pbft", std::nullopt, settle);
    const SimCell pb_sim =
        run_pbft_sim(nodes, interval, trace, duration, dirs.path / "pbft-sim", 29);
    table.row({"cluster", "pbft", bench::fmt_int(pb.confirmed),
               bench::fmt(pb.tps, 1), bench::fmt(pb.p50, 3), bench::fmt(pb.p99, 3),
               pb.digests_agree ? "agree" : "DISAGREE",
               bench::fmt_int(pb.clean_exits)});
    table.row({"sim", "pbft", bench::fmt_int(pb_sim.confirmed),
               bench::fmt(pb_sim.tps, 1), bench::fmt(pb_sim.p50, 3),
               bench::fmt(pb_sim.p99, 3), "-", "-"});

    // Cell 3: kill one node (SIGKILL), restart it on the same data dir and
    // ports, and require LSM/WAL recovery plus catch-up to digest agreement.
    int killed_exit = 0;
    const ClusterCell kr = run_cluster_cell(core::ReplicaEngine::kNakamoto,
                                            nodes, interval, trace, duration,
                                            dirs.path / "rejoin", nodes - 1, settle,
                                            &killed_exit);
    table.row({"kill+rejoin", "nakamoto", bench::fmt_int(kr.confirmed),
               bench::fmt(kr.tps, 1), bench::fmt(kr.p50, 3), bench::fmt(kr.p99, 3),
               kr.digests_agree ? "agree" : "DISAGREE",
               bench::fmt_int(kr.clean_exits)});

    // Cell 4: kill the PBFT primary; the survivors must change view, and the
    // restarted node must catch up. The drain allows for the view-change
    // timeout on top of the usual settle time.
    int failover_exit = 0;
    const ClusterCell fo = run_cluster_cell(
        core::ReplicaEngine::kPbft, nodes, interval, trace, duration,
        dirs.path / "failover", 0,
        settle + consensus::PbftConfig{}.view_change_timeout, &failover_exit);
    table.row({"failover", "pbft", bench::fmt_int(fo.confirmed),
               bench::fmt(fo.tps, 1), bench::fmt(fo.p50, 3), bench::fmt(fo.p99, 3),
               fo.digests_agree ? "agree" : "DISAGREE",
               bench::fmt_int(fo.clean_exits)});
    table.print();

    std::printf("\nnode-0 transport: %.0f bytes sent, %.0f reconnects "
                "(nakamoto cell); killed node exits %d, %d (expected %d); "
                "view changes after failover %.0f\n",
                nk.net_bytes_sent, nk.reconnects, killed_exit, failover_exit,
                -SIGKILL, fo.view_changes);
    std::printf("pbft sim: %.2f tx frames per accepted transaction (expected %zu, "
                "one per peer)\n",
                pb_sim.tx_frames_per_tx, nodes - 1);

    run.metric("nakamoto_wall_tps", nk.tps);
    run.metric("nakamoto_wall_p50_s", nk.p50);
    run.metric("nakamoto_wall_p99_s", nk.p99);
    run.metric("nakamoto_confirmed", nk.confirmed);
    run.metric("nakamoto_submitted", nk.submitted);
    run.metric("nakamoto_accepted", nk.accepted);
    run.metric("nakamoto_digests_agree", static_cast<std::uint64_t>(nk.digests_agree));
    run.metric("nakamoto_clean_exits", static_cast<std::uint64_t>(nk.clean_exits));
    run.metric("nakamoto_net_bytes_sent", nk.net_bytes_sent);
    run.metric("nakamoto_sim_tps", nk_sim.tps);
    run.metric("nakamoto_sim_p50_s", nk_sim.p50);
    run.metric("nakamoto_sim_p99_s", nk_sim.p99);
    run.metric("pbft_wall_tps", pb.tps);
    run.metric("pbft_wall_p50_s", pb.p50);
    run.metric("pbft_wall_p99_s", pb.p99);
    run.metric("pbft_confirmed", pb.confirmed);
    run.metric("pbft_digests_agree", static_cast<std::uint64_t>(pb.digests_agree));
    run.metric("pbft_clean_exits", static_cast<std::uint64_t>(pb.clean_exits));
    run.metric("pbft_sim_tps", pb_sim.tps);
    run.metric("pbft_sim_p50_s", pb_sim.p50);
    run.metric("pbft_sim_p99_s", pb_sim.p99);
    run.metric("pbft_sim_tx_frames_per_tx", pb_sim.tx_frames_per_tx);
    run.metric("rejoin_killed_exit", static_cast<double>(killed_exit));
    run.metric("rejoin_digests_agree", static_cast<std::uint64_t>(kr.digests_agree));
    run.metric("rejoin_clean_exits", static_cast<std::uint64_t>(kr.clean_exits));
    run.metric("rejoin_confirmed", kr.confirmed);
    const bool rejoin_ok = kr.digests_agree && killed_exit == -SIGKILL &&
                           kr.clean_exits == nodes;
    run.metric("rejoin_success", static_cast<std::uint64_t>(rejoin_ok));
    run.metric("pbft_failover_accepted", fo.accepted);
    run.metric("pbft_failover_confirmed", fo.confirmed);
    run.metric("pbft_failover_all_confirmed",
               static_cast<std::uint64_t>(fo.all_confirmed));
    run.metric("pbft_failover_digests_agree",
               static_cast<std::uint64_t>(fo.digests_agree));
    run.metric("pbft_failover_clean_exits", static_cast<std::uint64_t>(fo.clean_exits));
    run.metric("pbft_failover_view_changes", fo.view_changes);
    const bool failover_ok = fo.all_confirmed && fo.digests_agree &&
                             fo.clean_exits == nodes && fo.view_changes >= 1 &&
                             failover_exit == -SIGKILL;
    run.metric("pbft_failover_success", static_cast<std::uint64_t>(failover_ok));

    run.write_json();
    obs_env.write_artifacts();
    return 0;
}
