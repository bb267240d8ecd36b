// cluster-records and cluster-transfers: four dlt-node PBFT replicas on
// loopback TCP (LSM state engine, 0.2 s batching), every data dir seeded with
// the same UTXO state before start, driven by an open-loop trace through each
// node's RPC port.
//
//   cluster-records    100k seeded UTXOs, WorkloadEngine records at 400 tx/s.
//                      State is only read: the primary's per-proposal copy of
//                      the whole UTXO set dominates.
//   cluster-transfers  50k seeded UTXOs, unsigned 1-in-1-out transfers at
//                      1,000 tx/s, each spending a distinct seeded output:
//                      RPC decode, admission, relay and LSM writes dominate.
//                      The count per window is fixed so every run sees the
//                      same number of memtable flushes and full merges.
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

#include "app/cluster.hpp"
#include "common.hpp"
#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace dlt;

namespace {

struct ClusterSpec {
    std::size_t utxos = 0;
    double rate = 0; // offered tx/s
    bool transfers = false;
};

ClusterSpec spec_of(const std::string& workload) {
    if (workload == "cluster-records") return {100'000, 400.0, false};
    if (workload == "cluster-transfers") return {50'000, 1000.0, true};
    throw Error("perfbench: unknown cluster workload " + workload);
}

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 5;
constexpr int kSpawnAttempts = 3;
constexpr double kDrainTimeout = 20.0;

// --- Daemon CPU, read from /proc because ClusterDriver keeps the pids --------

std::vector<int> daemon_pids() {
    std::vector<int> pids;
    const int self = ::getpid();
    DIR* proc = ::opendir("/proc");
    if (proc == nullptr) return pids;
    while (const dirent* d = ::readdir(proc)) {
        const int pid = std::atoi(d->d_name);
        if (pid <= 0) continue;
        std::ifstream in("/proc/" + std::string(d->d_name) + "/stat");
        std::string line;
        if (!std::getline(in, line)) continue;
        const auto open = line.find('('), close = line.rfind(')');
        if (open == std::string::npos || close == std::string::npos) continue;
        const std::string comm = line.substr(open + 1, close - open - 1);
        int ppid = 0;
        char state = 0;
        if (std::sscanf(line.c_str() + close + 1, " %c %d", &state, &ppid) != 2) continue;
        if (ppid == self && comm == "dlt-node") pids.push_back(pid);
    }
    ::closedir(proc);
    std::sort(pids.begin(), pids.end());
    return pids;
}

/// On-CPU seconds of every thread of `pids` (schedstat: nanosecond counts).
double cpu_seconds(const std::vector<int>& pids) {
    double total = 0;
    for (const int pid : pids) {
        const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
        DIR* tasks = ::opendir(task_dir.c_str());
        if (tasks == nullptr) throw Error("perfbench: daemon " + std::to_string(pid) + " vanished");
        while (const dirent* d = ::readdir(tasks)) {
            if (d->d_name[0] == '.') continue;
            std::ifstream in(task_dir + "/" + d->d_name + "/schedstat");
            unsigned long long on_cpu_ns = 0;
            if (in >> on_cpu_ns) total += static_cast<double>(on_cpu_ns) * 1e-9;
        }
        ::closedir(tasks);
    }
    return total;
}

// --- Set-up ------------------------------------------------------------------

/// A small VM whose vCPUs sat idle or single-threaded runs sudden parallel
/// work several times slower for a few seconds (daemon recovery measured at
/// 0.31-0.40 s instead of 0.08 s for the first set-ups of such a run).
/// Spinning every core first keeps set-up times comparable across runs.
void warm_up_cores() {
    const double until = now_s() + 2.0;
    std::vector<std::jthread> spinners;
    for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i)
        spinners.emplace_back([until] {
            while (now_s() < until) {
            }
        });
}

struct Prepared {
    fs::path dir;
    std::unique_ptr<app::ClusterDriver> cluster;
    std::vector<std::vector<TraceEntry>> windows; // one trace per window
    double setup_s = 0;
    int spawn_retries = 0;
};

void await_mesh(app::ClusterDriver& cluster, double timeout_s) {
    const double deadline = now_s() + timeout_s;
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
        while (true) {
            const auto s = cluster.rpc(i).status();
            if (s && s->connected_peers + 1 == cluster.node_count()) break;
            if (now_s() > deadline) throw Error("perfbench: cluster mesh did not form");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
}

/// Seed, build the traces, spawn the cluster and wait until every node
/// answers RPC with n-1 peers. Everything here counts toward setup_s.
Prepared prepare(const Options& opt, const ClusterSpec& spec, int rep, int windows) {
    Prepared p;
    const double t0 = now_s();
    p.dir = opt.work_dir / ("rep" + std::to_string(rep));
    fs::remove_all(p.dir);
    fs::create_directories(p.dir);

    const auto outpoints = seed_state(p.dir / "seed", spec.utxos, opt.seed);
    // A fixed request count per window: the offered load, and on transfers
    // the number of LSM flushes and merges, then repeat across seeds.
    const auto per_window = static_cast<std::size_t>(spec.rate * opt.seconds);
    if (spec.transfers) {
        for (int w = 0; w < windows; ++w)
            p.windows.push_back(
                transfer_trace(outpoints, per_window, opt.seconds, opt.seed, w * per_window));
    } else {
        p.windows = record_windows(spec.rate, per_window, opt.seconds, windows, opt.seed);
    }

    app::ClusterConfig config;
    config.node_count = kNodes;
    config.engine = core::ReplicaEngine::kPbft;
    config.block_interval = kBlockInterval;
    config.work_dir = p.dir / "cluster";
    config.seed = opt.seed;
    config.lsm_state = true;
    config.chain_tag = kChainTag;
    const auto copy_seed = [&] {
        fs::remove_all(config.work_dir);
        for (std::size_t i = 0; i < kNodes; ++i)
            copy_dir(p.dir / "seed", config.work_dir / ("node" + std::to_string(i)));
    };
    copy_seed();
    const double before_spawn = now_s() - t0;

    // ClusterDriver probes free ports by binding and releasing them, so a
    // daemon can lose its port to another socket before binding it and exit.
    // Such a spawn is retried on fresh ports and data dirs, and its time is
    // left out of setup_s; the retry count is reported.
    for (int attempt = 1;; ++attempt) {
        const double t = now_s();
        try {
            p.cluster = std::make_unique<app::ClusterDriver>(config);
            p.cluster->start();
            await_mesh(*p.cluster, 10.0);
            p.setup_s = before_spawn + (now_s() - t);
            return p;
        } catch (const Error& e) {
            p.cluster.reset(); // SIGKILLs and reaps whatever did start
            if (attempt == kSpawnAttempts) throw;
            std::fprintf(stderr, "perfbench: cluster start failed (%s); retrying\n", e.what());
            ++p.spawn_retries;
            copy_seed();
        }
    }
}

// --- One measured window ----------------------------------------------------------

struct Window {
    std::uint64_t attempted = 0, accepted = 0;
    /// Per request, in one order: due time (from the window's open), how late
    /// it was sent, and when its submit returned, both from the due time.
    std::vector<double> due_s, late_s, submit_s;
    double drain_s = 0; // last request sent -> all confirmed
    std::vector<std::uint64_t> confirmed; // per node, this window only
    std::vector<double> confirm_s;        // daemons' submit->inclusion stamps
    bool tips_agree = false;
    double cpu_s = 0;
    std::vector<std::string> obs_before, obs_after;
};

struct Generated {
    std::vector<double> due_s, late_s, submit_s;
    std::uint64_t attempted = 0, accepted = 0;
    double last_sent = 0;
};

/// Open loop: one thread per node connection, each sending its node's
/// requests at their due times whatever the replies do.
void generate(app::RpcClient& client, const std::vector<const TraceEntry*>& mine,
              std::chrono::steady_clock::time_point t0, double epoch, std::uint32_t track,
              Generated& out) {
    const bool traced = obs::Tracer::global().enabled();
    for (const TraceEntry* e : mine) {
        const auto due = t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(e->at));
        std::this_thread::sleep_until(due);
        const double due_s = epoch + e->at;
        const double sent = now_s();
        const bool ok = client.submit(e->tx);
        const double done = now_s();
        ++out.attempted;
        if (ok) ++out.accepted;
        out.due_s.push_back(e->at);
        out.late_s.push_back(sent - due_s);
        out.submit_s.push_back(done - due_s);
        out.last_sent = std::max(out.last_sent, sent);
        if (traced) span("rpc.submit", sent, done, track, e->tx.txid().hex());
    }
}

Window run_window(app::ClusterDriver& cluster, const std::vector<TraceEntry>& trace,
                  bool snapshot_obs) {
    const std::size_t n = cluster.node_count();
    Window w;
    std::vector<std::uint64_t> base_confirmed(n), base_latencies(n);
    std::vector<app::RpcClient*> clients(n);
    for (std::size_t i = 0; i < n; ++i) {
        clients[i] = &cluster.rpc(i);
        const auto s = clients[i]->status();
        if (!s) throw Error("perfbench: node status failed before the window");
        base_confirmed[i] = s->confirmed_txs;
        base_latencies[i] = clients[i]->latencies().size();
        if (snapshot_obs) w.obs_before.push_back(clients[i]->metrics_json());
    }
    std::vector<std::vector<const TraceEntry*>> per_node(n);
    for (const TraceEntry& e : trace) per_node[e.node % n].push_back(&e);

    const std::vector<int> pids = daemon_pids();
    if (pids.size() != n) throw Error("perfbench: expected one dlt-node child per node");
    const double cpu0 = cpu_seconds(pids);

    // A short lead so every thread is parked before the first due time.
    const auto t0 = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    const double epoch = std::chrono::duration<double>(t0.time_since_epoch()).count();
    std::vector<Generated> gen(n);
    {
        // jthreads join when the scope ends, on exception paths too.
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < n; ++i)
            threads.emplace_back(generate, std::ref(*clients[i]), std::cref(per_node[i]), t0,
                                 epoch, static_cast<std::uint32_t>(i), std::ref(gen[i]));
    }
    double last_sent = epoch;
    for (const Generated& g : gen) {
        w.attempted += g.attempted;
        w.accepted += g.accepted;
        w.due_s.insert(w.due_s.end(), g.due_s.begin(), g.due_s.end());
        w.late_s.insert(w.late_s.end(), g.late_s.begin(), g.late_s.end());
        w.submit_s.insert(w.submit_s.end(), g.submit_s.begin(), g.submit_s.end());
        last_sent = std::max(last_sent, g.last_sent);
    }

    // Drain: every node must confirm every accepted transaction. Each node's
    // connection is free again now that its generator thread has ended.
    w.confirmed.assign(n, 0);
    const double drain_deadline = now_s() + kDrainTimeout;
    while (true) {
        bool done = true;
        for (std::size_t i = 0; i < n; ++i) {
            const auto s = clients[i]->status();
            if (!s) throw Error("perfbench: node status failed during drain");
            w.confirmed[i] = s->confirmed_txs - base_confirmed[i];
            done = done && w.confirmed[i] >= w.accepted;
        }
        if (done || now_s() > drain_deadline) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const double drained = now_s();
    w.drain_s = drained - last_sent;
    w.cpu_s = cpu_seconds(pids) - cpu0;
    span("cluster.drain", last_sent, drained, static_cast<std::uint32_t>(n));

    // Tip agreement: one status round in which every tip matches.
    const double tip_deadline = now_s() + 5.0;
    while (!w.tips_agree && now_s() < tip_deadline) {
        std::vector<Hash256> tips;
        for (std::size_t i = 0; i < n; ++i)
            if (const auto s = clients[i]->status()) tips.push_back(s->tip);
        w.tips_agree = tips.size() == n &&
                       std::all_of(tips.begin(), tips.end(),
                                   [&](const Hash256& t) { return t == tips.front(); });
        if (!w.tips_agree) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const auto lat = clients[i]->latencies();
        for (std::size_t k = base_latencies[i]; k < lat.size(); ++k)
            w.confirm_s.push_back(lat[k]);
        if (snapshot_obs) w.obs_after.push_back(clients[i]->metrics_json());
    }
    return w;
}

void window_json(obs::JsonObjectWriter& j, const std::string& prefix, const Window& w) {
    j.field_uint(prefix + "attempted", w.attempted);
    j.field_uint(prefix + "accepted", w.accepted);
    j.field_raw(prefix + "drain_s", json_full(w.drain_s));
    j.field_raw(prefix + "confirmed", json_list(w.confirmed));
    j.field_raw(prefix + "confirm_s", json_list(w.confirm_s));
    j.field_raw(prefix + "due_s", json_list(w.due_s));
    j.field_raw(prefix + "late_s", json_list(w.late_s));
    j.field_raw(prefix + "submit_s", json_list(w.submit_s));
    j.field_raw(prefix + "tips_agree", w.tips_agree ? "true" : "false");
    j.field_raw(prefix + "cpu_s", json_full(w.cpu_s));
    if (!w.obs_before.empty()) {
        j.field_raw(prefix + "obs_before", json_raw_list(w.obs_before));
        j.field_raw(prefix + "obs_after", json_raw_list(w.obs_after));
    }
}

} // namespace

std::string run_cluster_workload(const Options& opt) {
    const ClusterSpec spec = spec_of(opt.workload);
    // A traced run measures an untraced window and then a traced one on the
    // same cluster, so the trace overhead compares like with like.
    const int windows = opt.trace ? 2 : 1;

    warm_up_cores();
    std::vector<double> setups;
    std::vector<int> exit_codes;
    std::uint64_t spawn_retries = 0;
    Prepared p;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        p = prepare(opt, spec, rep, windows);
        setups.push_back(p.setup_s);
        spawn_retries += static_cast<std::uint64_t>(p.spawn_retries);
        if (rep + 1 == kSetupReps) break;
        for (const int code : p.cluster->stop_all()) exit_codes.push_back(code);
        p.cluster.reset();
        fs::remove_all(p.dir);
    }

    obs::JsonObjectWriter j;
    j.field_string("kind", "cluster");
    j.field_raw("setup_s", json_list(setups));
    j.field_uint("spawn_retries", spawn_retries);
    const Window first = run_window(*p.cluster, p.windows[0], false);
    window_json(j, "", first);
    if (opt.trace) {
        obs::Tracer::global().set_enabled(true);
        const Window traced = run_window(*p.cluster, p.windows[1], true);
        obs::Tracer::global().set_enabled(false);
        window_json(j, "traced_", traced);
    }
    for (const int code : p.cluster->stop_all()) exit_codes.push_back(code);
    p.cluster.reset();

    rusage usage{};
    ::getrusage(RUSAGE_CHILDREN, &usage);
    j.field_raw("exit_codes",
                json_list(std::vector<double>(exit_codes.begin(), exit_codes.end())));
    j.field_raw("peak_rss_kb", json_full(static_cast<double>(usage.ru_maxrss)));

    if (opt.trace) {
        obs::Tracer::global().set_enabled(true);
        j.field_raw("replay", replay_pipeline(p.dir / "seed", p.dir / "replay", p.windows[0]));
        obs::Tracer::global().set_enabled(false);
    }
    return j.str();
}

} // namespace perfbench
