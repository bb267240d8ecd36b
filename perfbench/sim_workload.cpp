// sim-signed: an in-process NakamotoNetwork of 32 nodes with 1 s blocks on
// the default links (50 +/- 20 ms, 10 MB/s), fed records that were signed
// client-side during set-up and verified under SigCheckMode::kFull. It
// stresses ECDSA plus the simulator's per-node gossip, admission, block
// connect and fork choice, and has no storage, TCP or large-state copy.
//
// The records are offered to kReps networks that differ only in the
// network's own randomness, with the SigCache cleared before each, so every
// repetition pays the same ECDSA work; metrics are medians over them. The
// first network runs twice and its virtual-time outputs must match exactly.
#include <algorithm>
#include <ctime>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"
#include "common/rng.hpp"
#include "consensus/nakamoto.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "ledger/validation.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace dlt;

namespace {

constexpr std::size_t kSimNodes = 32;
constexpr double kSimBlockInterval = 1.0;
constexpr std::size_t kSigners = 32;
constexpr std::size_t kPayloadBytes = 64;
/// Offered records per virtual second; load is offered for --seconds of
/// virtual time, then the network drains (sized so kReps repetitions take
/// about --seconds of wall time on a 4-vCPU box).
constexpr double kSimRate = 80.0;
constexpr double kDrainVirtual = 15.0;
/// Host noise moves single repetitions by several percent, and block-hash
/// tie-breaks make one network's fork history depend on the records'
/// content, so metrics are medians over several networks.
constexpr int kReps = 7;
/// Seeds of the networks' own randomness (mining race, link delays), one
/// per repetition, and of the arrival schedule (see make_requests).
constexpr std::uint64_t kFirstNetworkSeed = 1;
constexpr std::uint64_t kScheduleSeed = 0x5c4edull;

struct Request {
    ledger::Transaction tx; // unsigned until set-up signs it
    std::size_t signer = 0;
    double at = 0;
    net::NodeId origin = 0;
};

std::string signer_label(std::uint64_t seed, std::size_t i) {
    return "perfbench/signer/" + std::to_string(seed) + "/" + std::to_string(i);
}

/// The arrival schedule (times, origins, signer slots) is a fixed property
/// of the workload, like the network's randomness; --seed picks the signer
/// keys and payloads, and so every signature and txid. Virtual-time
/// behaviour then repeats across seeds and only host time varies.
std::vector<Request> make_requests(std::uint64_t seed, double window) {
    Rng schedule(kScheduleSeed);
    Rng content(seed ^ 0x51a11edull);
    std::vector<double> times(static_cast<std::size_t>(kSimRate * window));
    for (double& t : times) t = schedule.uniform01() * window;
    std::sort(times.begin(), times.end());

    std::vector<crypto::PublicKey> keys;
    for (std::size_t i = 0; i < kSigners; ++i)
        keys.push_back(crypto::PrivateKey::from_seed(signer_label(seed, i)).public_key());
    std::vector<std::uint64_t> nonces(kSigners, 0);
    std::vector<Request> out;
    for (const double t : times) {
        Request r;
        r.signer = schedule.index(kSigners);
        r.origin = static_cast<net::NodeId>(schedule.index(kSimNodes));
        Bytes payload(kPayloadBytes);
        for (auto& b : payload) b = static_cast<std::uint8_t>(content.next());
        r.tx = ledger::make_record(keys[r.signer], nonces[r.signer]++, std::move(payload));
        r.tx.declared_fee = 1'000;
        r.at = t;
        out.push_back(std::move(r));
    }
    return out;
}

double process_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Reset the process's peak RSS (VmHWM) to its current RSS, so the next
/// read covers one repetition only.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_kb() {
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
    return 0;
}

struct Rep {
    double setup_s = 0, wall_s = 0, cpu_s = 0, peak_rss_kb = 0;
    /// Host wall time of each submit call, and from each submit until peer
    /// 0's active chain first includes the record.
    std::vector<double> submit_s, confirm_s;
    std::uint64_t distinct = 0, included = 0, unconfirmed = 0;
    std::uint64_t reorgs = 0, stale = 0, events = 0;
    std::string tip;
    std::string obs_before, obs_after;
    std::vector<ledger::Transaction> canonical_txs;
};

Rep run_rep(const std::vector<Request>& requests, std::uint64_t seed,
            std::uint64_t network_seed, bool traced) {
    Rep rep;
    crypto::SigCache::global().clear();
    reset_peak_rss();
    obs::Tracer::global().set_enabled(traced);
    const double t0 = now_s();
    std::vector<crypto::PrivateKey> keys;
    for (std::size_t i = 0; i < kSigners; ++i)
        keys.push_back(crypto::PrivateKey::from_seed(signer_label(seed, i)));
    std::vector<ledger::Transaction> signed_txs;
    signed_txs.reserve(requests.size());
    for (const Request& r : requests) {
        signed_txs.push_back(r.tx);
        signed_txs.back().sign_with(keys[r.signer]);
    }
    consensus::NakamotoParams params;
    params.node_count = kSimNodes;
    params.block_interval = kSimBlockInterval;
    params.validation.sig_mode = ledger::SigCheckMode::kFull;
    params.chain_tag = kChainTag;
    consensus::NakamotoNetwork net(params, network_seed);
    net.start();
    const double t1 = now_s();
    rep.setup_s = t1 - t0;
    span("sim.setup", t0, t1, 0);

    std::unordered_map<Hash256, double> submitted_at;
    net.events(0).on_reorg = [&](const std::vector<Hash256>&,
                                 const std::vector<Hash256>& connected, SimTime) {
        const double t = now_s();
        for (const Hash256& h : connected)
            for (const ledger::Transaction& tx : net.chain_of(0).find(h)->block.txs) {
                const auto it = submitted_at.find(tx.txid());
                if (it == submitted_at.end()) continue;
                rep.confirm_s.push_back(t - it->second);
                submitted_at.erase(it);
            }
    };

    rep.obs_before = obs::MetricsRegistry::global().json_snapshot();
    const double cpu0 = process_cpu_s();
    const double run_start = now_s();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].at > net.now()) {
            const double b = traced ? now_s() : 0;
            net.run_for(requests[i].at - net.now());
            if (traced) span("sim.run_for", b, now_s(), 0);
        }
        const double b = now_s();
        submitted_at.emplace(signed_txs[i].txid(), b);
        net.submit_transaction(signed_txs[i], requests[i].origin);
        const double e = now_s();
        rep.submit_s.push_back(e - b);
        if (traced) span("sim.submit", b, e, 0, signed_txs[i].txid().hex());
    }
    const double b = traced ? now_s() : 0;
    net.run_for(kDrainVirtual);
    if (traced) span("sim.run_for", b, now_s(), 0);
    rep.wall_s = now_s() - run_start;
    rep.cpu_s = process_cpu_s() - cpu0;
    rep.obs_after = obs::MetricsRegistry::global().json_snapshot();
    obs::Tracer::global().set_enabled(false);

    std::unordered_set<Hash256> submitted, seen;
    for (const auto& tx : signed_txs) submitted.insert(tx.txid());
    for (const ledger::Block& block : net.canonical_chain())
        for (const ledger::Transaction& tx : block.txs) {
            if (tx.is_coinbase()) continue;
            ++rep.included;
            if (seen.insert(tx.txid()).second) rep.canonical_txs.push_back(tx);
        }
    for (const Hash256& id : submitted)
        if (seen.contains(id)) ++rep.distinct;
    rep.unconfirmed = submitted.size() - rep.distinct;
    rep.peak_rss_kb = peak_rss_kb();
    rep.tip = net.tip_of(0).hex();
    rep.reorgs = net.stats().reorgs;
    rep.stale = net.stale_blocks();
    rep.events = net.scheduler().events_processed();
    return rep;
}

} // namespace

std::string run_sim_workload(const Options& opt) {
    const auto requests = make_requests(opt.seed, opt.seconds);
    // Untraced: kReps - 1 networks, then the first again as the exact-match
    // check. Traced: each network untraced then traced, so the overhead
    // compares like with like and obs on/off must give identical outputs.
    std::vector<std::uint64_t> networks;
    std::vector<bool> traced;
    for (int i = 0; i + 1 < kReps; ++i) {
        const std::uint64_t network = kFirstNetworkSeed + static_cast<std::uint64_t>(
                                                              opt.trace ? i / 2 : i);
        networks.push_back(network);
        traced.push_back(opt.trace && i % 2 == 1);
    }
    if (!opt.trace) {
        networks.push_back(kFirstNetworkSeed);
        traced.push_back(false);
    }

    std::vector<Rep> reps;
    for (std::size_t i = 0; i < networks.size(); ++i)
        reps.push_back(run_rep(requests, opt.seed, networks[i], traced[i]));

    obs::JsonObjectWriter j;
    std::vector<double> setup, wall, cpu, rss;
    std::vector<std::uint64_t> distinct, included, unconfirmed, reorgs, stale, events;
    std::vector<std::string> tips;
    for (const Rep& r : reps) {
        setup.push_back(r.setup_s);
        wall.push_back(r.wall_s);
        cpu.push_back(r.cpu_s);
        rss.push_back(r.peak_rss_kb);
        distinct.push_back(r.distinct);
        included.push_back(r.included);
        unconfirmed.push_back(r.unconfirmed);
        reorgs.push_back(r.reorgs);
        stale.push_back(r.stale);
        events.push_back(r.events);
        tips.push_back(r.tip);
    }
    std::vector<double> traced_flags(traced.begin(), traced.end());
    j.field_string("kind", "sim");
    j.field_uint("attempted", requests.size());
    j.field_raw("traced", json_list(traced_flags));
    j.field_raw("networks", json_list(networks));
    j.field_raw("setup_s", json_list(setup));
    j.field_raw("wall_s", json_list(wall));
    j.field_raw("cpu_s", json_list(cpu));
    j.field_raw("peak_rss_kb", json_list(rss));
    j.field_raw("distinct", json_list(distinct));
    j.field_raw("included", json_list(included));
    j.field_raw("unconfirmed", json_list(unconfirmed));
    j.field_raw("reorgs", json_list(reorgs));
    j.field_raw("stale", json_list(stale));
    j.field_raw("events", json_list(events));
    j.field_raw("tips", json_list(tips));
    for (std::size_t i = 0; i < reps.size(); ++i) {
        j.field_raw("submit_s_" + std::to_string(i), json_list(reps[i].submit_s));
        j.field_raw("confirm_s_" + std::to_string(i), json_list(reps[i].confirm_s));
    }

    if (opt.trace) {
        // Per-layer counters from the last traced repetition.
        const Rep& t = reps.back();
        j.field_raw("obs_before", t.obs_before);
        j.field_raw("obs_after", t.obs_after);
        // Signature replay: the run's canonical transactions, cold cache.
        std::uint64_t sigs = 0;
        for (const auto& tx : t.canonical_txs) {
            std::vector<crypto::SigCheckJob> jobs;
            if (tx.collect_signature_checks(jobs)) sigs += jobs.size();
        }
        crypto::SigCache::global().clear();
        obs::Tracer::global().set_enabled(true);
        const double b = now_s();
        const bool ok = ledger::verify_batch_signatures(t.canonical_txs);
        const double e = now_s();
        span("replay.verify_batch_signatures", b, e, 100);
        obs::Tracer::global().set_enabled(false);
        j.field_raw("replay_sigs_ok", ok ? "true" : "false");
        j.field_uint("replay_sigs", sigs);
        j.field_raw("replay_verify_s", json_full(e - b));
    }
    return j.str();
}

} // namespace perfbench
