// E25 — fee-market mempool under population-scale demand (§2.4, §4): the gap
// between Bitcoin's ~7 tps and the 10K+ tps of pervasive deployment is decided
// at the admission queue. Two sections:
//
//   1. Microbenchmark: the indexed fee-market engine vs the historical greedy
//      pool (inlined below, bit-for-bit the seed implementation) on the
//      saturated-node cycle — admit a wave of transactions into a full
//      100K-entry pool, assemble a block template, confirm it — at a discrete
//      wallet fee menu (equal feerates are the common case, and tie handling
//      is exactly where the O(tie-range) multimap hurts).
//
//   2. Demand curve: millions of Zipf-skewed user agents (app::WorkloadEngine)
//      bid fees at a sustained 10K+ tps offered load with a mid-run burst;
//      block capacity is orders of magnitude smaller, so the mempool's
//      admission control — not the miner — decides who waits and who is shed.
//      Reports confirmation-latency percentiles per fee quartile and the
//      admission-outcome mix via TxLifecycleTracker + Mempool stats.
//
// DLT_E25_QUICK=1 shrinks both sections for CI smoke runs.
// DLT_TRACE / DLT_METRICS work as in every bench (bench::ObsEnv).
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <string>

#include "app/workload.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "consensus/nakamoto.hpp"
#include "ledger/mempool.hpp"

using namespace dlt;
using ledger::Transaction;

namespace {

// --- The historical greedy pool, inlined as the microbenchmark baseline -----
// Behavior-identical copy of the seed ledger::Mempool (multimap fee index,
// count-only bound, copy-out selection), kept here so the comparison survives
// the engine rebuild it motivates.
class SeedMempool {
public:
    explicit SeedMempool(std::size_t max_transactions)
        : max_transactions_(max_transactions) {}

    bool add(const Transaction& tx) {
        const Hash256 id = tx.txid();
        if (pool_.contains(id)) return false;

        PoolEntry entry;
        entry.size = tx.serialized_size();
        entry.fee = tx.declared_fee;
        entry.fee_rate = entry.size > 0 ? static_cast<double>(entry.fee) /
                                              static_cast<double>(entry.size)
                                        : 0.0;

        if (pool_.size() >= max_transactions_) {
            const auto worst = by_fee_rate_.begin();
            if (worst == by_fee_rate_.end() || worst->first >= entry.fee_rate)
                return false;
            pool_.erase(worst->second);
            by_fee_rate_.erase(worst);
        }

        by_fee_rate_.emplace(entry.fee_rate, id);
        entry.tx = tx;
        pool_.emplace(id, std::move(entry));
        return true;
    }

    std::vector<Transaction> select(std::size_t max_bytes,
                                    std::size_t max_count = SIZE_MAX) const {
        std::vector<Transaction> selected;
        std::size_t used = 0;
        for (auto it = by_fee_rate_.rbegin(); it != by_fee_rate_.rend(); ++it) {
            if (selected.size() >= max_count) break;
            const PoolEntry& entry = pool_.at(it->second);
            if (used + entry.size > max_bytes) continue;
            selected.push_back(entry.tx);
            used += entry.size;
        }
        return selected;
    }

    void remove_confirmed(const std::vector<Hash256>& txids) {
        for (const auto& id : txids) {
            const auto it = pool_.find(id);
            if (it == pool_.end()) continue;
            const auto range = by_fee_rate_.equal_range(it->second.fee_rate);
            for (auto idx = range.first; idx != range.second; ++idx) {
                if (idx->second == id) {
                    by_fee_rate_.erase(idx);
                    break;
                }
            }
            pool_.erase(it);
        }
    }

    std::size_t size() const { return pool_.size(); }

private:
    struct PoolEntry {
        Transaction tx;
        std::size_t size = 0;
        ledger::Amount fee = 0;
        double fee_rate = 0;
    };

    std::size_t max_transactions_;
    std::unordered_map<Hash256, PoolEntry> pool_;
    std::multimap<double, Hash256> by_fee_rate_;
};

/// A minimal record tx priced onto a discrete wallet fee menu (`levels`
/// distinct feerates — real traffic clusters on a handful of levels, so equal
/// bids are the common case and tie handling is what gets exercised).
Transaction menu_tx(Rng& rng, std::uint64_t sequence, std::uint64_t levels) {
    Transaction tx;
    tx.kind = ledger::TxKind::kRecord;
    tx.nonce = sequence;
    tx.data.resize(8 + rng.uniform(24));
    for (auto& b : tx.data) b = static_cast<std::uint8_t>(rng.next());
    const double rate = 0.5 + 0.25 * static_cast<double>(rng.uniform(levels));
    tx.declared_fee = static_cast<ledger::Amount>(
        rate * static_cast<double>(tx.serialized_size()) + 0.5);
    (void)tx.txid(); // pre-warm the hash cache: measure the index, not SHA-256
    return tx;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace

int main() {
    bench::Run run("E25");
    bench::ObsEnv obs_env;
    const bool quick = std::getenv("DLT_E25_QUICK") != nullptr;
    bench::title("E25: fee-market mempool + million-user demand (§2.4, §4)",
                 "Claim: an indexed admission queue sustains 10K+ tps offered "
                 "load, shedding demand by feerate; confirmation latency "
                 "stratifies by fee bid.");

    // ---- Section 1: saturated-node microbenchmark ---------------------------
    const std::size_t pool_cap = quick ? 30'000 : 100'000;
    const std::size_t wave = quick ? 2'000 : 4'000;
    const std::size_t cycles = quick ? 3 : 5;
    const std::uint64_t fee_levels = 16;
    const std::size_t block_bytes = 1'000'000;
    const std::size_t block_txs = wave; // confirm what was admitted: steady state

    std::printf("Saturated-node cycle at %zu-entry saturation, %llu-level fee "
                "menu (admit %zu + template + confirm, x%zu):\n",
                pool_cap, static_cast<unsigned long long>(fee_levels), wave,
                cycles);

    // Identical pre-hashed transaction streams for both engines.
    Rng gen(2025);
    std::uint64_t seq = 0;
    std::vector<Transaction> fill;
    fill.reserve(pool_cap);
    for (std::size_t i = 0; i < pool_cap; ++i)
        fill.push_back(menu_tx(gen, seq++, fee_levels));
    const auto draw_waves = [&] {
        std::vector<std::vector<Transaction>> ws(cycles);
        for (auto& w : ws) {
            w.reserve(wave);
            for (std::size_t i = 0; i < wave; ++i)
                w.push_back(menu_tx(gen, seq++, fee_levels));
        }
        return ws;
    };
    // The cycle loop admits (and mostly confirms) every cycle wave, so pure
    // admission is timed on fresh waves drawn after them.
    const auto waves = draw_waves();
    const auto admit_waves = draw_waves();

    double seed_ops_s = 0;
    double indexed_ops_s = 0;
    double seed_admit_s = 0;
    double indexed_admit_s = 0;
    {
        SeedMempool pool(pool_cap);
        for (const auto& tx : fill) pool.add(tx);
        std::uint64_t ops = 0;
        bench::Timer timer;
        for (std::size_t c = 0; c < cycles; ++c) {
            for (const auto& tx : waves[c]) pool.add(tx);
            const auto block = pool.select(block_bytes, block_txs);
            std::vector<Hash256> ids;
            ids.reserve(block.size());
            for (const auto& tx : block) ids.push_back(tx.txid());
            pool.remove_confirmed(ids);
            ops += wave + 1 + ids.size();
        }
        seed_ops_s = bench::rate_per_sec(static_cast<double>(ops),
                                         timer.elapsed_s());
        // Pure admission at saturation, reported separately for transparency.
        bench::Timer admit_timer;
        for (const auto& w : admit_waves)
            for (const auto& tx : w) pool.add(tx);
        seed_admit_s = bench::rate_per_sec(
            static_cast<double>(cycles * wave), admit_timer.elapsed_s());
    }
    {
        ledger::Mempool pool(ledger::MempoolConfig{.max_count = pool_cap});
        for (const auto& tx : fill) pool.add(tx);
        std::uint64_t ops = 0;
        bench::Timer timer;
        for (std::size_t c = 0; c < cycles; ++c) {
            for (const auto& tx : waves[c]) pool.add(tx);
            const auto block = pool.build_template(block_bytes, block_txs);
            std::vector<Hash256> ids;
            ids.reserve(block.size());
            for (const auto& entry : block) ids.push_back(entry.tx->txid());
            pool.remove_confirmed(ids);
            ops += wave + 1 + ids.size();
        }
        indexed_ops_s = bench::rate_per_sec(static_cast<double>(ops),
                                            timer.elapsed_s());
        bench::Timer admit_timer;
        for (const auto& w : admit_waves)
            for (const auto& tx : w) pool.add(tx);
        indexed_admit_s = bench::rate_per_sec(
            static_cast<double>(cycles * wave), admit_timer.elapsed_s());
    }

    const double cycle_speedup =
        seed_ops_s > 0 ? indexed_ops_s / seed_ops_s : 0.0;
    const double admit_speedup =
        seed_admit_s > 0 ? indexed_admit_s / seed_admit_s : 0.0;
    {
        bench::Table table({"engine", "cycle-ops/s", "admit-ops/s"});
        table.row({"seed greedy pool", bench::fmt(seed_ops_s, 0),
                   bench::fmt(seed_admit_s, 0)});
        table.row({"indexed fee market", bench::fmt(indexed_ops_s, 0),
                   bench::fmt(indexed_admit_s, 0)});
        table.print();
        std::printf("\nSpeedup: %.1fx on the mine cycle, %.1fx on pure "
                    "admission (target: >= 10x cycle).\n",
                    cycle_speedup, admit_speedup);
    }
    run.metric("micro_seed_cycle_ops_per_sec", seed_ops_s);
    run.metric("micro_indexed_cycle_ops_per_sec", indexed_ops_s);
    run.metric("micro_cycle_speedup", cycle_speedup);
    run.metric("micro_seed_admit_ops_per_sec", seed_admit_s);
    run.metric("micro_indexed_admit_ops_per_sec", indexed_admit_s);
    run.metric("micro_admit_speedup", admit_speedup);

    // ---- Section 2: demand curve at 10K+ tps offered load -------------------
    const double offered_tps = quick ? 4'000.0 : 10'000.0;
    const double load_secs = quick ? 12.0 : 45.0;
    const double drain_secs = quick ? 24.0 : 90.0;

    consensus::NakamotoParams params;
    params.node_count = quick ? 4 : 6;
    params.block_interval = 12.0;
    params.max_block_bytes = 1'000'000;
    params.max_block_txs = 6'000;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    params.finality_depth = 3;
    params.mempool.max_count = quick ? 20'000 : 120'000;
    params.mempool.max_bytes = 48u * 1024 * 1024;
    params.mempool.min_fee_rate = 0.5;
    params.mempool.expiry = 60.0;
    params.chain_tag = "e25";

    app::WorkloadParams wl;
    wl.population = quick ? 200'000 : 2'000'000;
    wl.zipf_exponent = 1.1;
    wl.base_tps = offered_tps;
    wl.burst_every = 30.0;    // one burst lands inside the load window
    wl.burst_duration = 10.0;
    wl.burst_multiplier = 2.5;
    wl.hot_accounts = 32;
    wl.hot_fraction = 0.05;
    wl.payload_bytes = 96;
    wl.min_fee_rate = 0.5;
    wl.max_fee_rate = 8.0;
    wl.fee_levels = 32;
    wl.submit_nodes = static_cast<std::uint32_t>(params.node_count);

    consensus::NakamotoNetwork net(params, /*seed=*/25'000);
    app::WorkloadEngine engine(net, wl, /*seed=*/77);

    std::printf("\nDemand curve: %.0f tps offered (burst x%.1f), %zu peers, "
                "%0.0fs block interval, pool cap %zu txs:\n",
                offered_tps, wl.burst_multiplier, params.node_count,
                params.block_interval, params.mempool.max_count);

    net.start();
    engine.start();
    net.run_for(load_secs);
    engine.stop();
    net.run_for(drain_secs); // let the backlog mine out and finality settle

    // Confirmation latency per fee quartile, joined from the workload's
    // submission log and the lifecycle tracker's stamps.
    const auto& submissions = engine.submissions();
    std::vector<double> rates;
    rates.reserve(submissions.size());
    for (const auto& s : submissions) rates.push_back(s.fee_rate);
    std::vector<double> sorted_rates = rates;
    std::sort(sorted_rates.begin(), sorted_rates.end());
    const auto quartile_of = [&](double rate) {
        // Rank by fee percentile: quartile 4 = top bids.
        const auto at = [&](double p) {
            return sorted_rates[static_cast<std::size_t>(
                p * static_cast<double>(sorted_rates.size() - 1))];
        };
        if (rate <= at(0.25)) return 0;
        if (rate <= at(0.50)) return 1;
        if (rate <= at(0.75)) return 2;
        return 3;
    };

    std::vector<double> latency[4];
    std::uint64_t offered_q[4] = {};
    std::uint64_t confirmed_q[4] = {};
    for (const auto& s : submissions) {
        const int q = quartile_of(s.fee_rate);
        ++offered_q[q];
        const auto* rec = net.lifecycle().find(s.txid);
        if (rec != nullptr && rec->included) {
            ++confirmed_q[q];
            latency[q].push_back(*rec->included - s.at);
        }
    }

    {
        bench::Table table({"fee-quartile", "offered", "confirmed", "confirm-%",
                            "p50-s", "p90-s", "p99-s"});
        const char* names[4] = {"Q1 (lowest)", "Q2", "Q3", "Q4 (highest)"};
        for (int q = 3; q >= 0; --q) {
            const double pct =
                offered_q[q] > 0 ? 100.0 * static_cast<double>(confirmed_q[q]) /
                                       static_cast<double>(offered_q[q])
                                 : 0.0;
            table.row({names[q], bench::fmt_int(offered_q[q]),
                       bench::fmt_int(confirmed_q[q]), bench::fmt(pct, 1),
                       bench::fmt(percentile(latency[q], 0.50), 1),
                       bench::fmt(percentile(latency[q], 0.90), 1),
                       bench::fmt(percentile(latency[q], 0.99), 1)});
            const std::string prefix = "fee_q" + std::to_string(q + 1) + "_";
            run.metric(prefix + "offered", offered_q[q]);
            run.metric(prefix + "confirmed", confirmed_q[q]);
            run.metric(prefix + "latency_p50", percentile(latency[q], 0.50));
            run.metric(prefix + "latency_p90", percentile(latency[q], 0.90));
            run.metric(prefix + "latency_p99", percentile(latency[q], 0.99));
        }
        table.print();
    }

    // Admission-outcome mix: per-result totals across every peer's pool plus
    // the drop mix at the observed replica.
    std::uint64_t admissions[ledger::kAdmissionResultCount] = {};
    for (std::size_t n = 0; n < net.node_count(); ++n) {
        const auto& stats = net.mempool_of(static_cast<net::NodeId>(n)).stats();
        for (std::size_t r = 0; r < ledger::kAdmissionResultCount; ++r)
            admissions[r] += stats.admitted[r];
    }
    {
        bench::Table table({"admission-outcome", "count (all peers)"});
        for (std::size_t r = 0; r < ledger::kAdmissionResultCount; ++r)
            table.row({ledger::admission_result_name(
                           static_cast<ledger::AdmissionResult>(r)),
                       bench::fmt_int(admissions[r])});
        std::printf("\n");
        table.print();
        for (std::size_t r = 0; r < ledger::kAdmissionResultCount; ++r) {
            std::string name = ledger::admission_result_name(
                static_cast<ledger::AdmissionResult>(r));
            std::transform(name.begin(), name.end(), name.begin(),
                           [](unsigned char c) { return std::tolower(c); });
            run.metric("admission_" + name, admissions[r]);
        }
    }

    const auto& pool0 = net.mempool_of(0).stats();
    const double virtual_secs = load_secs + drain_secs;
    const double confirmed_tps =
        static_cast<double>(net.confirmed_tx_count()) / virtual_secs;
    std::printf("\nOffered %.0f tps for %.0fs -> %llu submitted, %llu confirmed "
                "(%.1f tps over the full window), %llu shed at peer 0 "
                "(%llu evicted / %llu expired / %llu replaced), "
                "%llu lifecycle-dropped.\n",
                offered_tps, load_secs,
                static_cast<unsigned long long>(engine.stats().submitted),
                static_cast<unsigned long long>(net.confirmed_tx_count()),
                confirmed_tps,
                static_cast<unsigned long long>(
                    pool0.drops(ledger::MempoolDropReason::kEvicted) +
                    pool0.drops(ledger::MempoolDropReason::kExpired) +
                    pool0.drops(ledger::MempoolDropReason::kReplaced)),
                static_cast<unsigned long long>(
                    pool0.drops(ledger::MempoolDropReason::kEvicted)),
                static_cast<unsigned long long>(
                    pool0.drops(ledger::MempoolDropReason::kExpired)),
                static_cast<unsigned long long>(
                    pool0.drops(ledger::MempoolDropReason::kReplaced)),
                static_cast<unsigned long long>(net.lifecycle().dropped_count()));
    std::printf("Expected shape: confirmation %% and latency stratify by fee "
                "quartile; low quartiles are shed (QUEUE_FULL / FEE_TOO_LOW / "
                "expiry) once the pool saturates.\n");

    run.metric("offered_tps", offered_tps);
    run.metric("load_seconds", load_secs);
    run.metric("submitted", engine.stats().submitted);
    run.metric("distinct_agents", engine.stats().distinct_agents);
    run.metric("hot_submissions", engine.stats().hot_submissions);
    run.metric("workload_rbf_bids", engine.stats().rbf_bids);
    run.metric("confirmed", net.confirmed_tx_count());
    run.metric("confirmed_tps", confirmed_tps);
    run.metric("peer0_evicted", pool0.drops(ledger::MempoolDropReason::kEvicted));
    run.metric("peer0_expired", pool0.drops(ledger::MempoolDropReason::kExpired));
    run.metric("peer0_replaced",
               pool0.drops(ledger::MempoolDropReason::kReplaced));
    run.metric("lifecycle_dropped", net.lifecycle().dropped_count());
    run.metric("blocks_mined", net.stats().blocks_mined);
    return 0;
}
