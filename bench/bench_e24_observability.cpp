// E24 — observability overhead: the metrics/tracing layer must be cheap
// enough to leave on. Measures (1) the micro-cost of the registry primitives
// (counter inc, histogram record), (2) end-to-end overhead of full tracing +
// lifecycle tracking on E2's signed-validation path (the most host-intensive
// simulation workload), and (3) that simulation outcomes are identical with
// observability on and off — metrics are pure observers.
#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "consensus/nakamoto.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/txlifecycle.hpp"
#include "storage/lsm_backend.hpp"

using namespace dlt;

namespace {

struct SignedRunResult {
    Hash256 tip;
    std::uint64_t height = 0;
    std::uint64_t confirmed = 0;
    std::uint64_t submitted = 0;
    double wall_s = 0;
};

// E2's full-ECDSA section: 8 peers, 30 s blocks, SigCheckMode::kFull, signed
// record transactions at 2 tps for 600 virtual seconds. Identical seeds every
// call, so any two runs must produce identical chains.
SignedRunResult run_signed_workload(const std::vector<crypto::PrivateKey>& signers) {
    bench::Timer timer;
    consensus::NakamotoParams params;
    params.node_count = 8;
    params.block_interval = 30.0;
    params.validation.sig_mode = ledger::SigCheckMode::kFull;
    consensus::NakamotoNetwork net(params, 99);
    net.start();

    Rng rng(101);
    const double duration = 600.0;
    const double tx_rate = 2.0;
    std::uint64_t sequence = 0;
    double next = rng.exponential(tx_rate);
    while (next < duration) {
        net.run_for(next - net.now());
        ledger::Transaction tx;
        tx.kind = ledger::TxKind::kRecord;
        tx.nonce = sequence;
        tx.data = Bytes(170, 0xE2);
        tx.declared_fee = 100;
        tx.sign_with(signers[sequence % signers.size()]);
        ++sequence;
        net.submit_transaction(tx, static_cast<net::NodeId>(rng.uniform(8)));
        next += rng.exponential(tx_rate);
    }
    net.run_for(duration - net.now() + 120.0);

    SignedRunResult r;
    r.tip = net.tip_of(0);
    r.height = net.height_of(0);
    r.submitted = sequence;
    r.confirmed = net.confirmed_tx_count();
    r.wall_s = timer.elapsed_s();
    return r;
}

} // namespace

int main() {
    bench::Run run("E24");
    // This bench measures the tracer itself and flips set_enabled() per
    // section, overriding ObsEnv's initial enable; a requested DLT_TRACE
    // artifact therefore holds only the "obs on" section's events.
    bench::ObsEnv obs_env;
    bench::title("E24: observability overhead",
                 "Claim: registry counters cost nanoseconds, full tracing + "
                 "lifecycle tracking stays under 3% on the signed-validation "
                 "path, and outputs are identical with observability on or off.");

    auto& registry = obs::MetricsRegistry::global();

    std::printf("Primitive micro-costs (hot loop, single thread):\n");
    {
        constexpr std::uint64_t kIncs = 50'000'000;
        auto& counter = registry.counter("e24_bench_counter", "micro-bench target");
        bench::Timer t;
        for (std::uint64_t i = 0; i < kIncs; ++i) counter.inc();
        const double ns_inc = t.elapsed_s() * 1e9 / static_cast<double>(kIncs);

        constexpr std::uint64_t kRecords = 10'000'000;
        auto& histogram =
            registry.histogram("e24_bench_histogram", "micro-bench target");
        bench::Timer th;
        for (std::uint64_t i = 0; i < kRecords; ++i)
            histogram.record(static_cast<double>(i & 0xFFFF) * 1e-6);
        const double ns_rec = t.elapsed_s() > 0
                                  ? th.elapsed_s() * 1e9 / static_cast<double>(kRecords)
                                  : 0.0;

        // Hot family lookup: the shared_mutex + string-keyed map path vs the
        // dense-index fast lane (both resolve the same 16 children, round-robin
        // like a per-node counter on the message path).
        constexpr std::uint64_t kLookups = 10'000'000;
        constexpr std::size_t kChildren = 16;
        auto& family = registry.counter_family(
            "e24_bench_family", "micro-bench target", {"node_id"});
        obs::LabelValues labels[kChildren];
        for (std::size_t i = 0; i < kChildren; ++i)
            labels[i] = {std::to_string(i)};
        bench::Timer tw;
        for (std::uint64_t i = 0; i < kLookups; ++i)
            family.with(labels[i % kChildren]).inc();
        const double ns_with = tw.elapsed_s() * 1e9 / static_cast<double>(kLookups);
        bench::Timer ti;
        for (std::uint64_t i = 0; i < kLookups; ++i)
            family.with_index(i % kChildren).inc();
        const double ns_with_index =
            ti.elapsed_s() * 1e9 / static_cast<double>(kLookups);

        bench::Table table({"operation", "iterations", "ns/op"});
        table.row({"Counter::inc", bench::fmt_int(kIncs), bench::fmt(ns_inc, 2)});
        table.row({"Histogram::record", bench::fmt_int(kRecords),
                   bench::fmt(ns_rec, 2)});
        table.row({"Family::with (map)", bench::fmt_int(kLookups),
                   bench::fmt(ns_with, 2)});
        table.row({"Family::with_index (dense)", bench::fmt_int(kLookups),
                   bench::fmt(ns_with_index, 2)});
        table.print();
        run.metric("ns_per_counter_inc", ns_inc);
        run.metric("ns_per_histogram_record", ns_rec);
        run.metric("ns_per_family_with", ns_with);
        run.metric("ns_per_family_with_index", ns_with_index);
        run.metric("family_dense_speedup",
                   ns_with_index > 0 ? ns_with / ns_with_index : 0.0);
    }

    std::printf("\nState-engine (E28) instrumentation on the lookup hot path:\n");
    {
        // The string-keyed slow lane measured above, priced on the state
        // engine's probe counter: what resolving it by name on every run
        // probe would cost. The LSM backend resolves its probe counters once,
        // at open, and pays only the inc. Then drive a small engine through
        // flushes/compactions/misses so the state_* keys are live.
        constexpr std::uint64_t kResolves = 2'000'000;
        bench::Timer tr;
        for (std::uint64_t i = 0; i < kResolves; ++i)
            registry.counter("state_run_probes_total", "Sorted-run lookups attempted")
                .inc();
        const double ns_resolve =
            tr.elapsed_s() * 1e9 / static_cast<double>(kResolves);
        registry
            .counter("state_run_probes_total", "Sorted-run lookups attempted")
            .reset();

        const auto dir =
            std::filesystem::temp_directory_path() / "dlt-bench-e24-state";
        std::filesystem::remove_all(dir);
        {
            storage::LsmOptions options;
            options.memtable_limit = 64;
            options.compact_trigger = 3;
            options.fsync = storage::FsyncMode::kNever;
            storage::LsmBackend engine(dir, options);
            Rng rng(0xE24);
            std::vector<ledger::OutPoint> keys;
            for (std::uint64_t tag = 1; tag <= 20; ++tag) {
                for (int i = 0; i < 64; ++i) {
                    ledger::OutPoint op;
                    for (std::size_t b = 0; b < Hash256::size(); ++b)
                        op.txid[b] = static_cast<std::uint8_t>(rng.uniform(256));
                    op.index = static_cast<std::uint32_t>(rng.uniform(4));
                    engine.put(op, ledger::TxOutput{100, crypto::Address{}});
                    keys.push_back(op);
                }
                engine.commit_batch(tag, ByteView{});
            }
            for (const auto& op : keys) (void)engine.get(op);    // run hits
            for (int i = 0; i < 512; ++i) {                      // bloom-filtered misses
                ledger::OutPoint op;
                for (std::size_t b = 0; b < Hash256::size(); ++b)
                    op.txid[b] = static_cast<std::uint8_t>(rng.uniform(256));
                (void)engine.get(op);
            }
        }
        std::filesystem::remove_all(dir);

        const std::uint64_t flushes =
            registry.counter("state_runs_flushed_total", "").value();
        const std::uint64_t compactions =
            registry.counter("state_compactions_total", "").value();
        const std::uint64_t probes =
            registry.counter("state_run_probes_total", "").value();
        const std::uint64_t bloom_skips =
            registry.counter("state_bloom_skips_total", "").value();
        bench::Table table({"metric", "value"});
        table.row({"counter resolve+inc (ns/op)", bench::fmt(ns_resolve, 2)});
        table.row({"state_runs_flushed_total", bench::fmt_int(flushes)});
        table.row({"state_compactions_total", bench::fmt_int(compactions)});
        table.row({"state_run_probes_total", bench::fmt_int(probes)});
        table.row({"state_bloom_skips_total", bench::fmt_int(bloom_skips)});
        table.print();
        run.metric("ns_per_state_counter_resolve", ns_resolve);
        run.metric("state_runs_flushed_total", flushes);
        run.metric("state_compactions_total", compactions);
        run.metric("state_run_probes_total", probes);
        run.metric("state_bloom_skips_total", bloom_skips);
    }

    std::printf("\nEnd-to-end overhead on the E2 signed-validation workload:\n");
    {
        std::vector<crypto::PrivateKey> signers;
        for (int i = 0; i < 16; ++i)
            signers.push_back(
                crypto::PrivateKey::from_seed("e02/signer/" + std::to_string(i)));

        // Warm-up run: populates the pubkey-decode memo and fills instruction
        // caches, so the measured pairs compare tracing cost, not cold-start.
        obs::Tracer::global().set_enabled(false);
        crypto::SigCache::global().clear();
        (void)run_signed_workload(signers);

        // Untraced (counters on, as they always are) vs full tracing, the
        // tracer buffering every block/reorg/tx event. One pair's difference
        // is within run-to-run noise, so the gate reads the median overhead
        // of five pairs whose order alternates (off first, then on first).
        auto measure = [&](bool traced) {
            crypto::SigCache::global().clear();
            obs::Tracer::global().clear();
            obs::Tracer::global().set_enabled(traced);
            const SignedRunResult r = run_signed_workload(signers);
            obs::Tracer::global().set_enabled(false);
            return r;
        };
        constexpr int kPairs = 5;
        std::vector<double> overheads, off_walls, on_walls;
        std::uint64_t trace_events = 0;
        bool identical = true;
        bench::Table table({"pair", "first", "off wall-s", "on wall-s", "overhead",
                            "height", "confirmed"});
        for (int pair = 0; pair < kPairs; ++pair) {
            const bool off_first = pair % 2 == 0;
            SignedRunResult off;
            if (off_first) off = measure(false);
            const SignedRunResult on = measure(true);
            trace_events = obs::Tracer::global().size();
            if (!off_first) off = measure(false);
            off_walls.push_back(off.wall_s);
            on_walls.push_back(on.wall_s);
            overheads.push_back(
                off.wall_s > 0 ? (on.wall_s - off.wall_s) / off.wall_s * 100.0 : 0.0);
            identical = identical && off.tip == on.tip && off.height == on.height &&
                        off.confirmed == on.confirmed;
            table.row({std::to_string(pair + 1), off_first ? "off" : "on",
                       bench::fmt(off.wall_s), bench::fmt(on.wall_s),
                       bench::fmt(overheads.back()) + "%", bench::fmt_int(on.height),
                       bench::fmt_int(on.confirmed)});
        }
        table.print();
        for (auto* v : {&overheads, &off_walls, &on_walls}) std::sort(v->begin(), v->end());
        const double overhead_pct = overheads[kPairs / 2];
        std::printf("overhead: median %+.2f%% (quartiles %+.2f%% .. %+.2f%%, %d pairs), "
                    "%" PRIu64 " trace events  outcomes identical: %s\n",
                    overhead_pct, overheads[1], overheads[3], kPairs, trace_events,
                    identical ? "yes" : "NO — determinism violation");

        run.metric("signed_wall_s_obs_off", off_walls[kPairs / 2]);
        run.metric("signed_wall_s_obs_on", on_walls[kPairs / 2]);
        run.metric("overhead_pct", overhead_pct);
        run.metric("overhead_pct_q1", overheads[1]);
        run.metric("overhead_pct_q3", overheads[3]);
        run.metric("overhead_pairs", static_cast<std::uint64_t>(kPairs));
        run.metric("outcomes_identical",
                   static_cast<std::uint64_t>(identical ? 1 : 0));
        run.metric("trace_events", trace_events);
    }

    std::printf("\nTransaction lifecycle distribution (from the traced run):\n");
    {
        // Re-run once more with a lifecycle readout: submit -> k-deep-final
        // latency quantiles through a registry histogram.
        std::vector<crypto::PrivateKey> signers;
        for (int i = 0; i < 16; ++i)
            signers.push_back(
                crypto::PrivateKey::from_seed("e02/signer/" + std::to_string(i)));
        crypto::SigCache::global().clear();

        consensus::NakamotoParams params;
        params.node_count = 8;
        params.block_interval = 30.0;
        params.validation.sig_mode = ledger::SigCheckMode::kFull;
        consensus::NakamotoNetwork net(params, 99);
        net.start();
        Rng rng(101);
        std::uint64_t sequence = 0;
        double next = rng.exponential(2.0);
        while (next < 600.0) {
            net.run_for(next - net.now());
            ledger::Transaction tx;
            tx.kind = ledger::TxKind::kRecord;
            tx.nonce = sequence;
            tx.data = Bytes(170, 0xE2);
            tx.declared_fee = 100;
            tx.sign_with(signers[sequence % signers.size()]);
            ++sequence;
            net.submit_transaction(tx, static_cast<net::NodeId>(rng.uniform(8)));
            next += rng.exponential(2.0);
        }
        net.run_for(600.0 - net.now() + 600.0); // long tail so txs go k-deep

        auto& latency = registry.histogram(
            "confirmation_latency_seconds",
            "Submit to k-deep-final latency (virtual seconds)",
            {0.1, 2.0, 24});
        net.lifecycle().record_latencies(obs::TxStage::kSubmitted,
                                         obs::TxStage::kFinal, latency);

        bench::Table table({"tracked", "finalized", "p50-s", "p90-s", "p99-s"});
        table.row({bench::fmt_int(net.lifecycle().tracked()),
                   bench::fmt_int(net.lifecycle().finalized()),
                   bench::fmt(latency.quantile(0.5), 0),
                   bench::fmt(latency.quantile(0.9), 0),
                   bench::fmt(latency.quantile(0.99), 0)});
        table.print();

        run.metric("lifecycle_tracked", net.lifecycle().tracked());
        run.metric("lifecycle_finalized", net.lifecycle().finalized());
        run.metric("final_latency_p50_s", latency.quantile(0.5));
        run.metric("final_latency_p99_s", latency.quantile(0.99));
    }

    std::printf("\nExpected shape: counter inc in single-digit nanoseconds, "
                "overhead within noise of 0%% (hard gate: < 3%%), identical "
                "outcomes, and a k-deep latency distribution centered a few "
                "block intervals past submission.\n");
    return 0;
}
