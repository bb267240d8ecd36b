// Observability layer tests: histogram bucket boundaries and quantile
// estimation, labeled-family lookup, concurrent counter hammering (run under
// TSan in CI), Chrome-trace JSON well-formedness, tx-lifecycle stage tracking
// through reorgs, the ReorgMonitor-vs-full-walk equivalence on a reorg-heavy
// chain, and the pure-observer determinism contract (identical simulation
// outcomes with observability on or off).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <sstream>

#include "app/analytics.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pbft.hpp"
#include "crypto/sha256.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/txlifecycle.hpp"

using namespace dlt;
using namespace dlt::obs;

namespace {

Hash256 make_txid(std::uint8_t tag) {
    Hash256 h{};
    h[0] = tag;
    h[31] = 0x77;
    return h;
}

// Minimal structural JSON validator: verifies balanced {}/[] nesting outside
// strings and correct escape handling inside them. Catches the classes of
// emitter bugs (trailing commas aside) a viewer would choke on; CI's jq pass
// does full grammar validation.
bool json_structure_ok(const std::string& text) {
    std::vector<char> stack;
    bool in_string = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\') {
                if (i + 1 >= text.size()) return false;
                ++i; // escaped character, don't interpret
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // raw control character inside a string
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        switch (c) {
            case '"': in_string = true; break;
            case '{': stack.push_back('}'); break;
            case '[': stack.push_back(']'); break;
            case '}':
            case ']':
                if (stack.empty() || stack.back() != c) return false;
                stack.pop_back();
                break;
            default: break;
        }
    }
    return !in_string && stack.empty();
}

} // namespace

// --- Counter / Gauge ---------------------------------------------------------

TEST(ObsCounter, IncrementValueReset) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentHammerIsExact) {
    // 8 threads x 100k relaxed increments must lose nothing (and be clean
    // under TSan, which CI runs this binary with).
    Counter c;
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 100'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
        });
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAndAdd) {
    Gauge g;
    g.set(10.5);
    g.add(-0.5);
    EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreGeometric) {
    Histogram h({/*first_bound=*/1.0, /*growth=*/2.0, /*bucket_count=*/4});
    const std::vector<double> expected{1.0, 2.0, 4.0, 8.0};
    EXPECT_EQ(h.bucket_bounds(), expected);

    // Bucket i spans (bound(i-1), bound(i)]: boundary values land in the
    // lower bucket, anything past the last bound lands in overflow.
    h.record(0.5); // bucket 0
    h.record(1.0); // bucket 0 (inclusive upper bound)
    h.record(1.5); // bucket 1
    h.record(2.0); // bucket 1
    h.record(4.1); // bucket 3
    h.record(8.0); // bucket 3
    h.record(9.0); // overflow
    const std::vector<std::uint64_t> counts{2, 2, 0, 2, 1};
    EXPECT_EQ(h.bucket_counts(), counts);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.1 + 8.0 + 9.0);
}

TEST(ObsHistogram, QuantilesInterpolateWithinBuckets) {
    Histogram h({1.0, 2.0, 10});
    for (int i = 0; i < 100; ++i) h.record(3.0); // all in bucket (2, 4]
    const double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 2.0);
    EXPECT_LE(p50, 4.0);
    // Quantiles are monotone in q.
    EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
    EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

TEST(ObsHistogram, QuantileEdgeCases) {
    Histogram empty({1.0, 2.0, 4});
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

    // Overflow-bucket samples report the last finite bound rather than
    // extrapolating past what the layout can resolve.
    Histogram h({1.0, 2.0, 4}); // last bound 8
    for (int i = 0; i < 10; ++i) h.record(1e6);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 8.0);
}

TEST(ObsHistogram, ResetClearsEverything) {
    Histogram h({1.0, 2.0, 4});
    h.record(1.0);
    h.record(100.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    for (const auto c : h.bucket_counts()) EXPECT_EQ(c, 0u);
}

TEST(ObsScopedTimer, RecordsOneSampleOnDestruction) {
    Histogram h;
    { ScopedTimer t(h); }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.sum(), 0.0);
}

// --- Families ----------------------------------------------------------------

TEST(ObsFamily, LookupReturnsStableChildren) {
    CounterFamily family("msgs_total", "by kind", {"kind"});
    Counter& sent = family.with({"sent"});
    Counter& lost = family.with({"lost"});
    EXPECT_NE(&sent, &lost);
    sent.inc(3);
    // Same labels -> same child, values preserved.
    EXPECT_EQ(&family.with({"sent"}), &sent);
    EXPECT_EQ(family.with({"sent"}).value(), 3u);
    EXPECT_EQ(family.size(), 2u);
}

TEST(ObsFamily, VisitIsSortedByLabelValues) {
    CounterFamily family("f", "", {"k"});
    family.with({"zebra"});
    family.with({"apple"});
    family.with({"mango"});
    std::vector<std::string> seen;
    family.visit([&](const LabelValues& values, const Counter&) {
        seen.push_back(values[0]);
    });
    const std::vector<std::string> expected{"apple", "mango", "zebra"};
    EXPECT_EQ(seen, expected);
}

TEST(ObsFamily, ConcurrentWithIsSafe) {
    CounterFamily family("f", "", {"i"});
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&family, t] {
            for (int i = 0; i < 1000; ++i)
                family.with({std::to_string(i % 17)}).inc();
            (void)t;
        });
    for (auto& t : threads) t.join();
    std::uint64_t total = 0;
    family.visit([&](const LabelValues&, const Counter& c) { total += c.value(); });
    EXPECT_EQ(total, 8u * 1000u);
    EXPECT_EQ(family.size(), 17u);
}

TEST(ObsFamily, WithIndexSharesChildrenWithWith) {
    CounterFamily family("node_msgs_total", "by node", {"node"});
    Counter& dense = family.with_index(5);
    dense.inc(4);
    // Both lanes resolve to the same child, in either lookup order.
    EXPECT_EQ(&family.with({"5"}), &dense);
    EXPECT_EQ(&family.with_index(5), &dense);
    Counter& sparse_first = family.with({"12"});
    sparse_first.inc();
    EXPECT_EQ(&family.with_index(12), &sparse_first);
    // Exporters see exactly one child per index, not a dense/sparse pair.
    EXPECT_EQ(family.size(), 2u);
    EXPECT_EQ(family.with_index(5).value(), 4u);
}

TEST(ObsFamily, WithIndexRequiresSingleLabel) {
    CounterFamily two("pair_total", "", {"a", "b"});
    EXPECT_THROW(two.with_index(0), std::logic_error);
    CounterFamily zero("bare_total", "", {});
    EXPECT_THROW(zero.with_index(0), std::logic_error);
}

TEST(ObsFamily, WithIndexGrowsPastInitialSlab) {
    CounterFamily family("shard_total", "", {"shard"});
    // First touch far beyond the 64-slot initial slab, then everything below
    // it: earlier slots must survive the RCU-style slab growth.
    family.with_index(1000).inc(9);
    for (std::size_t i = 0; i < 200; ++i) family.with_index(i).inc();
    EXPECT_EQ(family.with_index(1000).value(), 9u);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_EQ(family.with({std::to_string(i)}).value(), 1u) << i;
    EXPECT_EQ(family.size(), 201u);
}

TEST(ObsFamily, ConcurrentWithIndexIsSafe) {
    CounterFamily family("f", "", {"i"});
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&family] {
            // Mix both lanes and force slab growth mid-flight.
            for (int i = 0; i < 1000; ++i) {
                family.with_index(static_cast<std::size_t>(i % 17)).inc();
                if (i % 100 == 0) family.with_index(64 + static_cast<std::size_t>(i)).inc();
            }
        });
    for (auto& t : threads) t.join();
    std::uint64_t dense_total = 0;
    for (std::size_t i = 0; i < 17; ++i) dense_total += family.with_index(i).value();
    EXPECT_EQ(dense_total, 8u * 1000u);
}

// --- Registry ----------------------------------------------------------------

TEST(ObsRegistry, SameNameReturnsSameMetric) {
    MetricsRegistry reg;
    Counter& a = reg.counter("x_total", "help");
    Counter& b = reg.counter("x_total");
    EXPECT_EQ(&a, &b);
}

TEST(ObsRegistry, KindMismatchThrows) {
    MetricsRegistry reg;
    reg.counter("x_total");
    EXPECT_THROW(reg.gauge("x_total"), std::logic_error);
    EXPECT_THROW(reg.histogram("x_total"), std::logic_error);
    EXPECT_THROW(reg.counter_family("x_total", "", {"k"}), std::logic_error);
}

TEST(ObsRegistry, ResetZeroesButKeepsNames) {
    MetricsRegistry reg;
    reg.counter("a_total").inc(7);
    reg.gauge("b").set(3.5);
    reg.histogram("c_seconds").record(0.1);
    reg.counter_family("d_total", "", {"k"}).with({"x"}).inc(2);
    reg.reset();
    EXPECT_EQ(reg.counter("a_total").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("b").value(), 0.0);
    EXPECT_EQ(reg.histogram("c_seconds").count(), 0u);
    EXPECT_EQ(reg.counter_family("d_total", "", {"k"}).with({"x"}).value(), 0u);
}

TEST(ObsRegistry, ExportsAreDeterministicAndWellFormed) {
    MetricsRegistry reg;
    reg.counter("zz_total", "last").inc(5);
    reg.counter("aa_total", "first").inc(1);
    reg.histogram("lat_seconds", "latency").record(0.25);
    reg.counter_family("labeled_total", "by \"kind\"", {"kind"})
        .with({"needs\\escaping\n"})
        .inc(9);

    const std::string text = reg.prometheus_text();
    // Sorted by name: aa before labeled before lat before zz.
    EXPECT_LT(text.find("aa_total"), text.find("labeled_total"));
    EXPECT_LT(text.find("labeled_total"), text.find("lat_seconds"));
    EXPECT_LT(text.find("lat_seconds"), text.find("zz_total"));
    EXPECT_NE(text.find("# HELP aa_total first"), std::string::npos);

    const std::string json = reg.json_snapshot();
    EXPECT_TRUE(json_structure_ok(json)) << json;
    // Two snapshots of unchanged state are byte-identical.
    EXPECT_EQ(json, reg.json_snapshot());
    EXPECT_EQ(text, reg.prometheus_text());
}

TEST(ObsRegistry, ExportersNeverMeetAnEntryWithoutItsMetric) {
    // Two threads register fresh names while a third runs the three
    // exporters: a name must never be visible to one before its metric exists.
    for (int round = 0; round < 40; ++round) {
        MetricsRegistry reg;
        std::atomic<int> writers_done{0};
        const auto writer = [&](const std::string& prefix) {
            for (int i = 0; i < 300; ++i) {
                const std::string name = prefix + std::to_string(i);
                if (i % 2 == 0)
                    reg.counter(name + "_total").inc();
                else
                    reg.histogram(name + "_seconds").record(0.5);
            }
            ++writers_done;
        };
        std::thread a(writer, "a"), b(writer, "b");
        while (writers_done < 2) {
            EXPECT_TRUE(json_structure_ok(reg.json_snapshot()));
            reg.prometheus_text();
            reg.reset();
            std::this_thread::yield(); // let the writers take the lock
        }
        a.join();
        b.join();
        EXPECT_NE(reg.prometheus_text().find("b299_seconds_count"), std::string::npos);
    }
}

// --- JSON writer -------------------------------------------------------------

TEST(ObsJsonWriter, EscapesAndOverwritesInPlace) {
    JsonObjectWriter w;
    w.field_string("id", "E\"9\\9\n");
    w.field_number("v", 1.5);
    w.field_number("v", 2.5); // overwrite keeps position
    w.field_uint("n", 7);
    const std::string out = w.str();
    EXPECT_TRUE(json_structure_ok(out)) << out;
    EXPECT_NE(out.find("\"E\\\"9\\\\9\\n\""), std::string::npos);
    EXPECT_LT(out.find("\"v\""), out.find("\"n\""));
    EXPECT_NE(out.find("2.5"), std::string::npos);
    EXPECT_EQ(out.find("1.5"), std::string::npos);
}

TEST(ObsJsonWriter, NonFiniteNumbersBecomeZero) {
    EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
    EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
    EXPECT_EQ(json_number(0.5), "0.5");
}

// --- Tracer ------------------------------------------------------------------

TEST(ObsTracer, DisabledEmitsNothing) {
    Tracer tracer;
    tracer.instant("e", "cat", 1.0, 0);
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(ObsTracer, BoundedBufferCountsDrops) {
    Tracer tracer(/*capacity=*/3);
    tracer.set_enabled(true);
    for (int i = 0; i < 5; ++i) tracer.instant("e", "cat", i, 0);
    EXPECT_EQ(tracer.size(), 3u);
    EXPECT_EQ(tracer.dropped(), 2u);
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, ChromeTraceJsonIsWellFormed) {
    Tracer tracer;
    tracer.set_enabled(true);
    tracer.instant("block.mined", "consensus", 12.5, 3,
                   {{"height", trace_arg(std::uint64_t{42})},
                    {"note", trace_arg(std::string("quotes \" and \\ and \n"))}});
    tracer.complete("validate", "ledger", 1.0, 0.25, 1,
                    {{"txs", trace_arg(7.0)}});
    tracer.counter("mempool", 2.0, 31.0);

    const std::string json = tracer.chrome_trace_json();
    EXPECT_TRUE(json_structure_ok(json)) << json;
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0), 0u);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    // Virtual seconds become microseconds ("%.6g" formatting).
    EXPECT_NE(json.find("\"ts\": 1.25e+07"), std::string::npos);

    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].tid, 3u);
    EXPECT_DOUBLE_EQ(events[1].dur_us, 0.25 * 1e6);
}

// --- Streaming mode ----------------------------------------------------------

TEST(ObsTracerStreaming, ChunksMatchBufferedOutputByteForByte) {
    const std::string path = testing::TempDir() + "obs_stream_test.json";

    // Stream through a tracer whose buffer capacity is smaller than the event
    // count: streaming suspends the cap, so nothing may drop.
    Tracer streamer(/*capacity=*/3);
    ASSERT_TRUE(streamer.open_stream(path, /*chunk_events=*/2));
    EXPECT_TRUE(streamer.streaming());
    EXPECT_FALSE(streamer.open_stream(path)); // one stream at a time
    streamer.set_enabled(true);

    Tracer buffered;
    buffered.set_enabled(true);
    for (int i = 0; i < 7; ++i) {
        streamer.instant("e", "cat", i, static_cast<std::uint32_t>(i),
                         {{"i", trace_arg(static_cast<std::uint64_t>(i))}});
        buffered.instant("e", "cat", i, static_cast<std::uint32_t>(i),
                         {{"i", trace_arg(static_cast<std::uint64_t>(i))}});
    }

    EXPECT_EQ(streamer.emitted(), 7u);
    EXPECT_EQ(streamer.dropped(), 0u);  // cap suspended while streaming
    EXPECT_LE(streamer.size(), 2u);     // memory bounded by the chunk size
    ASSERT_TRUE(streamer.close_stream());
    EXPECT_FALSE(streamer.streaming());
    EXPECT_TRUE(streamer.close_stream()); // idempotent

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream contents;
    contents << in.rdbuf();
    EXPECT_TRUE(json_structure_ok(contents.str())) << contents.str();
    // The incremental writer and the one-shot serializer are the same code
    // path; the artifacts must be byte-identical.
    EXPECT_EQ(contents.str(), buffered.chrome_trace_json());

    // With the stream closed the bounded-buffer contract is back in force.
    streamer.clear();
    for (int i = 0; i < 5; ++i) streamer.instant("e", "cat", i, 0);
    EXPECT_EQ(streamer.size(), 3u);
    EXPECT_EQ(streamer.dropped(), 2u);
    std::remove(path.c_str());
}

// --- Tx lifecycle ------------------------------------------------------------

TEST(ObsTxLifecycle, StagesProgressToFinality) {
    TxLifecycleTracker tracker(/*finality_depth=*/2);
    const Hash256 tx = make_txid(1);
    tracker.on_submitted(tx, 1.0, /*origin=*/0);
    tracker.on_first_seen(tx, /*node=*/3, 1.5);
    tracker.on_mempool_accepted(tx, 3, 1.6);
    tracker.on_block_connected(/*height=*/5, {tx}, 10.0);
    tracker.on_tip_height(5, 10.0); // 1 confirmation: not final yet
    EXPECT_EQ(tracker.finalized(), 0u);
    tracker.on_tip_height(6, 20.0); // 2 confirmations: final
    EXPECT_EQ(tracker.finalized(), 1u);

    const TxRecord* rec = tracker.find(tx);
    ASSERT_NE(rec, nullptr);
    EXPECT_DOUBLE_EQ(*rec->submitted, 1.0);
    EXPECT_DOUBLE_EQ(*rec->first_seen, 1.5);
    EXPECT_DOUBLE_EQ(*rec->mempool, 1.6);
    EXPECT_DOUBLE_EQ(*rec->included, 10.0);
    EXPECT_DOUBLE_EQ(*rec->final_at, 20.0);

    const auto lat = tracker.latencies(TxStage::kSubmitted, TxStage::kFinal);
    ASSERT_EQ(lat.size(), 1u);
    EXPECT_DOUBLE_EQ(lat[0], 19.0);
}

TEST(ObsTxLifecycle, UntrackedAndRepeatedStampsAreIgnored) {
    TxLifecycleTracker tracker(2);
    const Hash256 tx = make_txid(2);
    tracker.on_first_seen(tx, 1, 5.0); // before submit: not tracked
    EXPECT_EQ(tracker.tracked(), 0u);
    tracker.on_submitted(tx, 1.0);
    tracker.on_first_seen(tx, 1, 2.0);
    tracker.on_first_seen(tx, 2, 3.0); // later sighting doesn't overwrite
    EXPECT_DOUBLE_EQ(*tracker.find(tx)->first_seen, 2.0);
}

TEST(ObsTxLifecycle, ReorgRevokesInclusionButNeverFinality) {
    TxLifecycleTracker tracker(/*finality_depth=*/3);
    const Hash256 tx = make_txid(3);
    tracker.on_submitted(tx, 0.0);
    tracker.on_block_connected(4, {tx}, 10.0);
    tracker.on_block_disconnected(4, {tx}); // reorg before finality
    EXPECT_FALSE(tracker.find(tx)->included.has_value());
    tracker.on_tip_height(10, 11.0); // deep tip, but tx not included anymore
    EXPECT_EQ(tracker.finalized(), 0u);

    tracker.on_block_connected(6, {tx}, 12.0); // re-included on the new branch
    tracker.on_tip_height(8, 13.0);            // 3 confirmations at height 8
    EXPECT_EQ(tracker.finalized(), 1u);

    // Finality is never revoked, even if the block disconnects afterwards.
    tracker.on_block_disconnected(6, {tx});
    EXPECT_TRUE(tracker.find(tx)->final_at.has_value());
    EXPECT_TRUE(tracker.find(tx)->included.has_value());
}

// --- ReorgMonitor vs full-walk oracle ---------------------------------------

TEST(ObsReorgMonitor, MatchesFullWalkOnReorgHeavyChain) {
    // E1-shaped run tuned for contention: a short block interval relative to
    // gossip latency makes forks and multi-block reorgs common. The
    // incremental monitor (fed only insert/reorg events from peer 0) must
    // report the exact branch statistics of a full DAG walk.
    consensus::NakamotoParams params;
    params.node_count = 8;
    params.block_interval = 1.0;    // seconds, on par with link latency...
    params.link.latency_mean = 0.8; // ...so peers mine on stale tips routinely
    params.link.latency_jitter = 0.5;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    consensus::NakamotoNetwork net(params, /*seed=*/424242);

    app::ReorgMonitor monitor(net.chain_of(0).genesis_hash());
    net.events().on_block_inserted = [&](const ledger::Block& b, SimTime at) {
        monitor.on_block_inserted(b, at);
    };
    net.events().on_reorg = [&](const std::vector<Hash256>& disconnected,
                                const std::vector<Hash256>& connected,
                                SimTime at) {
        monitor.on_reorg(disconnected, connected, at);
    };
    net.start();
    net.run_for(1200.0);
    net.run_for(30.0); // settle in-flight gossip

    const app::BranchStats walked =
        app::branch_stats_full_walk(net.chain_of(0), net.tip_of(0));
    const app::BranchStats incremental = monitor.branch_stats();
    EXPECT_EQ(incremental, walked);

    // The run must actually have exercised reorgs, or this test proves nothing.
    EXPECT_GT(monitor.reorg_count(), 10u);
    EXPECT_GT(walked.stale_blocks, 0u);
    EXPECT_GE(monitor.max_reorg_depth(), 2u);
    EXPECT_EQ(monitor.blocks_disconnected(),
              [&] {
                  std::uint64_t sum = 0;
                  for (const auto& [depth, n] : monitor.reorg_depths())
                      sum += depth * n;
                  return sum;
              }());
}

// --- Determinism contract ----------------------------------------------------

// --- PBFT request lifecycle ---------------------------------------------------

TEST(ObsPbftLifecycle, RequestsProgressSubmitToExecute) {
    consensus::PbftConfig config;
    config.f = 1; // n = 4
    config.batch_size = 4;
    consensus::PbftCluster cluster(config, /*seed=*/4242);

    std::vector<Bytes> requests;
    for (int i = 0; i < 6; ++i)
        requests.push_back(to_bytes("pbft-req-" + std::to_string(i)));
    for (const Bytes& req : requests) cluster.submit(req);
    cluster.run_for(30.0);

    ASSERT_EQ(cluster.executed_requests(0), requests.size());
    const auto& lifecycle = cluster.lifecycle();
    EXPECT_EQ(lifecycle.tracked(), requests.size());
    EXPECT_EQ(lifecycle.finalized(), requests.size());

    for (const Bytes& req : requests) {
        const auto* rec =
            lifecycle.find(crypto::tagged_hash("dlt/pbft-req", req));
        ASSERT_NE(rec, nullptr);
        // submit → pre-prepare (first seen) → commit (included at the batch
        // sequence) → execute (final); the mempool stage has no PBFT analogue.
        ASSERT_TRUE(rec->submitted.has_value());
        ASSERT_TRUE(rec->first_seen.has_value());
        ASSERT_TRUE(rec->included.has_value());
        ASSERT_TRUE(rec->final_at.has_value());
        EXPECT_FALSE(rec->mempool.has_value());
        EXPECT_LE(*rec->submitted, *rec->first_seen);
        EXPECT_LE(*rec->first_seen, *rec->included);
        EXPECT_LE(*rec->included, *rec->final_at);
        EXPECT_GE(rec->inclusion_height, 1u); // PBFT sequence number
    }

    // Execution happens at or after commit, so every submit→final latency is
    // bounded below by that request's submit→included (commit) latency.
    const auto submit_to_final =
        lifecycle.latencies(TxStage::kSubmitted, TxStage::kFinal);
    const auto submit_to_commit =
        lifecycle.latencies(TxStage::kSubmitted, TxStage::kIncluded);
    ASSERT_EQ(submit_to_final.size(), requests.size());
    ASSERT_EQ(submit_to_commit.size(), requests.size());
    for (std::size_t i = 0; i < submit_to_final.size(); ++i) {
        EXPECT_GT(submit_to_final[i], 0.0);
        EXPECT_GE(submit_to_final[i], submit_to_commit[i]);
    }
    EXPECT_TRUE(cluster.mean_commit_latency().has_value());
}

TEST(ObsDeterminism, IdenticalOutcomesWithTracingOnAndOff) {
    // Metrics and traces are pure observers: the same seeded run must reach a
    // byte-identical tip whether the global tracer is recording or not.
    auto run_once = [] {
        consensus::NakamotoParams params;
        params.node_count = 6;
        params.block_interval = 10.0;
        params.validation.sig_mode = ledger::SigCheckMode::kSkip;
        consensus::NakamotoNetwork net(params, /*seed=*/777);
        net.start();
        net.run_for(600.0);
        return std::pair{net.tip_of(0), net.height_of(0)};
    };

    Tracer& tracer = Tracer::global();
    tracer.set_enabled(false);
    const auto off = run_once();
    tracer.clear();
    tracer.set_enabled(true);
    const auto on = run_once();
    tracer.set_enabled(false);

    EXPECT_EQ(off.first, on.first);
    EXPECT_EQ(off.second, on.second);
    EXPECT_GT(tracer.size(), 0u); // tracing actually happened in the "on" run
    tracer.clear();
}
