// Tests for the parallel validation engine: the thread pool, parallel_for,
// the CheckQueue (protocol edge cases, failure positions, re-entrancy,
// teardown mid-batch), the striped sigcache under concurrent load, and — most
// importantly — serial/parallel equivalence: every observable outcome
// (validation verdicts, Merkle/MPT/IAVL roots, virtual-time simulation
// results) must be bit-identical at any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checkqueue.hpp"
#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/ordering.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sigcache.hpp"
#include "datastruct/iavl.hpp"
#include "datastruct/merkle.hpp"
#include "datastruct/mpt.hpp"
#include "ledger/block.hpp"
#include "ledger/validation.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace dlt;

/// RAII guard: set the global pool's worker count for one test, restore serial
/// afterwards so tests are independent of execution order.
struct GlobalWorkers {
    explicit GlobalWorkers(std::size_t workers) {
        ThreadPool::set_global_workers(workers);
    }
    ~GlobalWorkers() { ThreadPool::set_global_workers(0); }
};

// --- ThreadPool ----------------------------------------------------------------------

TEST(ThreadPool, ZeroWorkersRunsInline) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.worker_count(), 0u);
    bool ran = false;
    pool.submit([&] { ran = true; });
    EXPECT_TRUE(ran); // inline: completed before submit returned
}

TEST(ThreadPool, WorkersDrainTheQueue) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.worker_count(), 3u);
    std::atomic<int> count{0};
    std::promise<void> done;
    const int kTasks = 64;
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&] {
            if (count.fetch_add(1) + 1 == kTasks) done.set_value();
        });
    done.get_future().wait();
    EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, OnWorkerThreadFlag) {
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    ThreadPool pool(1);
    std::promise<bool> seen;
    pool.submit([&] { seen.set_value(ThreadPool::on_worker_thread()); });
    EXPECT_TRUE(seen.get_future().get());
    EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, SetGlobalWorkersRoundTrip) {
    GlobalWorkers guard(2);
    EXPECT_EQ(ThreadPool::global_workers(), 2u);
    EXPECT_EQ(ThreadPool::global().worker_count(), 2u);
    ThreadPool::set_global_workers(0);
    EXPECT_EQ(ThreadPool::global_workers(), 0u);
}

// --- parallel_for --------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
        ThreadPool pool(workers);
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        parallel_for(pool, 0, n, [&](std::size_t i) { ++hits[i]; }, /*grain=*/7);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
    ThreadPool pool(2);
    int calls = 0;
    parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesTheFirstException) {
    ThreadPool pool(2);
    EXPECT_THROW(
        parallel_for(pool, 0, 100,
                     [](std::size_t i) {
                         if (i == 42) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallFromWorkerDegradesToSerialWithoutDeadlock) {
    // A parallel_for issued from inside a pool worker must not submit helper
    // tasks (they would queue behind the very task that is waiting on them).
    // With one worker this deadlocks unless the nested call degrades to a
    // serial loop — so the test passing at all is the property under test.
    ThreadPool pool(1);
    std::atomic<int> inner{0};
    std::promise<void> done;
    pool.submit([&] {
        parallel_for(pool, 0, 100, [&](std::size_t) { ++inner; });
        done.set_value();
    });
    ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "nested parallel_for deadlocked";
    EXPECT_EQ(inner.load(), 100);
}

// --- CheckQueue ----------------------------------------------------------------------

using FnCheck = std::function<bool()>;

TEST(CheckQueue, EmptyBatchIsVacuouslyTrue) {
    ThreadPool pool(2);
    CheckQueue<FnCheck> queue(pool);
    EXPECT_TRUE(queue.complete()); // nothing added at all
    queue.add({});                 // explicitly empty batch
    EXPECT_TRUE(queue.complete());
}

TEST(CheckQueue, BatchSmallerThanWorkerCount) {
    ThreadPool pool(8);
    CheckQueue<FnCheck> queue(pool, /*grain=*/1);
    std::atomic<int> ran{0};
    std::vector<FnCheck> checks;
    for (int i = 0; i < 3; ++i)
        checks.push_back([&ran] {
            ++ran;
            return true;
        });
    queue.add(std::move(checks));
    EXPECT_TRUE(queue.complete());
    EXPECT_EQ(ran.load(), 3);
}

TEST(CheckQueue, AllPassingChecksRunExactlyOnce) {
    ThreadPool pool(3);
    CheckQueue<FnCheck> queue(pool, /*grain=*/8);
    const std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    std::vector<FnCheck> checks;
    for (std::size_t i = 0; i < n; ++i)
        checks.push_back([&hits, i] {
            ++hits[i];
            return true;
        });
    queue.add(std::move(checks));
    EXPECT_TRUE(queue.complete());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(CheckQueue, FailingCheckAtEveryPositionFailsTheBatch) {
    ThreadPool pool(2);
    CheckQueue<FnCheck> queue(pool, /*grain=*/3);
    const std::size_t n = 24;
    for (std::size_t fail_at = 0; fail_at < n; ++fail_at) {
        std::vector<FnCheck> checks;
        for (std::size_t i = 0; i < n; ++i)
            checks.push_back([i, fail_at] { return i != fail_at; });
        queue.add(std::move(checks));
        EXPECT_FALSE(queue.complete()) << "failure at position " << fail_at;
    }
    // The queue resets after each complete(): a clean batch still passes.
    queue.add({FnCheck{[] { return true; }}});
    EXPECT_TRUE(queue.complete());
}

TEST(CheckQueue, ThrowingCheckCountsAsFailed) {
    ThreadPool pool(2);
    CheckQueue<FnCheck> queue(pool);
    std::vector<FnCheck> checks;
    for (int i = 0; i < 8; ++i) checks.push_back([] { return true; });
    checks.push_back([]() -> bool { throw std::runtime_error("escaped"); });
    queue.add(std::move(checks));
    EXPECT_FALSE(queue.complete());
}

TEST(CheckQueue, ReentrantUseFromACheckIsRejected) {
    ThreadPool pool(2);
    CheckQueue<FnCheck> queue(pool);
    std::atomic<int> add_rejected{0};
    std::atomic<int> complete_rejected{0};
    std::vector<FnCheck> checks;
    checks.push_back([&] {
        try {
            queue.add({FnCheck{[] { return true; }}});
        } catch (const std::logic_error&) {
            ++add_rejected;
        }
        return true;
    });
    checks.push_back([&] {
        try {
            (void)queue.complete();
        } catch (const std::logic_error&) {
            ++complete_rejected;
        }
        return true;
    });
    queue.add(std::move(checks));
    EXPECT_TRUE(queue.complete()); // rejections were caught inside the checks
    EXPECT_EQ(add_rejected.load(), 1);
    EXPECT_EQ(complete_rejected.load(), 1);
}

TEST(CheckQueue, TeardownMidBatchIsSafe) {
    // Destroy the queue while a batch is in flight and never call complete():
    // the destructor must drain or skip the remaining checks without touching
    // freed memory (the checks capture a counter that outlives the queue).
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        CheckQueue<FnCheck> queue(pool, /*grain=*/2);
        std::vector<FnCheck> checks;
        for (int i = 0; i < 64; ++i)
            checks.push_back([&ran] {
                ++ran;
                return true;
            });
        queue.add(std::move(checks));
        // No complete(): ~CheckQueue then ~ThreadPool run while helpers may
        // still be mid-chunk.
    }
    EXPECT_LE(ran.load(), 64);
}

// --- SigCache under concurrency ------------------------------------------------------

TEST(SigCacheParallel, ConcurrentHammerStaysConsistent) {
    crypto::SigCache cache(256);
    const int kThreads = 4;
    const int kOps = 4000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, t] {
            for (int i = 0; i < kOps; ++i) {
                const Hash256 key =
                    crypto::sha256(to_bytes("hammer-" + std::to_string(t) + "-" +
                                            std::to_string(i % 300)));
                if (const auto hit = cache.lookup(key)) {
                    // Outcomes are keyed deterministically: a hit must agree.
                    EXPECT_EQ(*hit, (i % 300) % 2 == 0);
                } else {
                    cache.insert(key, (i % 300) % 2 == 0);
                }
            }
        });
    for (auto& th : threads) th.join();

    EXPECT_LE(cache.size(), cache.capacity());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kThreads) * kOps);
    EXPECT_GT(stats.insertions, 0u);
}

// --- Serial/parallel validation equivalence ------------------------------------------

ledger::Block signed_block(std::size_t tx_count) {
    static const std::vector<crypto::PrivateKey> signers = [] {
        std::vector<crypto::PrivateKey> keys;
        for (int i = 0; i < 4; ++i)
            keys.push_back(
                crypto::PrivateKey::from_seed("par/signer/" + std::to_string(i)));
        return keys;
    }();
    ledger::Block block;
    block.txs.push_back(ledger::make_coinbase(crypto::Address{}, 50, 1));
    for (std::size_t i = 0; i < tx_count; ++i) {
        ledger::Transaction tx;
        tx.kind = ledger::TxKind::kRecord;
        tx.nonce = i;
        tx.data = Bytes(32, static_cast<std::uint8_t>(i));
        tx.sign_with(signers[i % signers.size()]);
        block.txs.push_back(std::move(tx));
    }
    block.header.height = 1;
    block.header.merkle_root = block.compute_merkle_root();
    return block;
}

TEST(ParallelValidation, BlockVerdictMatchesSerial) {
    const ledger::Block good = signed_block(24);
    ledger::Block bad = signed_block(24);
    bad.txs[7].account_signature[10] ^= 0x01;
    bad.txs[7].invalidate_txid_cache();
    bad.header.merkle_root = bad.compute_merkle_root();

    const ledger::ValidationRules rules; // kFull
    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
        GlobalWorkers guard(workers);
        crypto::SigCache::global().clear();
        EXPECT_NO_THROW(ledger::check_block_structure(good, rules))
            << "workers " << workers;
        crypto::SigCache::global().clear();
        EXPECT_THROW(ledger::check_block_structure(bad, rules), ValidationError)
            << "workers " << workers;
    }
}

TEST(ParallelValidation, MultiInputTransactionMatchesSerial) {
    const auto key = crypto::PrivateKey::from_seed("par/multi-input");
    ledger::Transaction tx;
    tx.kind = ledger::TxKind::kTransfer;
    for (std::uint32_t i = 0; i < 8; ++i) {
        ledger::TxInput in;
        in.prevout.txid = crypto::sha256(to_bytes("prev-" + std::to_string(i)));
        in.prevout.index = i;
        tx.inputs.push_back(std::move(in));
    }
    tx.outputs.push_back(ledger::TxOutput{100, key.address()});
    tx.sign_with(key);

    ledger::Transaction tampered = tx;
    tampered.inputs[5].signature[0] ^= 0x01;
    tampered.invalidate_txid_cache();

    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
        GlobalWorkers guard(workers);
        crypto::SigCache::global().clear();
        EXPECT_TRUE(tx.verify_signatures()) << "workers " << workers;
        crypto::SigCache::global().clear();
        EXPECT_FALSE(tampered.verify_signatures()) << "workers " << workers;
    }
}

TEST(ParallelValidation, VerifyBatchSignatures) {
    GlobalWorkers guard(3);
    const ledger::Block block = signed_block(12);

    crypto::SigCache::global().clear();
    EXPECT_TRUE(ledger::verify_batch_signatures(block.txs));
    EXPECT_TRUE(ledger::verify_batch_signatures({})); // vacuous

    std::vector<ledger::Transaction> one_bad = block.txs;
    one_bad[3].account_signature[0] ^= 0x01;
    one_bad[3].invalidate_txid_cache();
    crypto::SigCache::global().clear();
    EXPECT_FALSE(ledger::verify_batch_signatures(one_bad));

    // A structurally unsigned transaction fails without throwing.
    ledger::Transaction unsigned_tx;
    unsigned_tx.kind = ledger::TxKind::kRecord;
    EXPECT_FALSE(ledger::verify_batch_signatures({unsigned_tx}));
}

// --- Ordering with signature verification --------------------------------------------

TEST(OrderingVerify, RejectsBadBatchesAndKeepsSequencing) {
    GlobalWorkers guard(3);
    crypto::SigCache::global().clear();
    const auto key = crypto::PrivateKey::from_seed("ordering/signer");

    const auto signed_record = [&key](std::uint64_t i) {
        ledger::Transaction tx;
        tx.kind = ledger::TxKind::kRecord;
        tx.nonce = i;
        tx.data = to_bytes("payload-" + std::to_string(i));
        tx.sign_with(key);
        return tx;
    };

    consensus::OrderingParams params;
    params.peer_count = 3;
    params.batch_size = 4;
    params.verify_signatures = true;
    consensus::OrderingService svc(params, 11);

    // Two good batches, one batch with a tampered signature, one more good.
    for (std::uint64_t i = 0; i < 8; ++i) svc.submit(signed_record(i));
    for (std::uint64_t i = 8; i < 12; ++i) {
        auto tx = signed_record(i);
        if (i == 9) {
            tx.account_signature[4] ^= 0x01;
            tx.invalidate_txid_cache();
        }
        svc.submit(tx);
    }
    for (std::uint64_t i = 12; i < 16; ++i) svc.submit(signed_record(i));
    svc.run_for(10.0);

    EXPECT_EQ(svc.rejected_batches(), 1u);
    EXPECT_TRUE(svc.ledgers_identical());
    const auto& ledger = svc.ledger_of(0);
    ASSERT_EQ(ledger.size(), 3u); // sequences 1, 2, 4 — 3 was discarded
    EXPECT_EQ(ledger[0].sequence, 1u);
    EXPECT_EQ(ledger[1].sequence, 2u);
    EXPECT_EQ(ledger[2].sequence, 4u);
}

// --- Virtual-time determinism across worker counts -----------------------------------

struct SimFingerprint {
    Hash256 tip;
    std::uint64_t height = 0;
    std::uint64_t mined = 0;
    std::uint64_t reorgs = 0;
    std::uint64_t events = 0;

    friend bool operator==(const SimFingerprint&, const SimFingerprint&) = default;
};

SimFingerprint run_nakamoto(std::size_t workers) {
    GlobalWorkers guard(workers);
    consensus::NakamotoParams params;
    params.node_count = 6;
    params.block_interval = 15.0;
    params.validation.sig_mode = ledger::SigCheckMode::kFull;
    consensus::NakamotoNetwork net(params, 2026);
    net.start();

    // Signed transactions so full ECDSA validation (the code path that fans
    // out to the pool) runs inside the simulation.
    const auto key = crypto::PrivateKey::from_seed("determinism/signer");
    for (std::uint64_t i = 0; i < 30; ++i) {
        net.run_for(15.0);
        ledger::Transaction tx;
        tx.kind = ledger::TxKind::kRecord;
        tx.nonce = i;
        tx.data = Bytes(40, static_cast<std::uint8_t>(i));
        tx.declared_fee = 10;
        tx.sign_with(key);
        net.submit_transaction(tx, static_cast<net::NodeId>(i % params.node_count));
    }
    net.run_for(120.0);
    return SimFingerprint{net.tip_of(0), net.height_of(0), net.stats().blocks_mined,
                          net.stats().reorgs, net.scheduler().events_processed()};
}

TEST(Determinism, NakamotoRunIsIdenticalAtAnyWorkerCount) {
    // The discrete-event scheduler is single-threaded by design; only
    // host-side crypto fans out. Every simulation observable — tip hash,
    // height, mining/reorg counters, even the number of scheduler events —
    // must match bit-for-bit between a serial and a parallel run.
    const SimFingerprint serial = run_nakamoto(0);
    const SimFingerprint parallel = run_nakamoto(3);
    EXPECT_EQ(serial, parallel);
    EXPECT_GT(serial.height, 0u);
}

// --- Whole networks on the pool ----------------------------------------------------

/// One network's traffic under every kind of fault the tallies count: global
/// loss and duplication, a partition that heals, and a crash that recovers.
net::TrafficStats run_faulty_network(std::uint64_t seed) {
    consensus::NakamotoParams params;
    params.node_count = 8;
    params.block_interval = 5.0;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    consensus::NakamotoNetwork net(params, seed);
    net.network().set_global_faults({.loss = 0.1, .duplicate = 0.05});
    net::FaultPlan plan;
    plan.cut(20.0, "split", {{0, 1, 2}, {3, 4, 5, 6, 7}});
    plan.crash(30.0, 4);
    plan.heal(60.0, "split");
    plan.recover(80.0, 4);
    net.network().apply(plan);
    net.start();
    net.run_for(200.0);
    return net.traffic();
}

/// The process-wide mirror every Network reports into, in TrafficStats' shape.
net::TrafficStats registry_mirror() {
    auto& registry = obs::MetricsRegistry::global();
    auto& messages = registry.counter_family("net_messages_total",
                                             "Network messages by outcome", {"kind"});
    net::TrafficStats m;
    m.messages_sent = messages.with({"sent"}).value();
    m.bytes_sent =
        registry.counter("net_bytes_sent_total", "Payload bytes sent on the wire").value();
    m.messages_dropped = messages.with({"dropped"}).value();
    m.messages_lost = messages.with({"lost"}).value();
    m.messages_duplicated = messages.with({"duplicated"}).value();
    m.messages_partitioned = messages.with({"partitioned"}).value();
    m.messages_from_crashed = messages.with({"from_crashed"}).value();
    return m;
}

/// (name, field) for every TrafficStats field.
const std::vector<std::pair<const char*, std::uint64_t net::TrafficStats::*>>
    kTrafficFields = {
        {"messages_sent", &net::TrafficStats::messages_sent},
        {"bytes_sent", &net::TrafficStats::bytes_sent},
        {"messages_dropped", &net::TrafficStats::messages_dropped},
        {"messages_lost", &net::TrafficStats::messages_lost},
        {"messages_duplicated", &net::TrafficStats::messages_duplicated},
        {"messages_partitioned", &net::TrafficStats::messages_partitioned},
        {"messages_from_crashed", &net::TrafficStats::messages_from_crashed},
};

TEST(ParallelNetworks, TalliesMatchSerialAndTheMirrorSumsBoth) {
    // Each Network counts its TrafficStats in plain integers, which is safe
    // only while each network stays on one thread; the registry mirror they
    // share stays atomic. E03 and E08 run whole networks at once on the pool.
    const std::uint64_t seeds[2] = {71, 72};
    net::TrafficStats serial[2];
    for (std::size_t i = 0; i < 2; ++i) serial[i] = run_faulty_network(seeds[i]);

    const net::TrafficStats before = registry_mirror();
    net::TrafficStats parallel[2];
    ThreadPool pool(2);
    parallel_for(pool, 0, 2, [&](std::size_t i) { parallel[i] = run_faulty_network(seeds[i]); });
    const net::TrafficStats after = registry_mirror();

    for (const auto& [name, field] : kTrafficFields) {
        for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_GT(serial[i].*field, 0u) << name << " seed " << seeds[i];
            EXPECT_EQ(parallel[i].*field, serial[i].*field) << name << " seed " << seeds[i];
        }
        EXPECT_EQ(after.*field - before.*field, parallel[0].*field + parallel[1].*field)
            << name;
    }
}

// --- Parallel data-structure hashing matches serial ----------------------------------

TEST(ParallelHashing, MerkleRootMatchesSerial) {
    // 2048 leaves crosses the kParallelPairs threshold in merkle.cpp.
    std::vector<Hash256> leaves(2048);
    for (std::size_t i = 0; i < leaves.size(); ++i)
        leaves[i] = crypto::sha256(to_bytes("leaf-" + std::to_string(i)));

    Hash256 serial_root;
    {
        GlobalWorkers guard(0);
        serial_root = datastruct::merkle_root(leaves);
    }
    {
        GlobalWorkers guard(7);
        EXPECT_EQ(datastruct::merkle_root(leaves), serial_root);
    }
}

TEST(ParallelHashing, MptRootMatchesSerial) {
    const auto build = [] {
        datastruct::MerklePatriciaTrie trie;
        for (int i = 0; i < 400; ++i)
            trie.put(to_bytes("account/" + std::to_string(i)),
                     to_bytes("balance-" + std::to_string(i * 7)));
        return trie;
    };
    datastruct::MerklePatriciaTrie serial = build();
    datastruct::MerklePatriciaTrie parallel = build();

    Hash256 serial_root;
    {
        GlobalWorkers guard(0);
        serial_root = serial.root_hash();
    }
    {
        GlobalWorkers guard(7);
        EXPECT_EQ(parallel.root_hash(), serial_root);
    }
}

TEST(ParallelHashing, IavlRootMatchesSerial) {
    const auto build = [] {
        datastruct::IavlTree tree;
        for (int i = 0; i < 400; ++i)
            tree.set(to_bytes("key/" + std::to_string(i)),
                     to_bytes("value-" + std::to_string(i * 13)));
        return tree;
    };
    datastruct::IavlTree serial = build();
    datastruct::IavlTree parallel = build();

    Hash256 serial_root;
    {
        GlobalWorkers guard(0);
        serial_root = serial.root_hash();
    }
    {
        GlobalWorkers guard(7);
        EXPECT_EQ(parallel.root_hash(), serial_root);
    }
}

} // namespace
