// Tests for the pluggable UTXO state engine (E28): the ShardedMemoryBackend
// against a reference map oracle, the strengthened OutPointHash (distribution
// + avalanche), duplicate-outpoint rejection in UtxoSet::decode, digest
// equality across backends and thread counts, LSM reopen/recovery semantics
// (flush, compaction, covers-rule healing, bloom-filter skips), block-file
// pruning, fatal state-flush failures, and the persistent-engine crash
// matrix — a node on the LSM engine killed at every write boundary across
// memtable-flush, compaction, and prune windows must reopen to a reference
// state and finish its workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <optional>
#include <random>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "core/persistent_node.hpp"
#include "crypto/keys.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/outpoint_hash.hpp"
#include "ledger/state_backend.hpp"
#include "ledger/utxo.hpp"
#include "obs/metrics.hpp"
#include "scaling/bootstrap.hpp"
#include "storage/file.hpp"
#include "storage/lsm_backend.hpp"

namespace {

using namespace dlt;
using namespace dlt::ledger;

using storage::TempDir;

crypto::Address addr(const std::string& seed) {
    return crypto::PrivateKey::from_seed(seed).address();
}

OutPoint random_outpoint(std::mt19937_64& rng) {
    OutPoint op;
    for (std::size_t i = 0; i < Hash256::size(); ++i)
        op.txid[i] = static_cast<std::uint8_t>(rng());
    op.index = static_cast<std::uint32_t>(rng() % 16);
    return op;
}

TxOutput random_output(std::mt19937_64& rng) {
    return TxOutput{static_cast<Amount>(1 + rng() % 100000),
                    addr("holder-" + std::to_string(rng() % 7))};
}

Block test_genesis() { return make_genesis("state-test", easy_bits(2)); }

// Same deterministic chain shape as test_storage: every block carries a
// coinbase, every third additionally spends the coinbase two blocks back, so
// the state engine sees both inserts and erases.
std::vector<Block> build_chain(const Block& genesis, int n) {
    std::vector<Block> blocks;
    std::vector<Hash256> coinbase_txids;
    Hash256 prev = genesis.hash();
    for (int i = 1; i <= n; ++i) {
        Block b;
        b.header.prev_hash = prev;
        b.header.height = static_cast<std::uint64_t>(i);
        b.header.timestamp = 10.0 * i;
        Transaction cb = make_coinbase(addr("miner-" + std::to_string(i)),
                                       block_subsidy(static_cast<std::uint64_t>(i)),
                                       static_cast<std::uint64_t>(i));
        b.txs.push_back(cb);
        coinbase_txids.push_back(cb.txid());
        if (i % 3 == 0 && i >= 3) {
            const Hash256 spend_txid = coinbase_txids[static_cast<std::size_t>(i - 3)];
            const Amount value = block_subsidy(static_cast<std::uint64_t>(i - 2));
            b.txs.push_back(make_transfer(
                {OutPoint{spend_txid, 0}},
                {TxOutput{value, addr("payee-" + std::to_string(i))}}));
        }
        b.header.merkle_root = b.compute_merkle_root();
        blocks.push_back(b);
        prev = b.hash();
    }
    return blocks;
}

// The op a crash at `budget` bytes cut: the first whose writes end past the
// budget (op_end.size() when the whole script finished).
std::size_t op_cut_at(const std::vector<std::uint64_t>& op_end, std::uint64_t budget) {
    return static_cast<std::size_t>(
        std::upper_bound(op_end.begin(), op_end.end(), budget) - op_end.begin());
}

// Durability check for a crash matrix: a node cut inside op `cut` must reopen
// to the reference (tip, state) just before that op or just after it. Returns
// the op to resume the script from, or nullopt when an earlier committed op
// was lost (or the state matches neither).
std::optional<std::size_t> recovered_op(
    const std::vector<std::pair<Hash256, Bytes>>& ref_states, std::size_t cut,
    const core::PersistentNode& node) {
    const std::pair<Hash256, Bytes> got{node.tip(), scaling::serialize_utxo(node.utxo())};
    if (got == ref_states[cut]) return cut;
    if (cut + 1 < ref_states.size() && got == ref_states[cut + 1]) return cut + 1;
    return std::nullopt;
}

// --- ShardedMemoryBackend vs a reference map ---------------------------------------

TEST(StateBackend, ShardedMatchesReferenceMap) {
    std::mt19937_64 rng(0xE28);
    ShardedMemoryBackend backend;
    std::map<OutPoint, TxOutput> reference;

    std::vector<OutPoint> keys;
    for (int step = 0; step < 4000; ++step) {
        const int action = static_cast<int>(rng() % 100);
        if (action < 50 || keys.empty()) {
            const OutPoint op = random_outpoint(rng);
            const TxOutput out = random_output(rng);
            const bool inserted = backend.insert_if_absent(op, out);
            EXPECT_EQ(inserted, reference.emplace(op, out).second);
            keys.push_back(op);
        } else if (action < 70) {
            const OutPoint& op = keys[rng() % keys.size()];
            const TxOutput out = random_output(rng);
            const auto previous = backend.put(op, out);
            const auto it = reference.find(op);
            if (it == reference.end()) {
                EXPECT_FALSE(previous.has_value());
                reference.emplace(op, out);
            } else {
                ASSERT_TRUE(previous.has_value());
                EXPECT_EQ(*previous, it->second);
                it->second = out;
            }
        } else if (action < 90) {
            const OutPoint& op = keys[rng() % keys.size()];
            const auto removed = backend.erase(op);
            const auto it = reference.find(op);
            if (it == reference.end()) {
                EXPECT_FALSE(removed.has_value());
            } else {
                ASSERT_TRUE(removed.has_value());
                EXPECT_EQ(*removed, it->second);
                reference.erase(it);
            }
        } else {
            const OutPoint& op = keys[rng() % keys.size()];
            const auto got = backend.get(op);
            const auto it = reference.find(op);
            EXPECT_EQ(got.has_value(), it != reference.end());
            if (got && it != reference.end()) {
                EXPECT_EQ(*got, it->second);
            }
            EXPECT_EQ(backend.contains(op), it != reference.end());
        }
    }
    EXPECT_EQ(backend.size(), reference.size());

    // for_each_sorted must walk exactly the reference map's (sorted) order.
    auto it = reference.begin();
    backend.for_each_sorted([&](const OutPoint& op, const TxOutput& out) {
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(op, it->first);
        EXPECT_EQ(out, it->second);
        ++it;
    });
    EXPECT_EQ(it, reference.end());

    // The parallel per-shard encode must be byte-identical to the serial
    // base-class path (varint count + sorted entries).
    Writer serial;
    serial.varint(reference.size());
    for (const auto& [op, out] : reference) {
        op.encode(serial);
        out.encode(serial);
    }
    Writer parallel;
    backend.encode_sorted(parallel);
    EXPECT_EQ(parallel.data(), serial.data());
}

// --- OutPointHash quality ----------------------------------------------------------

// Pinned distribution properties of the strengthened hash. The old xor-fold
// (`hash_value(txid) ^ (index * 0x9E3779B9)`) left the high output bits a
// function of the txid alone and let correlated inputs cancel; the avalanche
// finisher makes every output bit depend on every input bit. Inputs are drawn
// from a fixed seed, so these bounds are deterministic, not flaky.
TEST(StateBackend, ShardDistributionPinned) {
    std::mt19937_64 rng(7);
    const OutPointHash hasher;

    // 1) Bucket balance: 4096 random outpoints over 64 low-bit buckets.
    constexpr int kKeys = 4096;
    constexpr int kBuckets = 64;
    std::array<int, kBuckets> low_buckets{};
    std::array<int, kBuckets> high_buckets{};
    std::array<int, ShardedMemoryBackend::kShards> shards{};
    for (int i = 0; i < kKeys; ++i) {
        const OutPoint op = random_outpoint(rng);
        const std::uint64_t h = hasher(op);
        ++low_buckets[h % kBuckets];
        ++high_buckets[(h >> 58) % kBuckets];
        ++shards[ShardedMemoryBackend::shard_of(op)];
    }
    for (int b = 0; b < kBuckets; ++b) {
        // Expected 64 per bucket; allow 3x headroom over Poisson spread.
        EXPECT_GT(low_buckets[b], 24) << "low bucket " << b;
        EXPECT_LT(low_buckets[b], 128) << "low bucket " << b;
        EXPECT_GT(high_buckets[b], 24) << "high bucket " << b;
        EXPECT_LT(high_buckets[b], 128) << "high bucket " << b;
    }
    // shard_of splits on the txid's top nibble (uniform for real txids).
    for (std::size_t s = 0; s < shards.size(); ++s) {
        EXPECT_GT(shards[s], kKeys / 32) << "shard " << s;
        EXPECT_LT(shards[s], kKeys / 8) << "shard " << s;
    }

    // 2) Index avalanche: flipping one index bit must flip about half the
    // output bits — including high ones, which the weak fold left untouched.
    std::uint64_t total_flips = 0;
    std::uint64_t high_flip_pairs = 0;
    constexpr int kPairs = 256;
    for (int i = 0; i < kPairs; ++i) {
        OutPoint a = random_outpoint(rng);
        OutPoint b = a;
        b.index = a.index ^ (1u << (i % 4));
        const std::uint64_t diff = hasher(a) ^ hasher(b);
        const int flips = std::popcount(diff);
        total_flips += static_cast<std::uint64_t>(flips);
        EXPECT_GE(flips, 8) << "pair " << i;
        if ((diff >> 32) != 0) ++high_flip_pairs;
    }
    EXPECT_GE(total_flips / kPairs, 24u);        // avg ~32 for a good mixer
    EXPECT_EQ(high_flip_pairs, kPairs);          // index reaches the high bits
}

// --- UtxoSet::decode hardening -----------------------------------------------------

TEST(UtxoCodec, DuplicateOutpointRejected) {
    std::mt19937_64 rng(11);
    const OutPoint op = random_outpoint(rng);
    const TxOutput out = random_output(rng);

    Writer w;
    w.varint(2);
    op.encode(w);
    out.encode(w);
    op.encode(w); // same outpoint again — previously silently merged
    out.encode(w);
    Reader r{ByteView(w.data())};
    EXPECT_THROW(UtxoSet::decode(r), DecodeError);

    // Distinct entries still decode, and the index/total come out right.
    OutPoint op2 = op;
    op2.index ^= 1;
    Writer ok;
    ok.varint(2);
    // Canonical snapshots are sorted; keep the crafted one sorted too.
    const OutPoint& first = std::min(op, op2);
    const OutPoint& second = std::max(op, op2);
    first.encode(ok);
    out.encode(ok);
    second.encode(ok);
    out.encode(ok);
    Reader r2{ByteView(ok.data())};
    const UtxoSet decoded = UtxoSet::decode(r2);
    r2.expect_done();
    EXPECT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded.total_value(), 2 * out.value);
    EXPECT_EQ(decoded.balance_of(out.recipient), 2 * out.value);
}

// --- Cross-backend and cross-thread-count digest equality --------------------------

TEST(StateBackend, BackendsAndThreadCountsAgreeOnSnapshotBytes) {
    TempDir dir("state-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 18);

    UtxoSet in_memory; // default sharded engine
    storage::LsmOptions lsm;
    lsm.memtable_limit = 8; // force flushes and compactions mid-workload
    lsm.compact_trigger = 3;
    UtxoSet persistent(std::make_unique<storage::LsmBackend>(dir.path, lsm));
    EXPECT_STREQ(persistent.backend().name(), "lsm");

    in_memory.apply_block(genesis);
    persistent.apply_block(genesis);
    std::uint64_t tag = 0;
    persistent.commit(++tag, ByteView{});
    for (const auto& b : blocks) {
        in_memory.apply_block(b);
        persistent.apply_block(b);
        persistent.commit(++tag, ByteView{});
    }

    EXPECT_EQ(in_memory.size(), persistent.size());
    EXPECT_EQ(in_memory.total_value(), persistent.total_value());
    EXPECT_EQ(in_memory.balance_of(addr("miner-18")),
              persistent.balance_of(addr("miner-18")));
    EXPECT_EQ(in_memory.coins_of(addr("payee-3")), persistent.coins_of(addr("payee-3")));

    const Bytes serial_bytes = scaling::serialize_utxo(in_memory);
    EXPECT_EQ(scaling::serialize_utxo(persistent), serial_bytes);

    // The parallel encode must produce the same bytes at any thread count.
    const std::size_t saved_workers = ThreadPool::global_workers();
    ThreadPool::set_global_workers(0);
    EXPECT_EQ(scaling::serialize_utxo(in_memory), serial_bytes);
    ThreadPool::set_global_workers(3);
    EXPECT_EQ(scaling::serialize_utxo(in_memory), serial_bytes);
    ThreadPool::set_global_workers(saved_workers);

    // Copies deep-clone: the persistent set materializes into memory and the
    // copy keeps matching after the original moves on.
    const UtxoSet copy = persistent;
    EXPECT_STREQ(copy.backend().name(), "sharded-memory");
    EXPECT_EQ(scaling::serialize_utxo(copy), serial_bytes);
}

// --- LsmBackend --------------------------------------------------------------------

TEST(Lsm, StateSurvivesReopenThroughFlushesAndCompactions) {
    TempDir dir("state-test");
    std::mt19937_64 rng(42);
    std::map<OutPoint, TxOutput> reference;

    storage::LsmOptions options;
    options.memtable_limit = 8;
    options.compact_trigger = 3;
    std::uint64_t tag = 0;
    {
        storage::LsmBackend backend(dir.path, options);
        for (int batch = 0; batch < 30; ++batch) {
            for (int i = 0; i < 5; ++i) {
                const OutPoint op = random_outpoint(rng);
                const TxOutput out = random_output(rng);
                backend.insert_if_absent(op, out);
                reference.emplace(op, out);
            }
            // Erase one existing key per batch: tombstones must shadow older
            // runs and be dropped by compaction.
            if (!reference.empty()) {
                auto victim = reference.begin();
                std::advance(victim, static_cast<long>(rng() % reference.size()));
                EXPECT_EQ(backend.erase(victim->first), victim->second);
                reference.erase(victim);
            }
            backend.commit_batch(++tag, ByteView{});
        }
        const auto stats = backend.stats();
        EXPECT_GT(stats.flushes, 0u);
        EXPECT_GT(stats.compactions, 0u);
        EXPECT_EQ(backend.size(), reference.size());
        // The engine is durable at flush: write out the batches committed
        // since its last run before closing.
        backend.flush();
        EXPECT_EQ(backend.committed_tag(), tag);
    }

    storage::LsmBackend reopened(dir.path, options);
    EXPECT_EQ(reopened.size(), reference.size());
    EXPECT_EQ(reopened.committed_tag(), tag);
    auto it = reference.begin();
    reopened.for_each_sorted([&](const OutPoint& op, const TxOutput& out) {
        ASSERT_NE(it, reference.end());
        EXPECT_EQ(op, it->first);
        EXPECT_EQ(out, it->second);
        ++it;
    });
    EXPECT_EQ(it, reference.end());

    // Point reads after reopen hit the run files (not just the memtable).
    std::mt19937_64 probe_rng(42);
    for (int i = 0; i < 20; ++i) {
        const OutPoint op = random_outpoint(probe_rng);
        const auto expected = reference.find(op);
        const auto got = reopened.get(op);
        EXPECT_EQ(got.has_value(), expected != reference.end());
    }

    // clone() materializes into the in-memory engine with identical contents.
    const auto clone = reopened.clone();
    EXPECT_STREQ(clone->name(), "sharded-memory");
    Writer a, b;
    reopened.encode_sorted(a);
    clone->encode_sorted(b);
    EXPECT_EQ(a.data(), b.data());
}

TEST(Lsm, UncommittedMutationsDieWithTheProcess) {
    TempDir dir("state-test");
    std::mt19937_64 rng(9);
    const OutPoint committed_key = random_outpoint(rng);
    const TxOutput committed_val = random_output(rng);
    {
        storage::LsmBackend backend(dir.path);
        backend.insert_if_absent(committed_key, committed_val);
        backend.commit_batch(1, ByteView{});
        backend.flush();
        // Durable only at flush: batch 2 is committed but never flushed, so
        // committed_tag() still names batch 1, and the mutations after it are
        // not even committed. Both die with the process; the caller's own
        // log must cover them.
        backend.insert_if_absent(random_outpoint(rng), random_output(rng));
        backend.commit_batch(2, ByteView{});
        EXPECT_EQ(backend.committed_tag(), 1u);
        backend.insert_if_absent(random_outpoint(rng), random_output(rng));
        backend.erase(committed_key);
    }
    storage::LsmBackend reopened(dir.path);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.get(committed_key), committed_val);
    EXPECT_EQ(reopened.committed_tag(), 1u);
    EXPECT_EQ(reopened.stats().runs, 1u);
    EXPECT_FALSE(std::filesystem::exists(dir.path / "state.wal")); // no journal
}

TEST(Lsm, BloomFilterSkipsNegativeLookups) {
    TempDir dir("state-test");
    std::mt19937_64 rng(5);
    storage::LsmOptions options;
    options.memtable_limit = 4;
    storage::LsmBackend backend(dir.path, options);
    for (int i = 0; i < 8; ++i)
        backend.insert_if_absent(random_outpoint(rng), random_output(rng));
    backend.commit_batch(1, ByteView{}); // memtable over limit -> flush to a run
    ASSERT_GT(backend.stats().runs, 0u);

    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(backend.get(random_outpoint(rng)).has_value());
    const auto stats = backend.stats();
    EXPECT_GT(stats.run_probes, 0u);
    // 10 bits/key + 6 probes gives a ~1% false-positive rate; virtually every
    // negative lookup must be answered by the bloom filter without disk I/O.
    EXPECT_GT(stats.bloom_skips, stats.run_probes * 9 / 10);
}

// --- PersistentNode on the LSM engine ----------------------------------------------

using core::PersistentNode;
using core::PersistentNodeOptions;
using core::StateEngine;

PersistentNodeOptions persistent_options() {
    PersistentNodeOptions options;
    options.state_engine = StateEngine::kPersistent;
    options.state_memtable_limit = 8;
    options.state_compact_trigger = 2;
    return options;
}

TEST(PersistentNode, LsmEngineRecoversWithoutSnapshots) {
    TempDir dir("state-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 15);

    UtxoSet reference;
    reference.apply_block(genesis);
    for (const auto& b : blocks) reference.apply_block(b);

    {
        PersistentNode node(dir.path, genesis, persistent_options());
        for (const auto& b : blocks) node.connect_block(b);
        EXPECT_STREQ(node.utxo().backend().name(), "lsm");
    }
    {
        PersistentNode node(dir.path, genesis, persistent_options());
        EXPECT_TRUE(node.recovery().from_state_engine);
        EXPECT_FALSE(node.recovery().from_snapshot);
        // The clean close flushed the engine through the last WAL record, so
        // nothing replays.
        EXPECT_EQ(node.recovery().wal_records_replayed, 0u);
        EXPECT_EQ(node.recovery().state_tag, 15u);
        EXPECT_EQ(node.height(), 15u);
        EXPECT_EQ(node.tip(), blocks.back().hash());
        EXPECT_EQ(scaling::serialize_utxo(node.utxo()),
                  scaling::serialize_utxo(reference));

        // Disconnect/reconnect keeps the engine in lockstep across another
        // restart.
        node.disconnect_tip();
        node.disconnect_tip();
        EXPECT_EQ(node.height(), 13u);
    }
    PersistentNode reopened(dir.path, genesis, persistent_options());
    EXPECT_EQ(reopened.height(), 13u);
    EXPECT_EQ(reopened.recovery().wal_records_replayed, 0u);
    reopened.connect_block(blocks[13]);
    reopened.connect_block(blocks[14]);
    EXPECT_EQ(scaling::serialize_utxo(reopened.utxo()), scaling::serialize_utxo(reference));
}

// One durable log per node: under FsyncMode::kAlways a connect syncs the
// block file (undo + block) and the node WAL, and nothing else, on either
// engine, as long as no LSM flush falls inside it. A disconnect syncs only
// its WAL record (its undo data is already durable).
TEST(PersistentNode, ConnectCostsTwoFsyncsOnBothEngines) {
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 8);
    const obs::Counter& fsyncs =
        obs::MetricsRegistry::global().counter("storage_fsyncs_total", "");
    for (const StateEngine engine : {StateEngine::kInMemory, StateEngine::kPersistent}) {
        TempDir dir("state-test");
        PersistentNodeOptions options; // default memtable: no flush in 8 blocks
        options.state_engine = engine;
        ASSERT_EQ(options.fsync, storage::FsyncMode::kAlways);
        PersistentNode node(dir.path, genesis, options);
        for (const auto& b : blocks) {
            const std::uint64_t before = fsyncs.value();
            node.connect_block(b);
            EXPECT_EQ(fsyncs.value() - before, 2u)
                << node.utxo().backend().name() << " at height " << b.header.height;
        }
        const std::uint64_t before = fsyncs.value();
        node.disconnect_tip();
        EXPECT_EQ(fsyncs.value() - before, 1u) << node.utxo().backend().name();
    }
}

// A node killed k connects after its engine's last flush reopens from that
// flush and replays exactly those k node-WAL records, skipping the older
// records the WAL still holds.
TEST(PersistentNode, LsmCrashReplaysOnlyTheWalPastTheLastFlush) {
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 12);
    std::vector<Bytes> state_at; // serialized UTXO after each height
    {
        UtxoSet reference;
        reference.apply_block(genesis);
        state_at.push_back(scaling::serialize_utxo(reference));
        for (const auto& b : blocks) {
            reference.apply_block(b);
            state_at.push_back(scaling::serialize_utxo(reference));
        }
    }

    constexpr std::size_t kFlushed = 5;
    for (const std::size_t k : {0u, 1u, 6u}) {
        TempDir dir("state-test");
        storage::CrashInjector injector;
        PersistentNodeOptions options; // default memtable: only closes flush
        options.state_engine = StateEngine::kPersistent;
        options.injector = &injector;
        {
            PersistentNode node(dir.path, genesis, options);
            for (std::size_t i = 0; i < kFlushed; ++i) node.connect_block(blocks[i]);
        } // clean close: the engine flushes at WAL seq 5
        {
            PersistentNode node(dir.path, genesis, options);
            EXPECT_EQ(node.recovery().wal_records_replayed, 0u);
            for (std::size_t i = kFlushed; i < kFlushed + k; ++i)
                node.connect_block(blocks[i]);
            // Kill it: the next write dies, so the node never flushes again.
            injector.arm(0);
            EXPECT_THROW(node.connect_block(blocks[kFlushed + k]), storage::CrashError);
        }
        options.injector = nullptr;
        PersistentNode node(dir.path, genesis, options);
        EXPECT_TRUE(node.recovery().from_state_engine);
        EXPECT_EQ(node.recovery().state_tag, kFlushed) << "k=" << k;
        EXPECT_EQ(node.recovery().wal_records_replayed, k);
        EXPECT_EQ(node.height(), kFlushed + k);
        EXPECT_EQ(scaling::serialize_utxo(node.utxo()), state_at[kFlushed + k]);
    }
}

// A state flush that fails with an I/O error after its block's WAL record is
// down kills the node instead of rolling it back: the connect is committed,
// so closing must not flush the pre-block memtable under the block's tag, and
// the reopen replays the block from the WAL.
TEST(PersistentNode, LsmFlushFailureAfterTheWalRecordIsFatal) {
    TempDir dir("state-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 12);
    std::size_t journaled = 0; // blocks whose WAL record is down
    {
        PersistentNode node(dir.path, genesis, persistent_options());
        // A directory where the first run's temporary file goes makes its
        // open fail with a plain StorageError.
        std::filesystem::create_directories(dir.path / "state" / "run-00000001.run.tmp");
        try {
            while (journaled < blocks.size()) node.connect_block(blocks[journaled++]);
        } catch (const StorageError& e) {
            EXPECT_EQ(dynamic_cast<const storage::CrashError*>(&e), nullptr) << e.what();
        }
        ASSERT_LT(journaled, blocks.size()); // the first flush came and failed
        EXPECT_THROW(node.connect_block(blocks[journaled]), storage::CrashError);
    }
    UtxoSet reference;
    reference.apply_block(genesis);
    for (std::size_t i = 0; i < journaled; ++i) reference.apply_block(blocks[i]);

    PersistentNode node(dir.path, genesis, persistent_options());
    EXPECT_EQ(node.recovery().state_tag, 0u); // no run ever made it to disk
    EXPECT_EQ(node.recovery().wal_records_replayed, journaled);
    EXPECT_EQ(node.tip(), blocks[journaled - 1].hash());
    EXPECT_EQ(scaling::serialize_utxo(node.utxo()), scaling::serialize_utxo(reference));
    for (std::size_t i = journaled; i < blocks.size(); ++i) node.connect_block(blocks[i]);
}

TEST(PersistentNode, EngineSwitchesPreserveState) {
    TempDir dir("state-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 10);

    UtxoSet reference;
    reference.apply_block(genesis);
    for (const auto& b : blocks) reference.apply_block(b);
    const Bytes want = scaling::serialize_utxo(reference);

    { // Start life on the in-memory engine.
        PersistentNode node(dir.path, genesis);
        for (int i = 0; i < 6; ++i) node.connect_block(blocks[i]);
    }
    { // Upgrade to the LSM engine: the node WAL replays onto a fresh engine.
        PersistentNode node(dir.path, genesis, persistent_options());
        EXPECT_FALSE(node.recovery().from_state_engine); // engine was empty
        EXPECT_EQ(node.recovery().wal_records_replayed, 6u);
        EXPECT_EQ(node.height(), 6u);
        for (int i = 6; i < 10; ++i) node.connect_block(blocks[i]);
        EXPECT_EQ(scaling::serialize_utxo(node.utxo()), want);
    }
    { // And back down: the in-memory engine ignores the state dir entirely.
        PersistentNode node(dir.path, genesis);
        EXPECT_EQ(node.height(), 10u);
        EXPECT_EQ(scaling::serialize_utxo(node.utxo()), want);
    }
}

TEST(PersistentNode, PruneDropsBlockFilesBelowSnapshot) {
    TempDir dir("state-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 14);

    UtxoSet reference;
    reference.apply_block(genesis);
    for (const auto& b : blocks) reference.apply_block(b);

    PersistentNodeOptions options = persistent_options();
    options.prune_blocks = true;
    options.snapshots_to_keep = 1;
    {
        PersistentNode node(dir.path, genesis, options);
        for (int i = 0; i < 10; ++i) node.connect_block(blocks[i]);
        node.snapshot(); // covers heights <= 10; prunes block files below 10
        EXPECT_EQ(node.block_store().pruned_below(), 10u);
        EXPECT_EQ(node.block_store().size(), 1u); // only height 10 survives
        for (int i = 10; i < 14; ++i) node.connect_block(blocks[i]);
        // Disconnecting back to the prune floor works (kept undo records)...
        for (int i = 0; i < 4; ++i) node.disconnect_tip();
        EXPECT_EQ(node.height(), 10u);
        // ...but crossing the floor is refused: the parent block is gone.
        EXPECT_THROW(node.disconnect_tip(), StorageError);
        EXPECT_EQ(node.height(), 10u);
        for (int i = 10; i < 14; ++i) node.connect_block(blocks[i]);
    }
    // Restart: the chain index anchors at a detached root, the engine carries
    // the state, and the node keeps extending with the exact reference state.
    PersistentNode node(dir.path, genesis, options);
    EXPECT_TRUE(node.recovery().from_state_engine);
    EXPECT_EQ(node.height(), 14u);
    EXPECT_EQ(node.tip(), blocks.back().hash());
    EXPECT_EQ(scaling::serialize_utxo(node.utxo()), scaling::serialize_utxo(reference));
}

// The E28 acceptance test: a node on the persistent engine killed at *every*
// write boundary — node WAL, block file, memtable-flush run files, compaction
// run files, prune rewrites, and the flush of a clean close — must reopen to
// the reference state just before or just after the op the cut fell in (so
// no committed op is lost) and finish the workload to the identical final
// state. Each boundary is hit clean (budget at the boundary) and torn (one
// byte short).
TEST(PersistentNode, LsmCrashMatrixAtEveryWriteBoundary) {
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 9);

    // Workload: 5 connects, a snapshot (which flushes the engine, then prunes
    // below height 5), three more connects, one disconnect, two reconnects.
    // The tiny memtable and trigger below force multiple flushes *and*
    // compactions inside the window, so every LSM write path crosses a crash
    // boundary. The engine last flushed at height 3 when the snapshot comes,
    // so without the snapshot's own flush a cut after its prune would leave
    // an engine tag whose blocks are gone.
    struct Op {
        enum Kind { kConnect, kDisconnect, kSnapshot } kind;
        std::size_t block = 0;
    };
    std::vector<Op> script;
    for (std::size_t i = 0; i < 5; ++i) script.push_back({Op::kConnect, i});
    script.push_back({Op::kSnapshot, 0});
    for (std::size_t i = 5; i < 8; ++i) script.push_back({Op::kConnect, i});
    script.push_back({Op::kDisconnect, 0});
    for (std::size_t i = 7; i < 9; ++i) script.push_back({Op::kConnect, i});

    auto make_options = [](storage::CrashInjector* injector) {
        PersistentNodeOptions options;
        options.state_engine = StateEngine::kPersistent;
        options.state_memtable_limit = 4;
        options.state_compact_trigger = 2;
        options.prune_blocks = true;
        options.snapshots_to_keep = 1;
        options.injector = injector;
        return options;
    };

    // Reference (never crashed, purely in memory): state after each op.
    std::vector<std::pair<Hash256, Bytes>> ref_states;
    {
        UtxoSet state;
        state.apply_block(genesis);
        std::vector<std::pair<Hash256, UtxoUndo>> undo_stack;
        Hash256 tip = genesis.hash();
        ref_states.emplace_back(tip, scaling::serialize_utxo(state));
        for (const auto& op : script) {
            if (op.kind == Op::kConnect) {
                const Block& b = blocks[op.block];
                undo_stack.emplace_back(b.hash(), state.apply_block(b));
                tip = b.hash();
            } else if (op.kind == Op::kDisconnect) {
                state.undo_block(undo_stack.back().second);
                undo_stack.pop_back();
                tip = undo_stack.back().first;
            } // snapshots don't change logical state
            ref_states.emplace_back(tip, scaling::serialize_utxo(state));
        }
    }

    auto run_op = [&](PersistentNode& node, std::size_t i) {
        switch (script[i].kind) {
        case Op::kConnect: node.connect_block(blocks[script[i].block]); break;
        case Op::kDisconnect: node.disconnect_tip(); break;
        case Op::kSnapshot: node.snapshot(); break;
        }
    };

    // Dry run: learn every record boundary in the write stream (the close's
    // flush included) and where each op's writes end.
    std::vector<std::uint64_t> boundaries;
    std::vector<std::uint64_t> op_end;
    {
        TempDir dir("state-test");
        storage::CrashInjector probe;
        {
            PersistentNode node(dir.path, genesis, make_options(&probe));
            for (std::size_t i = 0; i < script.size(); ++i) {
                run_op(node, i);
                op_end.push_back(probe.total_written());
            }
            ASSERT_EQ(node.tip(), ref_states.back().first);
        }
        boundaries = probe.write_boundaries();
        // Flushes and compactions (multi-record run files) plus the prune
        // rewrite must all have contributed boundaries beyond the per-op
        // undo/block/WAL records.
        ASSERT_GT(boundaries.size(), script.size() * 3);
    }

    for (const std::uint64_t boundary : boundaries) {
        for (const std::uint64_t budget : {boundary, boundary - 1}) {
            TempDir dir("state-test");
            storage::CrashInjector injector;
            injector.arm(budget);
            try {
                // The constructor writes too (a flush of the genesis commit),
                // so it sits inside the crash scope with the workload.
                PersistentNode node(dir.path, genesis, make_options(&injector));
                for (std::size_t i = 0; i < script.size(); ++i) run_op(node, i);
            } catch (const storage::CrashError&) {
                // killed at (or one byte short of) the boundary
            }

            // Reopen without fault injection: recovery must land next to the
            // op the cut fell in.
            PersistentNode node(dir.path, genesis, make_options(nullptr));
            const std::size_t cut = op_cut_at(op_end, budget);
            const auto resume = recovered_op(ref_states, cut, node);
            ASSERT_TRUE(resume.has_value())
                << "budget " << budget << ": recovered state is neither just before "
                << "nor just after op " << cut;

            // Finish the workload from the recovered state: the final tip and
            // state digest must equal the reference's, byte for byte.
            for (std::size_t i = *resume; i < script.size(); ++i) run_op(node, i);
            EXPECT_EQ(node.tip(), ref_states.back().first) << "budget " << budget;
            EXPECT_EQ(scaling::serialize_utxo(node.utxo()), ref_states.back().second)
                << "budget " << budget;
        }
    }
}

} // namespace
