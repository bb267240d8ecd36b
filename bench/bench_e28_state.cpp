// E28 — pluggable UTXO state engine (ROADMAP item 2): the sharded in-memory
// backend and the LSM-flavored persistent backend must produce identical
// state digests while the persistent engine holds its E02-signed-workload
// throughput within 10% of memory at 10x state size. Also measures the
// parallel per-shard snapshot encode against the seed's serial
// sort-the-whole-set path, engine-based recovery against full WAL replay
// (the E21 axis), and block-file pruning once snapshots cover history.
//
// DLT_E28_QUICK=1 shrinks every dimension for CI smoke runs.
#include <algorithm>
#include <cstring>
#include <filesystem>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/persistent_node.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/validation.hpp"
#include "scaling/bootstrap.hpp"
#include "storage/lsm_backend.hpp"

using namespace dlt;
using namespace dlt::ledger;

namespace {

struct TempDir {
    std::filesystem::path path;
    explicit TempDir(const std::string& tag) {
        path = std::filesystem::temp_directory_path() / ("dlt-bench-e28-" + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

crypto::Address addr(const std::string& seed) {
    return crypto::PrivateKey::from_seed(seed).address();
}

Hash256 random_txid(Rng& rng) {
    Hash256 h;
    for (std::size_t i = 0; i < Hash256::size(); ++i)
        h[i] = static_cast<std::uint8_t>(rng.uniform(256));
    return h;
}

constexpr Amount kSpendValue = 5000;

// The prefill is a superset chain: the first `spendable` outpoints are owned
// by the workload signers (identical at every state size), the rest is
// filler. Seeding the same Rng keeps the 1x prefill a byte-exact prefix of
// the 10x prefill, so one signed workload applies to both.
struct Prefill {
    std::vector<OutPoint> spendable;
    std::vector<std::pair<OutPoint, TxOutput>> entries;
};

Prefill make_prefill(std::size_t spendable, std::size_t total,
                     const std::vector<crypto::PrivateKey>& signers) {
    Prefill p;
    Rng rng(0xE28);
    for (std::size_t i = 0; i < total; ++i) {
        const OutPoint op{random_txid(rng), static_cast<std::uint32_t>(i % 4)};
        if (i < spendable) {
            p.spendable.push_back(op);
            p.entries.emplace_back(
                op, TxOutput{kSpendValue, signers[i % signers.size()].address()});
        } else {
            p.entries.emplace_back(
                op, TxOutput{100 + static_cast<Amount>(rng.uniform(1000)),
                             addr("e28-filler-" + std::to_string(rng.uniform(64)))});
        }
    }
    return p;
}

void load_prefill(UtxoSet& utxo, const Prefill& prefill) {
    std::uint64_t tag = 0;
    std::size_t since_commit = 0;
    for (const auto& [op, out] : prefill.entries) {
        utxo.insert_raw(op, out);
        if (++since_commit == 2048) { // bound the LSM memtable during prefill
            utxo.commit(++tag, ByteView{});
            since_commit = 0;
        }
    }
    utxo.commit(++tag, ByteView{});
}

// E02-style signed workload: every tx is a real ECDSA-signed transfer, every
// block carries a coinbase and a correct Merkle root, and connect_block runs
// the full structural (incl. signatures, SigCheckMode::kFull) + contextual
// path. The spend pattern is the payment-chain shape of the paper's E02
// workload: each signer spends its *own most recent* output (the first hop
// reaches into the prefilled state), so recently created coins dominate —
// which is what lets an LSM engine keep hot spends memtable-resident while
// the bulk of the state ages into runs.
std::vector<Block> build_signed_workload(const Prefill& prefill,
                                         const std::vector<crypto::PrivateKey>& signers,
                                         std::size_t blocks, std::size_t txs_per_block) {
    std::vector<Block> out;
    std::vector<OutPoint> tip;
    std::vector<Amount> value;
    for (std::size_t s = 0; s < signers.size(); ++s) {
        tip.push_back(prefill.spendable[s]); // spendable[s] is owned by signers[s]
        value.push_back(kSpendValue);
    }
    std::size_t next = 0;
    for (std::size_t h = 1; h <= blocks; ++h) {
        Block b;
        b.header.height = h;
        b.header.timestamp = 10.0 * static_cast<double>(h);
        b.txs.push_back(make_coinbase(addr("e28-miner"), block_subsidy(h), h));
        for (std::size_t t = 0; t < txs_per_block; ++t, ++next) {
            const std::size_t s = next % signers.size();
            value[s] -= 10; // fee per hop
            Transaction tx =
                make_transfer({tip[s]}, {TxOutput{value[s], signers[s].address()}});
            tx.sign_with(signers[s]);
            tip[s] = OutPoint{tx.txid(), 0};
            b.txs.push_back(std::move(tx));
        }
        b.header.merkle_root = b.compute_merkle_root();
        out.push_back(std::move(b));
    }
    return out;
}

// Adversarial cold-read workload: spend prefilled outpoints in creation order,
// so on the LSM engine at 10x state every lookup misses the memtable and digs
// into the on-disk runs. Not the paper's workload shape — reported as
// `lsm_cold_*` alongside the headline numbers to bound the worst case.
std::vector<Block> build_cold_workload(const Prefill& prefill,
                                       const std::vector<crypto::PrivateKey>& signers,
                                       std::size_t blocks, std::size_t txs_per_block) {
    std::vector<Block> out;
    std::size_t next = 0;
    for (std::size_t h = 1; h <= blocks; ++h) {
        Block b;
        b.header.height = h;
        b.header.timestamp = 10.0 * static_cast<double>(h);
        b.txs.push_back(make_coinbase(addr("e28-miner"), block_subsidy(h), h));
        for (std::size_t t = 0; t < txs_per_block; ++t, ++next) {
            const OutPoint& spend = prefill.spendable[next];
            Transaction tx = make_transfer(
                {spend}, {TxOutput{kSpendValue - 10,
                                   addr("e28-payee-" + std::to_string(next % 32))}});
            tx.sign_with(signers[next % signers.size()]);
            b.txs.push_back(std::move(tx));
        }
        b.header.merkle_root = b.compute_merkle_root();
        out.push_back(std::move(b));
    }
    return out;
}

// Connect the whole workload under full validation (connect_block checks
// structure — including every ECDSA signature — before the contextual UTXO
// apply), committing per block on persistent engines. Returns wall seconds.
double connect_workload(UtxoSet& utxo, const std::vector<Block>& blocks,
                        const ValidationRules& rules) {
    bench::Timer t;
    std::uint64_t tag = 1000000; // past any prefill commit tag
    for (const auto& b : blocks) {
        connect_block(b, utxo, rules);
        utxo.commit(++tag, ByteView{});
    }
    return t.elapsed_s();
}

// Coinbase-plus-spend chain for the recovery/prune sections (extends genesis,
// so a PersistentNode can connect it from scratch).
std::vector<Block> build_node_chain(const Block& genesis, int n) {
    std::vector<Block> blocks;
    std::vector<Hash256> coinbase_txids;
    Hash256 prev = genesis.hash();
    for (int i = 1; i <= n; ++i) {
        Block b;
        b.header.prev_hash = prev;
        b.header.height = static_cast<std::uint64_t>(i);
        b.header.timestamp = 10.0 * i;
        Transaction cb = make_coinbase(addr("e28-miner-" + std::to_string(i)),
                                       block_subsidy(static_cast<std::uint64_t>(i)),
                                       static_cast<std::uint64_t>(i));
        b.txs.push_back(cb);
        coinbase_txids.push_back(cb.txid());
        if (i % 3 == 0 && i >= 3) {
            b.txs.push_back(make_transfer(
                {OutPoint{coinbase_txids[static_cast<std::size_t>(i - 3)], 0}},
                {TxOutput{block_subsidy(static_cast<std::uint64_t>(i - 2)),
                          addr("e28-payee-" + std::to_string(i))}}));
        }
        b.header.merkle_root = b.compute_merkle_root();
        blocks.push_back(b);
        prev = blocks.back().hash();
    }
    return blocks;
}

std::uint64_t dir_file_bytes(const std::filesystem::path& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) total += entry.file_size(ec);
    }
    return total;
}

} // namespace

int main() {
    bench::Run run("E28");
    bench::ObsEnv obs_env;
    const bool quick = std::getenv("DLT_E28_QUICK") != nullptr;
    bench::title("E28: pluggable UTXO state engine (ROADMAP item 2)",
                 "Claim: the LSM persistent backend stays within 10% of the "
                 "sharded in-memory backend on a signed workload at 10x state "
                 "size with byte-identical digests; the per-shard parallel "
                 "snapshot encode beats the serial sort-everything path 2x+; "
                 "engine-based recovery replays (almost) nothing.");

    const std::size_t kBaseState = quick ? 2000 : 20000;
    const std::size_t kWorkBlocks = quick ? 8 : 20;
    const std::size_t kTxsPerBlock = quick ? 25 : 50;
    const std::size_t kSpendable = kWorkBlocks * kTxsPerBlock;
    run.metric("quick_mode", static_cast<std::uint64_t>(quick ? 1 : 0));
    run.metric("state_entries_1x", static_cast<std::uint64_t>(kBaseState));
    run.metric("state_entries_10x", static_cast<std::uint64_t>(10 * kBaseState));

    std::vector<crypto::PrivateKey> signers;
    for (int i = 0; i < 16; ++i)
        signers.push_back(crypto::PrivateKey::from_seed("e28/signer/" +
                                                        std::to_string(i)));

    // One signed workload, applied to every backend x size combination. The
    // 1x prefill is a prefix of the 10x prefill, so digests differ across
    // sizes but must match across backends at the same size.
    const Prefill prefill_1x = make_prefill(kSpendable, kBaseState, signers);
    const Prefill prefill_10x = make_prefill(kSpendable, 10 * kBaseState, signers);
    const auto workload =
        build_signed_workload(prefill_1x, signers, kWorkBlocks, kTxsPerBlock);

    ValidationRules rules;
    rules.sig_mode = SigCheckMode::kFull;
    rules.require_coinbase = true;

    // Warmup outside the measured loops: first-touch costs (thread-pool
    // spin-up, crypto table setup, allocator growth) land here, not in the
    // first table row.
    {
        UtxoSet warmup;
        load_prefill(warmup, prefill_1x);
        connect_workload(warmup, workload, rules);
    }

    // --- 1: signed-workload apply throughput, backend x state size --------------
    bench::Table apply({"backend", "state-size", "entries", "txs", "seconds", "tx/s"});
    UtxoSet snapshot_subject; // the first 10x in-memory set, reused by section 2
    // One apply of the workload on a fresh backend; returns its tx/s and the
    // resulting state digest.
    const auto apply_once = [&](bool persistent, bool big, const std::string& label) {
        const Prefill& prefill = big ? prefill_10x : prefill_1x;
        TempDir dir(std::string(persistent ? "lsm" : "mem") + (big ? "10x" : "1x"));
        UtxoSet utxo = [&] {
            if (!persistent) return UtxoSet();
            storage::LsmOptions options;
            options.fsync = storage::FsyncMode::kNever; // durability benched in §3
            return UtxoSet(std::make_unique<storage::LsmBackend>(dir.path, options));
        }();
        load_prefill(utxo, prefill);
        // Every combination revalidates from scratch: the global sigcache
        // would otherwise hand later rows the ECDSA work the first row
        // paid, and the E02 cost model includes signature verification.
        // Warm-cache (state-engine-only) numbers are section 1b.
        crypto::SigCache::global().clear();
        const double seconds = connect_workload(utxo, workload, rules);
        const double tps = bench::rate_per_sec(static_cast<double>(kSpendable), seconds);
        apply.row({persistent ? "lsm" : "sharded-memory", label,
                   bench::fmt_int(utxo.size()), bench::fmt_int(kSpendable),
                   bench::fmt(seconds, 3), bench::fmt(tps, 0)});
        if (!persistent && big && snapshot_subject.size() == 0) snapshot_subject = utxo;
        return std::pair{tps, scaling::serialize_utxo(utxo)};
    };

    // 1x: one apply per backend.
    const auto [inmem_tps_1x, digest_inmem_1x] = apply_once(false, false, "1x");
    const auto [lsm_tps_1x, digest_lsm_1x] = apply_once(true, false, "1x");
    run.metric("inmem_apply_tps_1x", inmem_tps_1x);
    run.metric("lsm_apply_tps_1x", lsm_tps_1x);
    run.metric("digest_match_1x",
               static_cast<std::uint64_t>(digest_lsm_1x == digest_inmem_1x ? 1 : 0));
    if (digest_lsm_1x != digest_inmem_1x)
        std::printf("!! backend digest mismatch at 1x\n");

    // 10x: the acceptance row. One run's regression swings by tens of
    // percent on a shared host, so each backend runs kReps times, in
    // alternating (memory, LSM) pairs, and the median pair is reported with
    // the spread. Every pair's digests must match.
    constexpr int kReps = 5;
    std::vector<double> inmem_tps_10x, lsm_tps_10x, regressions_10x;
    bool digests_match_10x = true;
    for (int rep = 1; rep <= kReps; ++rep) {
        const std::string label =
            "10x " + std::to_string(rep) + "/" + std::to_string(kReps);
        const auto [inmem_tps, inmem_digest] = apply_once(false, true, label);
        const auto [lsm_tps, lsm_digest] = apply_once(true, true, label);
        inmem_tps_10x.push_back(inmem_tps);
        lsm_tps_10x.push_back(lsm_tps);
        regressions_10x.push_back(inmem_tps > 0 ? 100.0 * (inmem_tps - lsm_tps) / inmem_tps
                                                : 0);
        if (lsm_digest != inmem_digest) {
            digests_match_10x = false;
            std::printf("!! backend digest mismatch at 10x, run %d\n", rep);
        }
    }
    apply.print();
    const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double regression_pct = median(regressions_10x);
    const auto [regression_min, regression_max] =
        std::minmax_element(regressions_10x.begin(), regressions_10x.end());
    run.metric("inmem_apply_tps_10x", median(inmem_tps_10x));
    run.metric("lsm_apply_tps_10x", median(lsm_tps_10x));
    run.metric("digest_match_10x", static_cast<std::uint64_t>(digests_match_10x ? 1 : 0));
    run.metric("lsm_regression_pct_10x", regression_pct);
    run.metric("lsm_regression_pct_10x_min", *regression_min);
    run.metric("lsm_regression_pct_10x_max", *regression_max);
    run.metric("apply_reps_10x", static_cast<std::uint64_t>(kReps));
    std::printf("\nLSM throughput cost at 10x state: median %.1f%% of %d paired runs "
                "(min %.1f%%, max %.1f%%; acceptance: median < 10%%)\n",
                regression_pct, kReps, *regression_min, *regression_max);

    // --- 1b: state-engine-only costs (warm sigcache, ungated) -------------------
    // With the signature work cached away, only the backend's own lookup /
    // mutate / journal cost remains — the view that exposes what the LSM
    // engine actually charges per spend. "hot" replays the headline chained
    // workload (young spends, memtable-resident); "cold" spends prefilled
    // outpoints in creation order so every lookup digs into the on-disk runs.
    {
        const std::size_t kColdBlocks = quick ? 4 : 8;
        const auto cold =
            build_cold_workload(prefill_10x, signers, kColdBlocks, kTxsPerBlock);
        {
            UtxoSet cache_warmer;
            load_prefill(cache_warmer, prefill_10x);
            connect_workload(cache_warmer, cold, rules);
        }
        bench::Table engine_only(
            {"pattern", "backend", "txs", "tx/s", "lsm-cost"});
        for (const bool is_cold : {false, true}) {
            const auto& pattern = is_cold ? cold : workload;
            const double txs = static_cast<double>(
                (is_cold ? kColdBlocks : kWorkBlocks) * kTxsPerBlock);
            double inmem_tps = 0, lsm_tps = 0;
            for (const bool persistent : {false, true}) {
                TempDir dir(std::string(persistent ? "lsm" : "mem") +
                            (is_cold ? "-cold" : "-hot"));
                UtxoSet utxo = [&] {
                    if (!persistent) return UtxoSet();
                    storage::LsmOptions options;
                    options.fsync = storage::FsyncMode::kNever;
                    return UtxoSet(
                        std::make_unique<storage::LsmBackend>(dir.path, options));
                }();
                load_prefill(utxo, prefill_10x);
                const double tps = bench::rate_per_sec(
                    txs, connect_workload(utxo, pattern, rules));
                (persistent ? lsm_tps : inmem_tps) = tps;
                run.metric(std::string(persistent ? "lsm" : "inmem") +
                               (is_cold ? "_cold" : "_hot") + "_apply_tps_10x",
                           tps);
            }
            const double pct =
                inmem_tps > 0 ? 100.0 * (inmem_tps - lsm_tps) / inmem_tps : 0;
            run.metric(std::string(is_cold ? "lsm_cold" : "lsm_hot") +
                           "_regression_pct_10x",
                       pct);
            engine_only.row({is_cold ? "cold (deep spends)" : "hot (young spends)",
                             "memory vs lsm",
                             bench::fmt_int(static_cast<std::uint64_t>(txs)),
                             bench::fmt(inmem_tps, 0) + " vs " +
                                 bench::fmt(lsm_tps, 0),
                             bench::fmt(pct, 1) + "%"});
        }
        std::printf("\nState-engine-only (signatures cached, ungated):\n");
        engine_only.print();
    }

    // --- 2: parallel snapshot encode vs the serial seed path --------------------
    {
        if (ThreadPool::global_workers() == 0) ThreadPool::set_global_workers(3);
        const int reps = 5;
        double serial_best = 1e18, parallel_best = 1e18;
        Bytes serial_bytes, parallel_bytes;
        for (int r = 0; r < reps; ++r) {
            bench::Timer t;
            // The seed's encode: gather everything, sort once, serialize once,
            // all on the calling thread.
            auto all = snapshot_subject.export_all();
            std::sort(all.begin(), all.end(),
                      [](const auto& a, const auto& b) { return a.first < b.first; });
            Writer w;
            w.varint(all.size());
            for (const auto& [op, out] : all) {
                op.encode(w);
                out.encode(w);
            }
            serial_best = std::min(serial_best, t.elapsed_s());
            serial_bytes = std::move(w).take();

            t.restart();
            Writer pw;
            snapshot_subject.encode(pw); // per-shard parallel path
            parallel_best = std::min(parallel_best, t.elapsed_s());
            parallel_bytes = std::move(pw).take();
        }
        const bool identical = serial_bytes == parallel_bytes;
        if (!identical) std::printf("!! parallel snapshot bytes diverge from serial\n");
        const double speedup = parallel_best > 0 ? serial_best / parallel_best : 0;
        bench::Table snap({"encode-path", "entries", "ms", "speedup"});
        snap.row({"serial sort-all", bench::fmt_int(snapshot_subject.size()),
                  bench::fmt(1e3 * serial_best, 2), "1.00"});
        snap.row({"sharded parallel", bench::fmt_int(snapshot_subject.size()),
                  bench::fmt(1e3 * parallel_best, 2), bench::fmt(speedup, 2)});
        std::printf("\n");
        snap.print();
        run.metric("snapshot_serial_ms", 1e3 * serial_best);
        run.metric("snapshot_parallel_ms", 1e3 * parallel_best);
        run.metric("snapshot_parallel_speedup", speedup);
        run.metric("snapshot_bytes_identical",
                   static_cast<std::uint64_t>(identical ? 1 : 0));
        run.metric("snapshot_threads", ThreadPool::global_workers() + 1);
    }

    // --- 3: recovery — engine tag vs full WAL replay (the E21 axis) -------------
    const Block genesis = make_genesis("e28", easy_bits(2));
    const int kChain = quick ? 60 : 300;
    const auto chain = build_node_chain(genesis, kChain);
    {
        bench::Table recovery({"engine", "replayed-records", "reopen-ms"});
        TempDir mem_dir("node-mem");
        TempDir lsm_dir("node-lsm");
        core::PersistentNodeOptions mem_options;
        mem_options.fsync = storage::FsyncMode::kNever;
        core::PersistentNodeOptions lsm_options = mem_options;
        lsm_options.state_engine = core::StateEngine::kPersistent;

        Bytes live_digest;
        {
            core::PersistentNode node(mem_dir.path, genesis, mem_options);
            for (const auto& b : chain) node.connect_block(b);
            live_digest = scaling::serialize_utxo(node.utxo());
        }
        {
            core::PersistentNode node(lsm_dir.path, genesis, lsm_options);
            for (const auto& b : chain) node.connect_block(b);
        }

        bench::Timer t;
        core::PersistentNode mem_node(mem_dir.path, genesis, mem_options);
        const double mem_ms = 1e3 * t.elapsed_s();
        t.restart();
        core::PersistentNode lsm_node(lsm_dir.path, genesis, lsm_options);
        const double lsm_ms = 1e3 * t.elapsed_s();

        recovery.row({"in-memory (full WAL replay)",
                      bench::fmt_int(mem_node.recovery().wal_records_replayed),
                      bench::fmt(mem_ms, 2)});
        recovery.row({"lsm (engine tag + suffix)",
                      bench::fmt_int(lsm_node.recovery().wal_records_replayed),
                      bench::fmt(lsm_ms, 2)});
        std::printf("\n");
        recovery.print();

        const bool recovered_match =
            scaling::serialize_utxo(lsm_node.utxo()) == live_digest &&
            scaling::serialize_utxo(mem_node.utxo()) == live_digest;
        if (!recovered_match) std::printf("!! recovered digests diverge from live\n");
        run.metric("inmem_replay_ms", mem_ms);
        run.metric("lsm_recovery_ms", lsm_ms);
        run.metric("lsm_recovery_replayed", lsm_node.recovery().wal_records_replayed);
        run.metric("recovered_digest_match",
                   static_cast<std::uint64_t>(recovered_match ? 1 : 0));
    }

    // --- 4: pruning — block files drop once a snapshot covers them --------------
    {
        TempDir dir("node-prune");
        core::PersistentNodeOptions options;
        options.fsync = storage::FsyncMode::kNever;
        options.state_engine = core::StateEngine::kPersistent;
        options.prune_blocks = true;
        options.snapshots_to_keep = 1;
        Bytes live_digest;
        std::uint64_t before = 0, after = 0;
        {
            core::PersistentNode node(dir.path, genesis, options);
            for (const auto& b : chain) node.connect_block(b);
            live_digest = scaling::serialize_utxo(node.utxo());
            before = dir_file_bytes(dir.path);
            node.snapshot(); // prunes blocks below the snapshot height
            after = dir_file_bytes(dir.path);
            if (node.block_store().pruned_below() != static_cast<std::uint64_t>(kChain))
                std::printf("!! unexpected prune floor\n");
        }
        core::PersistentNode node(dir.path, genesis, options);
        const bool match = scaling::serialize_utxo(node.utxo()) == live_digest;
        if (!match) std::printf("!! post-prune recovery digest mismatch\n");
        const std::uint64_t reclaimed = before > after ? before - after : 0;
        std::printf("\nPruning: %llu bytes on disk -> %llu (reclaimed %llu), "
                    "tip digest %s after restart\n",
                    static_cast<unsigned long long>(before),
                    static_cast<unsigned long long>(after),
                    static_cast<unsigned long long>(reclaimed),
                    match ? "intact" : "MISMATCH");
        run.metric("prune_bytes_reclaimed", reclaimed);
        run.metric("pruned_digest_match", static_cast<std::uint64_t>(match ? 1 : 0));
    }

    std::printf("\nExpected shape: lsm apply throughput within 10%% of memory at "
                "10x state; parallel snapshot encode 2x+ over the serial sort; "
                "lsm reopen replays ~0 records vs the full journal; pruning "
                "reclaims most block-file bytes with an intact digest.\n");
    return 0;
}
