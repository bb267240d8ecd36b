// E21 — persistency layer (paper §3.1 "Dependable", §5.4 bootstrap): a node
// must survive restarts without replaying the world. Measures (1) durable
// block-connect throughput through the WAL-journaled PersistentNode, with and
// without per-commit fsync, and the fsyncs one durable connect costs (exactly
// 2: the block file, then the node WAL), (2) reopen/recovery time — full WAL
// replay vs snapshot + short replay, and (3) cold vs warm reads through the
// BlockStore's LRU decoded-block cache.
#include <filesystem>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/persistent_node.hpp"
#include "ledger/difficulty.hpp"
#include "obs/metrics.hpp"
#include "scaling/bootstrap.hpp"
#include "storage/blockstore.hpp"

using namespace dlt;
using namespace dlt::ledger;

namespace {

crypto::Address addr(const std::string& seed) {
    return crypto::PrivateKey::from_seed(seed).address();
}

// Blocks with a coinbase plus `payload_txs` opaque record transactions, the
// body weight a real chain would carry.
std::vector<Block> build_chain(const Block& genesis, int n, int payload_txs) {
    std::vector<Block> blocks;
    blocks.reserve(static_cast<std::size_t>(n));
    Hash256 prev = genesis.hash();
    std::uint64_t nonce = 0;
    for (int i = 1; i <= n; ++i) {
        Block b;
        b.header.prev_hash = prev;
        b.header.height = static_cast<std::uint64_t>(i);
        b.header.timestamp = 10.0 * i;
        b.txs.push_back(make_coinbase(addr("e21-miner"),
                                      block_subsidy(static_cast<std::uint64_t>(i)),
                                      static_cast<std::uint64_t>(i)));
        for (int t = 0; t < payload_txs; ++t) {
            Transaction tx;
            tx.kind = TxKind::kRecord;
            tx.nonce = nonce++;
            tx.data = Bytes(400, static_cast<std::uint8_t>(t));
            b.txs.push_back(tx);
        }
        b.header.merkle_root = b.compute_merkle_root();
        blocks.push_back(std::move(b));
        prev = blocks.back().hash();
    }
    return blocks;
}

std::uint64_t chain_bytes(const std::vector<Block>& blocks) {
    std::uint64_t total = 0;
    for (const auto& b : blocks) total += b.serialized_size();
    return total;
}

struct TempDir {
    std::filesystem::path path;
    explicit TempDir(const std::string& tag) {
        path = std::filesystem::temp_directory_path() / ("dlt-bench-e21-" + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

} // namespace

int main() {
    bench::Run run("E21");
    bench::ObsEnv obs_env;
    bench::title("E21: persistency layer (§3.1 dependable, §5.4 bootstrap)",
                 "Claim: WAL-journaled storage sustains high durable write rates, "
                 "recovery replays the journal (snapshots shorten it), and the "
                 "LRU block cache turns repeat reads into memory hits.");

    const Block genesis = make_genesis("e21", easy_bits(2));
    const int kBlocks = 1500;
    const auto blocks = build_chain(genesis, kBlocks, 10);
    const double total_mb = static_cast<double>(chain_bytes(blocks)) / (1024.0 * 1024.0);

    // --- 1: durable write throughput -------------------------------------------
    bench::Table writes({"fsync-mode", "blocks", "MB", "seconds", "blocks/s", "MB/s",
                         "fsyncs/connect"});
    const obs::Counter& fsyncs = obs::MetricsRegistry::global().counter(
        "storage_fsyncs_total", "fsync calls on storage files and directories");
    double replay_dir_seconds = 0;
    {
        TempDir dir("fsync");
        core::PersistentNodeOptions options;
        options.fsync = storage::FsyncMode::kAlways;
        bench::Timer t;
        core::PersistentNode node(dir.path, genesis, options);
        const std::uint64_t fsyncs_before = fsyncs.value();
        for (const auto& b : blocks) node.connect_block(b);
        const double s = t.elapsed_s();
        const double per_connect =
            static_cast<double>(fsyncs.value() - fsyncs_before) / kBlocks;
        writes.row({"always", bench::fmt_int(kBlocks), bench::fmt(total_mb),
                    bench::fmt(s, 3), bench::fmt(kBlocks / s, 0),
                    bench::fmt(total_mb / s), bench::fmt(per_connect)});
        run.metric("write_fsync_blocks_per_s", kBlocks / s);
        run.metric("write_fsync_mb_per_s", total_mb / s);
        run.metric("fsyncs_per_connect", per_connect);

        // --- 2a: reopen with full-journal replay --------------------------------
        t.restart();
        core::PersistentNode reopened(dir.path, genesis);
        replay_dir_seconds = t.elapsed_s();
        if (reopened.height() != static_cast<std::uint64_t>(kBlocks) ||
            reopened.recovery().wal_records_replayed != static_cast<std::uint64_t>(kBlocks))
            std::printf("!! full replay recovered unexpected state\n");
        run.metric("reopen_full_replay_s", replay_dir_seconds);
        run.metric("reopen_full_replay_records",
                   reopened.recovery().wal_records_replayed);
    }
    {
        TempDir dir("nofsync");
        core::PersistentNodeOptions options;
        options.fsync = storage::FsyncMode::kNever;
        bench::Timer t;
        core::PersistentNode node(dir.path, genesis, options);
        const std::uint64_t fsyncs_before = fsyncs.value();
        for (const auto& b : blocks) node.connect_block(b);
        const double s = t.elapsed_s();
        writes.row({"never", bench::fmt_int(kBlocks), bench::fmt(total_mb),
                    bench::fmt(s, 3), bench::fmt(kBlocks / s, 0),
                    bench::fmt(total_mb / s),
                    bench::fmt(static_cast<double>(fsyncs.value() - fsyncs_before) /
                               kBlocks)});
        run.metric("write_nofsync_blocks_per_s", kBlocks / s);
        run.metric("write_nofsync_mb_per_s", total_mb / s);
    }
    writes.print();

    // --- 2b: snapshot shortens recovery ----------------------------------------
    bench::Table recovery({"recovery-path", "replayed-records", "seconds"});
    {
        TempDir dir("snap");
        core::PersistentNodeOptions options;
        options.fsync = storage::FsyncMode::kNever;
        {
            core::PersistentNode node(dir.path, genesis, options);
            for (int i = 0; i < kBlocks - 100; ++i)
                node.connect_block(blocks[static_cast<std::size_t>(i)]);
            node.snapshot();
            for (int i = kBlocks - 100; i < kBlocks; ++i)
                node.connect_block(blocks[static_cast<std::size_t>(i)]);
        }
        bench::Timer t;
        core::PersistentNode node(dir.path, genesis);
        const double s = t.elapsed_s();
        recovery.row({"snapshot + tail replay",
                      bench::fmt_int(node.recovery().wal_records_replayed),
                      bench::fmt(s, 4)});
        recovery.row({"full journal replay", bench::fmt_int(kBlocks),
                      bench::fmt(replay_dir_seconds, 4)});
        run.metric("reopen_snapshot_replay_s", s);
        run.metric("reopen_snapshot_replay_records",
                   node.recovery().wal_records_replayed);

        // E14 tie-in: the disk snapshot is bootstrap-compatible.
        const scaling::Checkpoint cp = node.checkpoint();
        const ledger::UtxoSet restored = scaling::restore_snapshot(cp);
        if (restored.size() != node.utxo().size())
            std::printf("!! disk checkpoint restore mismatch\n");
    }
    recovery.print();

    // --- 3: cold vs warm block reads through the LRU cache ----------------------
    bench::Table reads({"pass", "reads", "seconds", "us/read", "hit-rate"});
    {
        TempDir dir("cache");
        {
            storage::BlockStore store(dir.path);
            UtxoSet state;
            state.apply_block(genesis);
            for (const auto& b : blocks) store.append(b, state.apply_block(b));
        }
        storage::BlockStoreOptions options;
        options.cache_capacity = 256;
        storage::BlockStore store(dir.path, options);

        Rng rng(21);
        std::vector<Hash256> hot;
        for (int i = 0; i < 256; ++i)
            hot.push_back(blocks[rng.uniform(static_cast<std::uint64_t>(kBlocks))].hash());

        const int kReads = 20000;
        bench::Timer t;
        for (int i = 0; i < kReads; ++i)
            (void)store.read_block(hot[static_cast<std::size_t>(i) % hot.size()]);
        const double cold_s = t.elapsed_s();
        const auto cold = store.stats();
        reads.row({"first touch + reuse", bench::fmt_int(kReads), bench::fmt(cold_s, 4),
                   bench::fmt(1e6 * cold_s / kReads, 3),
                   bench::fmt(static_cast<double>(cold.cache_hits) /
                                  static_cast<double>(cold.cache_hits + cold.cache_misses),
                              3)});

        t.restart();
        for (int i = 0; i < kReads; ++i)
            (void)store.read_block(hot[static_cast<std::size_t>(i) % hot.size()]);
        const double warm_s = t.elapsed_s();
        const auto warm = store.stats();
        const double warm_hits = static_cast<double>(warm.cache_hits - cold.cache_hits);
        reads.row({"warm (all cached)", bench::fmt_int(kReads), bench::fmt(warm_s, 4),
                   bench::fmt(1e6 * warm_s / kReads, 3),
                   bench::fmt(warm_hits / kReads, 3)});

        run.metric("cold_read_us", 1e6 * cold_s / kReads);
        run.metric("warm_read_us", 1e6 * warm_s / kReads);
        run.metric("warm_hit_rate", warm_hits / kReads);
        run.metric("cache_evictions", warm.cache_evictions);
    }
    reads.print();

    std::printf("\nExpected shape: fsync=never writes an order of magnitude faster "
                "than fsync=always, which costs exactly 2 fsyncs per connect (block "
                "file + node WAL); snapshot recovery replays ~100 records instead "
                "of the whole journal; warm reads are pure memory hits, orders of "
                "magnitude under the cold decode path.\n");
    return 0;
}
