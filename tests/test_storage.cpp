// Tests for the persistency layer (src/storage + core::PersistentNode):
// CRC framing, LRU cache eviction, WAL torn-tail repair at every truncation
// offset, BlockStore reopen/index rebuild, atomic snapshots with
// corrupt-input rejection, and the crash-recovery matrix — a node killed via
// CrashInjector at arbitrary write offsets must reopen to a state equal to a
// never-crashed reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/persistent_node.hpp"
#include "crypto/keys.hpp"
#include "ledger/difficulty.hpp"
#include "scaling/bootstrap.hpp"
#include "storage/blockstore.hpp"
#include "storage/crc32.hpp"
#include "storage/file.hpp"
#include "storage/lru.hpp"
#include "storage/recordio.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace {

using namespace dlt;
using namespace dlt::ledger;
using namespace dlt::storage;

// All artifacts live under a per-test storage::TempDir, removed on scope
// exit — nothing leaks into the source tree or CWD.

crypto::Address addr(const std::string& seed) {
    return crypto::PrivateKey::from_seed(seed).address();
}

Block test_genesis() { return make_genesis("storage-test", easy_bits(2)); }

// A deterministic chain of `n` valid blocks on top of `genesis`: every block
// carries a coinbase, and every third block additionally spends the coinbase
// of the block two back (so undo records contain both spends and creates).
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

// A competing branch of `n` coinbase-only blocks forked off `parent` (which
// sits at `parent_height`). Distinct miner seeds keep the hashes disjoint
// from the main chain's blocks at the same heights.
std::vector<Block> build_fork(const Block& parent, std::uint64_t parent_height, int n,
                              const std::string& tag) {
    std::vector<Block> blocks;
    Hash256 prev = parent.hash();
    for (int i = 1; i <= n; ++i) {
        const std::uint64_t h = parent_height + static_cast<std::uint64_t>(i);
        Block b;
        b.header.prev_hash = prev;
        b.header.height = h;
        b.header.timestamp = 10.0 * static_cast<double>(h) + 5.0;
        b.txs.push_back(make_coinbase(addr(tag + "-" + std::to_string(i)),
                                      block_subsidy(h), h));
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

// --- CRC32C ------------------------------------------------------------------------

TEST(Crc32c, KnownCheckValue) {
    const std::string msg = "123456789";
    const ByteView view{reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
    EXPECT_EQ(crc32c(view), 0xE3069283u); // the CRC-32C check value
}

TEST(Crc32c, SeedChains) {
    const Bytes data{1, 2, 3, 4, 5, 6};
    const auto whole = crc32c(ByteView(data));
    const auto first = crc32c(ByteView(data).subspan(0, 3));
    const auto chained = crc32c(ByteView(data).subspan(3), first);
    EXPECT_EQ(whole, chained);
}

// The 32-byte vectors of RFC 3720 appendix B.4 (iSCSI), which uses the
// same polynomial, bit order and inversions.
TEST(Crc32c, Rfc3720Vectors) {
    Bytes ascending(32), descending(32);
    for (std::uint8_t i = 0; i < 32; ++i) {
        ascending[i] = i;
        descending[i] = static_cast<std::uint8_t>(31 - i);
    }
    const Bytes zeros(32, 0x00), ones(32, 0xFF);
    for (const auto crc : {&crc32c, &crc32c_table}) {
        EXPECT_EQ(crc(ByteView(zeros), 0), 0x8A9136AAu);
        EXPECT_EQ(crc(ByteView(ones), 0), 0x62A8AB43u);
        EXPECT_EQ(crc(ByteView(ascending), 0), 0x46DD794Eu);
        EXPECT_EQ(crc(ByteView(descending), 0), 0x113FDB5Cu);
    }
}

// Whichever path crc32c() takes on this CPU (crc32c_hardware() says which),
// it must agree with the table loop at every length, alignment and seed, and
// across any split of one buffer into chained pieces.
TEST(Crc32c, MatchesTheTableLoopOnEveryLengthOffsetAndSplit) {
    RecordProperty("hardware_path", crc32c_hardware() ? "sse4.2" : "table");
    Rng rng(20);
    Bytes buf(4096 + 8);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t len = 0; len <= 4096; ++len) {
        for (std::size_t off = 0; off < 8; ++off) {
            const ByteView view = ByteView(buf).subspan(off, len);
            const auto seed = static_cast<std::uint32_t>(rng.next());
            ASSERT_EQ(crc32c(view, seed), crc32c_table(view, seed))
                << "len " << len << " offset " << off;
        }
        const ByteView whole = ByteView(buf).subspan(0, len);
        const auto cut = static_cast<std::size_t>(rng.uniform(len + 1));
        const auto chained = crc32c(whole.subspan(cut), crc32c(whole.subspan(0, cut)));
        ASSERT_EQ(chained, crc32c_table(whole)) << "len " << len << " cut " << cut;
    }
}

// --- LRU cache ---------------------------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed) {
    LruCache<int, std::string> cache(2);
    cache.put(1, "a");
    cache.put(2, "b");
    ASSERT_TRUE(cache.get(1).has_value()); // 1 is now most recent
    cache.put(3, "c");                     // evicts 2
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_FALSE(cache.get(2).has_value());
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Lru, RefreshingExistingKeyDoesNotEvict) {
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.put(1, 11); // refresh, not insert
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(*cache.get(1), 11);
    EXPECT_TRUE(cache.contains(2));
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(Lru, ZeroCapacityDisablesCaching) {
    LruCache<int, int> cache(0);
    cache.put(1, 10);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get(1).has_value());
}

// --- WAL ---------------------------------------------------------------------------

TEST(Wal, AppendReopenRoundTrip) {
    TempDir dir("storage-test");
    const auto path = dir.path / "wal.log";
    {
        Wal wal(path);
        EXPECT_EQ(wal.append(1, Bytes{0xAA}), 1u);
        EXPECT_EQ(wal.append(2, Bytes{0xBB, 0xCC}), 2u);
        EXPECT_EQ(wal.append(1, Bytes{}), 3u);
    }
    Wal wal(path);
    const std::vector<WalRecord> records = wal.take_records();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].seq, 1u);
    EXPECT_EQ(records[0].type, 1);
    EXPECT_EQ(records[0].payload, (Bytes{0xAA}));
    EXPECT_EQ(records[1].payload, (Bytes{0xBB, 0xCC}));
    EXPECT_EQ(records[2].payload, Bytes{});
    EXPECT_TRUE(wal.take_records().empty()); // handed over once; the log keeps no copy
    EXPECT_EQ(wal.open_stats().records_recovered, 3u);
    EXPECT_EQ(wal.open_stats().truncated_bytes, 0u);
    EXPECT_EQ(wal.append(1, Bytes{0xDD}), 4u); // sequence continues
}

TEST(Wal, TornTailTruncatedAtEveryOffset) {
    // Write a log of known record sizes, then re-open after truncating the
    // file to every possible length. The recovered prefix must always be the
    // set of records whose frames fit entirely below the cut.
    TempDir dir("storage-test");
    const auto path = dir.path / "wal.log";
    std::vector<std::uint64_t> boundaries{0}; // file size after k records
    {
        Wal wal(path);
        for (int k = 0; k < 5; ++k) {
            wal.append(1, Bytes(static_cast<std::size_t>(3 * k + 1), 0x5A));
            boundaries.push_back(wal.size_bytes());
        }
    }
    const std::uint64_t full_size = boundaries.back();
    const Bytes image = read_file(path);
    ASSERT_EQ(image.size(), full_size);

    for (std::uint64_t cut = 0; cut <= full_size; ++cut) {
        const auto trimmed = dir.path / "wal-cut.log";
        {
            std::ofstream out(trimmed, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char*>(image.data()),
                      static_cast<std::streamsize>(cut));
        }
        std::size_t expect_records = 0;
        while (expect_records + 1 < boundaries.size() &&
               boundaries[expect_records + 1] <= cut)
            ++expect_records;

        Wal wal(trimmed);
        EXPECT_EQ(wal.take_records().size(), expect_records) << "cut at " << cut;
        EXPECT_EQ(wal.open_stats().truncated_bytes, cut - boundaries[expect_records])
            << "cut at " << cut;
        // The torn tail must be physically gone so new appends start clean.
        EXPECT_EQ(wal.size_bytes(), boundaries[expect_records]) << "cut at " << cut;
        std::filesystem::remove(trimmed);
    }
}

TEST(Wal, CrashInjectorTearsExactlyAtBudget) {
    TempDir dir("storage-test");
    const auto path = dir.path / "wal.log";
    CrashInjector injector;
    WalOptions options;
    options.injector = &injector;
    Wal wal(path, options);
    wal.append(1, Bytes{1, 2, 3});

    injector.arm(5); // the second record tears 5 bytes into its frame
    EXPECT_THROW(wal.append(1, Bytes{4, 5, 6}), CrashError);
    EXPECT_TRUE(injector.crashed());
    EXPECT_THROW(wal.append(1, Bytes{7}), CrashError); // dead stays dead

    Wal recovered(path);
    const std::vector<WalRecord> records = recovered.take_records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].payload, (Bytes{1, 2, 3}));
    EXPECT_EQ(recovered.open_stats().truncated_bytes, 5u);
}

TEST(Wal, ResetKeepsSequenceMonotonic) {
    TempDir dir("storage-test");
    const auto path = dir.path / "wal.log";
    Wal wal(path);
    wal.append(1, Bytes{1});
    wal.append(1, Bytes{2});
    wal.reset();
    EXPECT_EQ(wal.size_bytes(), 0u);
    EXPECT_EQ(wal.append(1, Bytes{3}), 3u); // continues past the reset
    Wal reopened(path);
    const std::vector<WalRecord> records = reopened.take_records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].seq, 3u);
}

// --- BlockStore --------------------------------------------------------------------

TEST(BlockStore, ReopenRebuildsIndex) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 12);

    UtxoSet state;
    state.apply_block(genesis);
    {
        BlockStore store(dir.path);
        for (const auto& b : blocks) store.append(b, state.apply_block(b));
        EXPECT_EQ(store.size(), blocks.size());
    }

    BlockStore store(dir.path);
    EXPECT_EQ(store.size(), blocks.size());
    EXPECT_EQ(store.stats().blocks_indexed, blocks.size());
    EXPECT_EQ(store.stats().truncated_bytes, 0u);

    const auto all = store.all_blocks();
    ASSERT_EQ(all.size(), blocks.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].first, blocks[i].hash());
        EXPECT_EQ(all[i].second, i + 1);
    }
    for (const auto& b : blocks) {
        const auto read = store.read_block(b.hash());
        ASSERT_NE(read, nullptr);
        EXPECT_EQ(*read, b);
    }
    EXPECT_EQ(store.read_block(Hash256{}), nullptr);
}

TEST(BlockStore, UndoRecordsRoundTrip) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 9);

    UtxoSet state;
    state.apply_block(genesis);
    std::vector<UtxoUndo> undos;
    {
        BlockStore store(dir.path);
        for (const auto& b : blocks) {
            undos.push_back(state.apply_block(b));
            store.append(b, undos.back());
        }
    }
    // Undo records share the one block file: no second file, no second sync.
    EXPECT_FALSE(std::filesystem::exists(dir.path / "undo.dat"));
    BlockStore store(dir.path);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        EXPECT_EQ(store.read_undo(blocks[i].hash()), undos[i]);
    EXPECT_THROW(store.read_undo(Hash256{}), StorageError);
}

TEST(BlockStore, CorruptTailRecordDroppedOnReopen) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 4);
    UtxoSet state;
    state.apply_block(genesis);
    std::uint64_t third_block_end = 0;
    {
        BlockStore store(dir.path);
        for (int i = 0; i < 3; ++i) store.append(blocks[i], state.apply_block(blocks[i]));
        third_block_end = std::filesystem::file_size(dir.path / "blocks.dat");
        store.append(blocks[3], state.apply_block(blocks[3]));
    }
    // Flip one payload byte inside the last append's first record (its undo):
    // the scan stops there, so the block frame behind it goes too.
    {
        Bytes image = read_file(dir.path / "blocks.dat");
        image[third_block_end + kRecordHeaderSize + 7] ^= 0x01;
        write_file_atomic(dir.path / "blocks.dat", ByteView(image));
    }
    BlockStore store(dir.path);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_GT(store.stats().truncated_bytes, 0u);
    EXPECT_EQ(store.read_block(blocks[3].hash()), nullptr);
    EXPECT_NE(store.read_block(blocks[2].hash()), nullptr);
    // The store keeps working: the dropped block can simply be re-appended.
    UtxoSet replay;
    replay.apply_block(genesis);
    for (int i = 0; i < 3; ++i) replay.apply_block(blocks[i]);
    store.append(blocks[3], replay.apply_block(blocks[3]));
    EXPECT_EQ(*store.read_block(blocks[3].hash()), blocks[3]);
}

// A directory in the older layout (BLK1 block frames beside undo.dat) is
// refused before anything is truncated: its first frame would otherwise read
// as a torn tail, and the whole block file would go.
TEST(BlockStore, OlderTwoFileLayoutIsRefusedUntouched) {
    TempDir dir("storage-test");
    const auto blocks = build_chain(test_genesis(), 3);
    Bytes image;
    for (const auto& b : blocks) {
        const Bytes frame = frame_record(0x424C4B31, encode_to_bytes(b)); // "BLK1"
        image.insert(image.end(), frame.begin(), frame.end());
    }
    write_file_atomic(dir.path / "blocks.dat", ByteView(image));
    EXPECT_THROW(BlockStore store(dir.path), StorageError);
    EXPECT_EQ(read_file(dir.path / "blocks.dat"), image);

    // An undo.dat marks the older layout too, whatever the block file holds.
    TempDir other("storage-test");
    {
        BlockStore store(other.path);
        UtxoSet state;
        state.apply_block(test_genesis());
        store.append(blocks[0], state.apply_block(blocks[0]));
    }
    const Bytes current = read_file(other.path / "blocks.dat");
    write_file_atomic(other.path / "undo.dat", ByteView{});
    EXPECT_THROW(BlockStore store(other.path), StorageError);
    EXPECT_EQ(read_file(other.path / "blocks.dat"), current);
}

TEST(BlockStore, LruCacheColdAndWarmReads) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 6);
    UtxoSet state;
    state.apply_block(genesis);
    {
        BlockStore store(dir.path);
        for (const auto& b : blocks) store.append(b, state.apply_block(b));
    }

    BlockStoreOptions options;
    options.cache_capacity = 2;
    BlockStore store(dir.path, options);
    // Cold: every first read misses.
    for (const auto& b : blocks) ASSERT_NE(store.read_block(b.hash()), nullptr);
    EXPECT_EQ(store.stats().cache_hits, 0u);
    EXPECT_EQ(store.stats().cache_misses, blocks.size());
    // Warm: the two most recent blocks hit, an older one misses again.
    ASSERT_NE(store.read_block(blocks[5].hash()), nullptr);
    ASSERT_NE(store.read_block(blocks[4].hash()), nullptr);
    EXPECT_EQ(store.stats().cache_hits, 2u);
    ASSERT_NE(store.read_block(blocks[0].hash()), nullptr);
    EXPECT_EQ(store.stats().cache_misses, blocks.size() + 1);
    EXPECT_GT(store.stats().cache_evictions, 0u);
}

// --- Snapshots ---------------------------------------------------------------------

TEST(Snapshot, SaveLoadRoundTripAndCheckpointCompat) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 5);
    UtxoSet state;
    state.apply_block(genesis);
    for (const auto& b : blocks) state.apply_block(b);

    SnapshotManager mgr(dir.path / "snaps");
    const Snapshot snap = SnapshotManager::make(state, 5, blocks[4].hash(), 42);
    const auto path = mgr.save(snap);
    EXPECT_TRUE(std::filesystem::exists(path));

    const Snapshot loaded = mgr.load(path);
    EXPECT_EQ(loaded.height, 5u);
    EXPECT_EQ(loaded.block_hash, blocks[4].hash());
    EXPECT_EQ(loaded.wal_seq, 42u);
    EXPECT_EQ(loaded.utxo_snapshot, snap.utxo_snapshot);

    // Digest-verified restore through the bootstrap path.
    const UtxoSet restored = scaling::restore_snapshot(loaded.to_checkpoint());
    EXPECT_EQ(restored.size(), state.size());
    EXPECT_EQ(restored.total_value(), state.total_value());
}

TEST(Snapshot, EveryByteFlipIsRejected) {
    // Property-style corruption sweep: flipping any single byte of the
    // snapshot file must make the strict loader throw — never crash, never
    // silently accept.
    TempDir dir("storage-test");
    UtxoSet state;
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 3);
    state.apply_block(genesis);
    for (const auto& b : blocks) state.apply_block(b);

    SnapshotManager mgr(dir.path / "snaps");
    const auto path = mgr.save(SnapshotManager::make(state, 3, blocks[2].hash(), 7));
    const Bytes original = read_file(path);
    ASSERT_FALSE(original.empty());

    for (std::size_t i = 0; i < original.size(); ++i) {
        Bytes mutated = original;
        mutated[i] ^= 0x40;
        write_file_atomic(path, ByteView(mutated));
        EXPECT_THROW(mgr.load(path), Error) << "flipped byte " << i;
    }
    // Truncations are rejected too.
    for (const std::size_t keep : {std::size_t{0}, std::size_t{5}, original.size() - 1}) {
        Bytes truncated(original.begin(),
                        original.begin() + static_cast<std::ptrdiff_t>(keep));
        write_file_atomic(path, ByteView(truncated));
        EXPECT_THROW(mgr.load(path), Error) << "truncated to " << keep;
    }
}

TEST(Snapshot, LoadLatestFallsBackPastCorruptFiles) {
    TempDir dir("storage-test");
    UtxoSet state;
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 4);
    state.apply_block(genesis);
    state.apply_block(blocks[0]);

    SnapshotManager mgr(dir.path / "snaps");
    mgr.save(SnapshotManager::make(state, 1, blocks[0].hash(), 1));
    state.apply_block(blocks[1]);
    const auto newest = mgr.save(SnapshotManager::make(state, 2, blocks[1].hash(), 2));

    // Corrupt the newest snapshot; load_latest must fall back to height 1.
    Bytes raw = read_file(newest);
    raw[raw.size() / 2] ^= 0xFF;
    write_file_atomic(newest, ByteView(raw));

    const auto loaded = mgr.load_latest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->height, 1u);
}

TEST(Snapshot, PruneKeepsNewest) {
    TempDir dir("storage-test");
    UtxoSet state;
    SnapshotManager mgr(dir.path / "snaps");
    for (std::uint64_t h = 1; h <= 5; ++h)
        mgr.save(SnapshotManager::make(state, h, Hash256{}, h));
    mgr.prune(2);
    const auto remaining = mgr.list();
    ASSERT_EQ(remaining.size(), 2u);
    EXPECT_NE(remaining[0].string().find("snapshot-4"), std::string::npos);
    EXPECT_NE(remaining[1].string().find("snapshot-5"), std::string::npos);
}

// --- Hardened snapshot decoding ----------------------------------------------------

TEST(UtxoCodec, UndoRoundTrip) {
    UtxoUndo undo;
    undo.spent.emplace_back(OutPoint{Hash256::from_hex_str(std::string(64, 'a')), 1},
                            TxOutput{1234, addr("x")});
    undo.created.push_back(OutPoint{Hash256::from_hex_str(std::string(64, 'b')), 7});
    Writer w;
    undo.encode(w);
    Reader r(ByteView(w.data()));
    EXPECT_EQ(UtxoUndo::decode(r), undo);
    r.expect_done();
}

TEST(UtxoCodec, TruncatedSnapshotRejected) {
    UtxoSet state;
    const Block genesis = test_genesis();
    state.apply_block(genesis);
    const auto blocks = build_chain(genesis, 3);
    for (const auto& b : blocks) state.apply_block(b);
    const Bytes raw = scaling::serialize_utxo(state);

    for (const std::size_t keep : {std::size_t{0}, raw.size() / 2, raw.size() - 1}) {
        const ByteView view = ByteView(raw).subspan(0, keep);
        EXPECT_THROW(scaling::deserialize_utxo(view), DecodeError) << "kept " << keep;
    }
    // Trailing garbage is rejected as well.
    Bytes padded = raw;
    padded.push_back(0x00);
    EXPECT_THROW(scaling::deserialize_utxo(ByteView(padded)), DecodeError);
}

TEST(UtxoCodec, HugeDeclaredCountRejectedBeforeAllocation) {
    Writer w;
    w.varint(0xFFFFFFFFFFFFull); // claims trillions of entries, provides none
    EXPECT_THROW(scaling::deserialize_utxo(ByteView(w.data())), DecodeError);
}

// --- PersistentNode ----------------------------------------------------------------

using core::PersistentNode;
using core::PersistentNodeOptions;

TEST(PersistentNode, StateSurvivesCleanRestart) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 20);

    UtxoSet reference;
    reference.apply_block(genesis);
    for (const auto& b : blocks) reference.apply_block(b);

    {
        PersistentNode node(dir.path, genesis);
        for (const auto& b : blocks) node.connect_block(b);
        EXPECT_EQ(node.height(), 20u);
    }
    PersistentNode node(dir.path, genesis);
    EXPECT_EQ(node.height(), 20u);
    EXPECT_EQ(node.tip(), blocks.back().hash());
    EXPECT_FALSE(node.recovery().from_snapshot);
    EXPECT_EQ(node.recovery().wal_records_replayed, 20u);
    EXPECT_EQ(scaling::serialize_utxo(node.utxo()), scaling::serialize_utxo(reference));
}

TEST(PersistentNode, SnapshotShortensReplay) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 15);
    {
        PersistentNode node(dir.path, genesis);
        for (int i = 0; i < 10; ++i) node.connect_block(blocks[i]);
        node.snapshot();
        for (int i = 10; i < 15; ++i) node.connect_block(blocks[i]);
    }
    PersistentNode node(dir.path, genesis);
    EXPECT_TRUE(node.recovery().from_snapshot);
    EXPECT_EQ(node.recovery().snapshot_height, 10u);
    EXPECT_EQ(node.recovery().wal_records_replayed, 5u);
    EXPECT_EQ(node.height(), 15u);
    EXPECT_EQ(node.tip(), blocks.back().hash());
}

TEST(PersistentNode, DisconnectBelowSnapshotUsesDurableUndo) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 10);

    UtxoSet reference;
    reference.apply_block(genesis);
    std::vector<Bytes> state_at; // serialized UTXO after each height
    state_at.push_back(scaling::serialize_utxo(reference));
    for (const auto& b : blocks) {
        reference.apply_block(b);
        state_at.push_back(scaling::serialize_utxo(reference));
    }

    {
        PersistentNode node(dir.path, genesis);
        for (const auto& b : blocks) node.connect_block(b);
        node.snapshot(); // snapshot at height 10
    }
    PersistentNode node(dir.path, genesis);
    ASSERT_TRUE(node.recovery().from_snapshot);
    // Walk back below the snapshot height using persisted undo data.
    for (int i = 0; i < 4; ++i) node.disconnect_tip();
    EXPECT_EQ(node.height(), 6u);
    EXPECT_EQ(node.tip(), blocks[5].hash());
    EXPECT_EQ(scaling::serialize_utxo(node.utxo()), state_at[6]);
    // And forward again: reconnect the same blocks.
    for (int i = 6; i < 10; ++i) node.connect_block(blocks[static_cast<std::size_t>(i)]);
    EXPECT_EQ(node.height(), 10u);
    EXPECT_EQ(scaling::serialize_utxo(node.utxo()), state_at[10]);
}

TEST(PersistentNode, RejectsBlockOffTip) {
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 3);
    PersistentNode node(dir.path, genesis);
    node.connect_block(blocks[0]);
    EXPECT_THROW(node.connect_block(blocks[2]), ValidationError);
    EXPECT_EQ(node.height(), 1u);
}

// The acceptance-criterion test: crash the node at write offsets covering
// every WAL record boundary and many mid-record positions, across a workload
// of connects and disconnects. After every crash the reopened node must be in
// the state a never-crashed reference held just before or just after the op
// the cut fell in — so no committed op is lost — and must be able to finish
// the workload to the identical final state.
TEST(PersistentNode, CrashRecoveryMatrix) {
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 8);

    // Workload script: connect 6, disconnect 2 (a reorg rollback), reconnect.
    struct Op {
        bool connect;
        std::size_t block; // index into `blocks` for connects
    };
    std::vector<Op> script;
    for (std::size_t i = 0; i < 6; ++i) script.push_back({true, i});
    script.push_back({false, 0});
    script.push_back({false, 0});
    for (std::size_t i = 4; i < 8; ++i) script.push_back({true, i});

    // Reference (never crashed, purely in memory): state after each op.
    std::vector<std::pair<Hash256, Bytes>> ref_states; // tip -> serialized utxo
    {
        UtxoSet state;
        state.apply_block(genesis);
        std::vector<std::pair<Hash256, UtxoUndo>> undo_stack;
        Hash256 tip = genesis.hash();
        ref_states.emplace_back(tip, scaling::serialize_utxo(state));
        for (const auto& op : script) {
            if (op.connect) {
                const Block& b = blocks[op.block];
                undo_stack.emplace_back(b.hash(), state.apply_block(b));
                tip = b.hash();
            } else {
                state.undo_block(undo_stack.back().second);
                undo_stack.pop_back();
                tip = undo_stack.empty() ? genesis.hash() : undo_stack.back().first;
            }
            ref_states.emplace_back(tip, scaling::serialize_utxo(state));
        }
    }

    // Dry run to learn the total byte volume the workload writes and where
    // each op's writes end.
    std::vector<std::uint64_t> op_end;
    {
        TempDir dir("storage-test");
        CrashInjector probe;
        PersistentNodeOptions options;
        options.injector = &probe;
        PersistentNode node(dir.path, genesis, options);
        for (const auto& op : script) {
            if (op.connect)
                node.connect_block(blocks[op.block]);
            else
                node.disconnect_tip();
            op_end.push_back(probe.total_written());
        }
        ASSERT_EQ(node.tip(), ref_states.back().first);
    }
    const std::uint64_t total_bytes = op_end.back();
    ASSERT_GT(total_bytes, 0u);

    // Crash at byte budgets sweeping the whole write stream (prime stride so
    // offsets drift across record boundaries), plus the exact endpoints.
    std::vector<std::uint64_t> budgets{0, 1, total_bytes - 1};
    for (std::uint64_t b = 2; b < total_bytes; b += 97) budgets.push_back(b);

    for (const std::uint64_t budget : budgets) {
        TempDir dir("storage-test");
        CrashInjector injector;
        injector.arm(budget);
        PersistentNodeOptions options;
        options.injector = &injector;
        {
            PersistentNode node(dir.path, genesis, options);
            try {
                for (const auto& op : script) {
                    if (op.connect)
                        node.connect_block(blocks[op.block]);
                    else
                        node.disconnect_tip();
                }
            } catch (const CrashError&) {
                // killed mid-write — expected for every budget < total_bytes
            }
        }

        // Reopen without fault injection: recovery must land next to the op
        // the cut fell in, with matching chain state.
        PersistentNode node(dir.path, genesis);
        const std::size_t cut = op_cut_at(op_end, budget);
        const auto resume = recovered_op(ref_states, cut, node);
        ASSERT_TRUE(resume.has_value())
            << "budget " << budget << ": recovered state is neither just before "
            << "nor just after op " << cut;

        // The recovered node must be able to finish the workload and reach
        // the reference's final state exactly.
        for (std::size_t i = *resume; i < script.size(); ++i) {
            if (script[i].connect)
                node.connect_block(blocks[script[i].block]);
            else
                node.disconnect_tip();
        }
        EXPECT_EQ(node.tip(), ref_states.back().first) << "budget " << budget;
        EXPECT_EQ(scaling::serialize_utxo(node.utxo()), ref_states.back().second)
            << "budget " << budget;
    }
}

// The stride matrix above samples the write stream; E27's crash-during-reorg
// cells demand more: a node killed at *every* record boundary (undo, block,
// WAL) inside a disconnect/connect reorg window — where the replacement chain
// is a genuine fork, not a re-extension of the rolled-back blocks — must
// recover to the reference state just before or just after the op the cut
// fell in and finish the reorg. Each boundary is hit twice: clean (budget
// lands exactly between records, so the next record is refused whole) and
// torn (the boundary record loses its last byte).
TEST(PersistentNode, CrashMatrixAtEveryWalBoundaryInReorgWindow) {
    const Block genesis = test_genesis();
    const auto main_chain = build_chain(genesis, 6);
    // Fork off height 3: rollback depth 3, replacement branch of 4.
    const auto fork = build_fork(main_chain[2], 3, 4, "fork-miner");

    struct Op {
        bool connect;
        const Block* block; // null for disconnects
    };
    std::vector<Op> script;
    for (const auto& b : main_chain) script.push_back({true, &b});
    const std::size_t window_begin = script.size();
    for (int i = 0; i < 3; ++i) script.push_back({false, nullptr});
    for (const auto& b : fork) script.push_back({true, &b});

    // Reference (never crashed, purely in memory): state after each op.
    std::vector<std::pair<Hash256, Bytes>> ref_states;
    {
        UtxoSet state;
        state.apply_block(genesis);
        std::vector<std::pair<Hash256, UtxoUndo>> undo_stack;
        Hash256 tip = genesis.hash();
        ref_states.emplace_back(tip, scaling::serialize_utxo(state));
        for (const auto& op : script) {
            if (op.connect) {
                undo_stack.emplace_back(op.block->hash(), state.apply_block(*op.block));
                tip = op.block->hash();
            } else {
                state.undo_block(undo_stack.back().second);
                undo_stack.pop_back();
                tip = undo_stack.empty() ? genesis.hash() : undo_stack.back().first;
            }
            ref_states.emplace_back(tip, scaling::serialize_utxo(state));
        }
    }

    // Dry run: learn the exact record-boundary offsets and where the reorg
    // window starts in the write stream.
    std::uint64_t window_start_bytes = 0;
    std::vector<std::uint64_t> window_boundaries;
    std::vector<std::uint64_t> op_end;
    {
        TempDir dir("storage-test");
        CrashInjector probe;
        PersistentNodeOptions options;
        options.injector = &probe;
        PersistentNode node(dir.path, genesis, options);
        for (std::size_t i = 0; i < script.size(); ++i) {
            if (i == window_begin) window_start_bytes = probe.total_written();
            if (script[i].connect)
                node.connect_block(*script[i].block);
            else
                node.disconnect_tip();
            op_end.push_back(probe.total_written());
        }
        ASSERT_EQ(node.tip(), ref_states.back().first);
        for (const std::uint64_t b : probe.write_boundaries())
            if (b > window_start_bytes) window_boundaries.push_back(b);
    }
    // 3 disconnects (one WAL record each) + 4 connects (undo + block + WAL).
    ASSERT_EQ(window_boundaries.size(), 3u + 4u * 3u);

    for (const std::uint64_t boundary : window_boundaries) {
        for (const std::uint64_t budget : {boundary, boundary - 1}) {
            TempDir dir("storage-test");
            CrashInjector injector;
            injector.arm(budget);
            PersistentNodeOptions options;
            options.injector = &injector;
            {
                PersistentNode node(dir.path, genesis, options);
                try {
                    for (const auto& op : script) {
                        if (op.connect)
                            node.connect_block(*op.block);
                        else
                            node.disconnect_tip();
                    }
                } catch (const CrashError&) {
                    // killed at (or one byte short of) the boundary
                }
            }

            PersistentNode node(dir.path, genesis);
            const std::size_t cut = op_cut_at(op_end, budget);
            const auto resume = recovered_op(ref_states, cut, node);
            ASSERT_TRUE(resume.has_value())
                << "budget " << budget << ": recovered state is neither just before "
                << "nor just after op " << cut;

            for (std::size_t i = *resume; i < script.size(); ++i) {
                if (script[i].connect)
                    node.connect_block(*script[i].block);
                else
                    node.disconnect_tip();
            }
            EXPECT_EQ(node.tip(), ref_states.back().first) << "budget " << budget;
            EXPECT_EQ(scaling::serialize_utxo(node.utxo()), ref_states.back().second)
                << "budget " << budget;
        }
    }
}

TEST(PersistentNode, CrashDuringSnapshotWindowIsSafe) {
    // A crash between snapshot save and WAL reset must not double-apply
    // journaled blocks: replay skips records the snapshot already covers.
    TempDir dir("storage-test");
    const Block genesis = test_genesis();
    const auto blocks = build_chain(genesis, 6);
    {
        PersistentNode node(dir.path, genesis);
        for (const auto& b : blocks) node.connect_block(b);
        // Simulate the crash window: write the snapshot by hand, leaving the
        // WAL full (exactly the state between save() and reset()).
        SnapshotManager mgr(dir.path / "snapshots");
        mgr.save(SnapshotManager::make(node.utxo(), node.height(), node.tip(), 6));
    }
    PersistentNode node(dir.path, genesis);
    EXPECT_TRUE(node.recovery().from_snapshot);
    EXPECT_EQ(node.recovery().wal_records_replayed, 0u); // all skipped via seq
    EXPECT_EQ(node.height(), 6u);
    EXPECT_EQ(node.tip(), blocks.back().hash());
}

} // namespace
