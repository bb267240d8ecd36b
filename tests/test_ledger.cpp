// Tests for the ledger (data layer): transactions, blocks, difficulty encoding
// and retargeting, the UTXO set with apply/undo, chain store branch tracking
// (longest-chain and GHOST selection), mempool policy, block validation, and
// the block builder every engine produces blocks with.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "ledger/block.hpp"
#include "ledger/chain.hpp"
#include "ledger/difficulty.hpp"
#include "ledger/mempool.hpp"
#include "ledger/transaction.hpp"
#include "ledger/utxo.hpp"
#include "ledger/validation.hpp"
#include "storage/lsm_backend.hpp"

namespace {

using namespace dlt;
using namespace dlt::ledger;
using crypto::PrivateKey;
using crypto::U256;

const PrivateKey kAlice = PrivateKey::from_seed("alice");
const PrivateKey kBob = PrivateKey::from_seed("bob");
const PrivateKey kMiner = PrivateKey::from_seed("miner");

// --- Transactions ------------------------------------------------------------------

TEST(Transaction, SerializationRoundTrip) {
    Transaction tx = make_transfer({OutPoint{crypto::sha256(to_bytes("prev")), 1}},
                                   {TxOutput{5 * kCoin, kBob.address()}});
    tx.declared_fee = 1000;
    tx.sign_with(kAlice);
    const Bytes encoded = encode_to_bytes(tx);
    EXPECT_EQ(decode_from_bytes<Transaction>(encoded), tx);
}

TEST(Transaction, TxidCoversSignature) {
    Transaction tx = make_transfer({OutPoint{crypto::sha256(to_bytes("p")), 0}},
                                   {TxOutput{kCoin, kBob.address()}});
    const Hash256 before = tx.txid();
    tx.sign_with(kAlice);
    EXPECT_NE(tx.txid(), before);
}

TEST(Transaction, SighashExcludesSignatureButCoversPubkey) {
    Transaction tx = make_transfer({OutPoint{crypto::sha256(to_bytes("p")), 0}},
                                   {TxOutput{kCoin, kBob.address()}});
    tx.sign_with(kAlice);
    const Hash256 signed_hash = tx.sighash();

    // Stripping signatures leaves the sighash unchanged... (direct field
    // mutation requires dropping the hash caches, per the documented contract)
    Transaction stripped = tx;
    for (auto& in : stripped.inputs) in.signature.clear();
    stripped.invalidate_txid_cache();
    EXPECT_EQ(stripped.sighash(), signed_hash);

    // ...but the pubkey is committed (swapping it changes the message).
    Transaction swapped = tx;
    swapped.inputs[0].pubkey = kBob.public_key().encode();
    swapped.invalidate_txid_cache();
    EXPECT_NE(swapped.sighash(), signed_hash);
}

TEST(Transaction, SignVerify) {
    Transaction tx = make_transfer({OutPoint{crypto::sha256(to_bytes("p")), 0}},
                                   {TxOutput{kCoin, kBob.address()}});
    EXPECT_FALSE(tx.verify_signatures()); // unsigned
    tx.sign_with(kAlice);
    EXPECT_TRUE(tx.verify_signatures());
    tx.outputs[0].value += 1; // tamper after signing
    tx.invalidate_txid_cache();
    EXPECT_FALSE(tx.verify_signatures());
}

TEST(Transaction, AccountFamilySignVerify) {
    Transaction tx = make_record(kAlice.public_key(), 7, to_bytes("record"));
    tx.sign_with(kAlice);
    EXPECT_TRUE(tx.verify_signatures());
    tx.nonce = 8;
    tx.invalidate_txid_cache();
    EXPECT_FALSE(tx.verify_signatures());
}

TEST(Transaction, CoinbaseNeedsNoSignature) {
    const Transaction cb = make_coinbase(kMiner.address(), kInitialSubsidy, 1);
    EXPECT_TRUE(cb.verify_signatures());
    EXPECT_TRUE(cb.is_coinbase());
}

TEST(Transaction, CoinbasesAtDifferentHeightsDiffer) {
    EXPECT_NE(make_coinbase(kMiner.address(), kInitialSubsidy, 1).txid(),
              make_coinbase(kMiner.address(), kInitialSubsidy, 2).txid());
}

// --- Blocks ------------------------------------------------------------------------

TEST(Block, HeaderHashChangesWithNonce) {
    BlockHeader h;
    const Hash256 before = h.hash();
    h.nonce = 1;
    h.invalidate_hash_cache(); // direct mutation after hash(): documented contract
    EXPECT_NE(h.hash(), before);
}

TEST(Block, HeaderHashCacheInvalidation) {
    // The cache must survive copies and be dropped on invalidate.
    BlockHeader h;
    h.bits = 0x207fffff;
    const Hash256 original = h.hash();
    BlockHeader copy = h; // copies the cached hash
    EXPECT_EQ(copy.hash(), original);
    copy.nonce = 99;
    copy.invalidate_hash_cache();
    EXPECT_NE(copy.hash(), original);
    EXPECT_EQ(h.hash(), original); // the source header is untouched
    // Equality ignores the cache: a never-hashed header with equal fields
    // compares equal to a hashed one.
    BlockHeader fresh;
    fresh.bits = 0x207fffff;
    EXPECT_EQ(fresh, h);
}

TEST(Block, SerializationRoundTrip) {
    Block b = make_genesis("test", easy_bits(4));
    b.txs.push_back(make_coinbase(kMiner.address(), kInitialSubsidy, 0));
    b.header.merkle_root = b.compute_merkle_root();
    EXPECT_EQ(decode_from_bytes<Block>(encode_to_bytes(b)), b);
}

TEST(Block, GenesisIsDeterministicPerTag) {
    EXPECT_EQ(make_genesis("a", easy_bits(4)).hash(), make_genesis("a", easy_bits(4)).hash());
    EXPECT_NE(make_genesis("a", easy_bits(4)).hash(), make_genesis("b", easy_bits(4)).hash());
}

// --- Difficulty ----------------------------------------------------------------------

TEST(Difficulty, CompactRoundTripOnBitcoinGenesisBits) {
    const std::uint32_t bits = 0x1d00ffff; // Bitcoin's genesis difficulty
    const U256 target = compact_to_target(bits);
    EXPECT_EQ(target_to_compact(target), bits);
    EXPECT_EQ(target.hex(),
              "00000000ffff0000000000000000000000000000000000000000000000000000");
}

TEST(Difficulty, EasyBitsMatchShift) {
    const U256 target = compact_to_target(easy_bits(8));
    // Compact encoding truncates the mantissa; high byte must match max>>8.
    EXPECT_LE(target, U256::max() >> 8);
    EXPECT_GT(target, U256::max() >> 10);
}

TEST(Difficulty, HashMeetsTargetBoundary) {
    const U256 target = U256::from_hex("0fffffffffffffffffffffffffffffffffffffff"
                                       "ffffffffffffffffffffffff");
    Hash256 under{};
    under[0] = 0x0f;
    EXPECT_TRUE(hash_meets_target(under, target));
    Hash256 over{};
    over[0] = 0x10;
    EXPECT_FALSE(hash_meets_target(over, target));
}

TEST(Difficulty, RetargetRaisesDifficultyWhenBlocksTooFast) {
    RetargetParams params;
    const std::uint32_t bits = easy_bits(16);
    // Blocks came in 2x too fast -> target halves (difficulty doubles).
    const std::uint32_t harder = retarget(
        bits, params.target_spacing * params.interval_blocks / 2.0, params);
    EXPECT_LT(compact_to_target(harder), compact_to_target(bits));
}

TEST(Difficulty, RetargetClampsAdjustment) {
    RetargetParams params;
    params.max_adjustment = 4.0;
    const std::uint32_t bits = easy_bits(16);
    const U256 before = compact_to_target(bits);
    // 100x too fast is clamped to a 4x harder target.
    const U256 after = compact_to_target(retarget(
        bits, params.target_spacing * params.interval_blocks / 100.0, params));
    const U256 ratio = before / after;
    EXPECT_GE(ratio, U256(3));
    EXPECT_LE(ratio, U256(5));
}

TEST(Difficulty, WorkGrowsAsTargetShrinks) {
    EXPECT_GT(work_from_target(U256::max() >> 20), work_from_target(U256::max() >> 10));
}

// --- UTXO ---------------------------------------------------------------------------

Block chain_block(const Block& parent, std::vector<Transaction> txs, Amount fees = 0) {
    Block b;
    b.header.prev_hash = parent.hash();
    b.header.height = parent.header.height + 1;
    b.txs.push_back(
        make_coinbase(kMiner.address(), block_subsidy(b.header.height) + fees,
                      b.header.height));
    for (auto& tx : txs) b.txs.push_back(std::move(tx));
    b.header.merkle_root = b.compute_merkle_root();
    return b;
}

TEST(Utxo, CoinbaseCreatesSpendableOutput) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    utxo.apply_block(b1);
    EXPECT_EQ(utxo.size(), 1u);
    EXPECT_EQ(utxo.balance_of(kMiner.address()), block_subsidy(1));
}

TEST(Utxo, TransferMovesValueAndPaysFee) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    utxo.apply_block(b1);

    const auto coins = utxo.coins_of(kMiner.address());
    ASSERT_EQ(coins.size(), 1u);
    Transaction spend = make_transfer(
        {coins[0].first}, {TxOutput{coins[0].second.value - 1000, kAlice.address()}});
    spend.sign_with(kMiner);

    UtxoUndo undo;
    EXPECT_EQ(utxo.check_and_apply(spend, undo), 1000);
    EXPECT_EQ(utxo.balance_of(kAlice.address()), coins[0].second.value - 1000);
    EXPECT_EQ(utxo.balance_of(kMiner.address()), 0);
}

TEST(Utxo, DoubleSpendRejected) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    utxo.apply_block(chain_block(genesis, {}));
    const auto coins = utxo.coins_of(kMiner.address());
    Transaction spend = make_transfer({coins[0].first},
                                      {TxOutput{kCoin, kAlice.address()}});
    UtxoUndo undo;
    utxo.check_and_apply(spend, undo);
    Transaction again = make_transfer({coins[0].first},
                                      {TxOutput{kCoin, kBob.address()}});
    EXPECT_THROW(utxo.check_transaction(again), ValidationError);
}

TEST(Utxo, IntraTransactionDuplicateInputRejected) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    utxo.apply_block(chain_block(genesis, {}));
    const auto coins = utxo.coins_of(kMiner.address());
    const Transaction bad = make_transfer({coins[0].first, coins[0].first},
                                          {TxOutput{kCoin, kAlice.address()}});
    EXPECT_THROW(utxo.check_transaction(bad), ValidationError);
}

TEST(Utxo, OutputsExceedingInputsRejected) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    utxo.apply_block(chain_block(genesis, {}));
    const auto coins = utxo.coins_of(kMiner.address());
    const Transaction bad = make_transfer(
        {coins[0].first}, {TxOutput{coins[0].second.value + 1, kAlice.address()}});
    EXPECT_THROW(utxo.check_transaction(bad), ValidationError);
}

TEST(Utxo, UndoBlockRestoresExactState) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    utxo.apply_block(b1);

    const auto coins = utxo.coins_of(kMiner.address());
    Transaction spend = make_transfer(
        {coins[0].first}, {TxOutput{coins[0].second.value / 2, kAlice.address()},
                           TxOutput{coins[0].second.value / 2, kBob.address()}});
    const Block b2 = chain_block(b1, {spend});
    const Amount miner_before = utxo.balance_of(kMiner.address());
    const std::size_t size_before = utxo.size();

    const UtxoUndo undo = utxo.apply_block(b2);
    EXPECT_NE(utxo.size(), size_before);
    utxo.undo_block(undo);
    EXPECT_EQ(utxo.size(), size_before);
    EXPECT_EQ(utxo.balance_of(kMiner.address()), miner_before);
    EXPECT_EQ(utxo.balance_of(kAlice.address()), 0);
}

TEST(Utxo, UndoKeepsCoinTheBlockDidNotCreate) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    utxo.apply_block(b1);
    const OutPoint first{b1.txs[0].txid(), 0};

    // A second block repeating the first block's coinbase: its output is
    // already present, so the block must not claim it in its undo record.
    Block b2 = chain_block(b1, {});
    b2.txs[0] = b1.txs[0];
    b2.header.merkle_root = b2.compute_merkle_root();
    const UtxoUndo undo = utxo.apply_block(b2);
    utxo.undo_block(undo);

    EXPECT_TRUE(utxo.contains(first));
    EXPECT_EQ(utxo.size(), 1u);
    EXPECT_EQ(utxo.total_value(), block_subsidy(1));
}

TEST(Utxo, FailedBlockLeavesStateUnchanged) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    utxo.apply_block(chain_block(genesis, {}));
    const std::size_t size_before = utxo.size();

    // Second tx in the block double-spends the first's input.
    const auto coins = utxo.coins_of(kMiner.address());
    const Transaction t1 = make_transfer({coins[0].first},
                                         {TxOutput{kCoin, kAlice.address()}});
    const Transaction t2 = make_transfer({coins[0].first},
                                         {TxOutput{kCoin, kBob.address()}});
    Block bad;
    bad.txs = {t1, t2};
    EXPECT_THROW(utxo.apply_block(bad), ValidationError);
    EXPECT_EQ(utxo.size(), size_before);
    EXPECT_TRUE(utxo.contains(coins[0].first));
}

TEST(Utxo, IntraBlockChainingWorks) {
    UtxoSet utxo;
    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    utxo.apply_block(chain_block(genesis, {}));
    const auto coins = utxo.coins_of(kMiner.address());

    Transaction t1 = make_transfer({coins[0].first},
                                   {TxOutput{coins[0].second.value, kAlice.address()}});
    // t2 spends t1's output inside the same block.
    Transaction t2 = make_transfer({OutPoint{t1.txid(), 0}},
                                   {TxOutput{coins[0].second.value, kBob.address()}});
    Block b;
    b.txs = {t1, t2};
    utxo.apply_block(b);
    EXPECT_EQ(utxo.balance_of(kBob.address()), coins[0].second.value);
}

// Recompute every address's balance and coin set from a full export_all() scan
// and compare against the indexed accessors. Guards the address index through
// apply/undo cycles.
void expect_address_index_matches_scan(const UtxoSet& utxo,
                                       const std::vector<crypto::Address>& addrs) {
    std::map<crypto::Address, Amount> balances;
    std::map<crypto::Address, std::set<std::pair<Hash256, std::uint32_t>>> coins;
    for (const auto& [op, out] : utxo.export_all()) {
        balances[out.recipient] += out.value;
        coins[out.recipient].insert({op.txid, op.index});
    }
    for (const auto& addr : addrs) {
        EXPECT_EQ(utxo.balance_of(addr), balances[addr]) << addr.hex();
        std::set<std::pair<Hash256, std::uint32_t>> indexed;
        for (const auto& [op, out] : utxo.coins_of(addr)) {
            EXPECT_EQ(out.recipient, addr);
            indexed.insert({op.txid, op.index});
        }
        EXPECT_EQ(indexed, coins[addr]) << addr.hex();
    }
}

TEST(Utxo, AddressIndexConsistentAcrossReorg) {
    UtxoSet utxo;
    const std::vector<crypto::Address> addrs = {
        kMiner.address(), kAlice.address(), kBob.address(),
        PrivateKey::from_seed("never-funded").address()};

    const Block genesis = make_genesis("utxo-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    utxo.apply_block(b1);
    expect_address_index_matches_scan(utxo, addrs);

    // b2 splits the miner's coinbase between Alice and Bob.
    const auto miner_coins = utxo.coins_of(kMiner.address());
    ASSERT_EQ(miner_coins.size(), 1u);
    const Amount half = miner_coins[0].second.value / 2;
    Transaction split = make_transfer({miner_coins[0].first},
                                      {TxOutput{half, kAlice.address()},
                                       TxOutput{half, kBob.address()}});
    const Block b2 = chain_block(b1, {split});
    const UtxoUndo undo2 = utxo.apply_block(b2);
    expect_address_index_matches_scan(utxo, addrs);

    // b3 moves Alice's coin on to Bob.
    const auto alice_coins = utxo.coins_of(kAlice.address());
    ASSERT_EQ(alice_coins.size(), 1u);
    Transaction sweep = make_transfer({alice_coins[0].first},
                                      {TxOutput{half, kBob.address()}});
    const Block b3 = chain_block(b2, {sweep});
    const UtxoUndo undo3 = utxo.apply_block(b3);
    expect_address_index_matches_scan(utxo, addrs);
    EXPECT_EQ(utxo.balance_of(kAlice.address()), 0);
    EXPECT_EQ(utxo.balance_of(kBob.address()), 2 * half);

    // Reorg: roll back b3 then b2; the index must follow exactly.
    utxo.undo_block(undo3);
    expect_address_index_matches_scan(utxo, addrs);
    EXPECT_EQ(utxo.balance_of(kAlice.address()), half);

    utxo.undo_block(undo2);
    expect_address_index_matches_scan(utxo, addrs);
    EXPECT_EQ(utxo.balance_of(kAlice.address()), 0);
    EXPECT_EQ(utxo.balance_of(kBob.address()), 0);
    EXPECT_EQ(utxo.balance_of(kMiner.address()), miner_coins[0].second.value);

    // Re-apply the branch: apply after undo is a clean round trip.
    utxo.apply_block(b2);
    expect_address_index_matches_scan(utxo, addrs);
    EXPECT_EQ(utxo.balance_of(kBob.address()), half);
}

// --- ChainStore -----------------------------------------------------------------------

struct ChainFixture {
    Block genesis = make_genesis("chain-test", easy_bits(2));
    ChainStore store{genesis};

    Block extend(const Block& parent, std::uint64_t salt) {
        Block b;
        b.header.prev_hash = parent.hash();
        b.header.height = parent.header.height + 1;
        b.header.nonce = salt;
        b.header.merkle_root = b.compute_merkle_root();
        store.insert(b, U256::one());
        return b;
    }
};

TEST(ChainStore, TracksHeightAndWork) {
    ChainFixture f;
    const Block b1 = f.extend(f.genesis, 1);
    const Block b2 = f.extend(b1, 2);
    EXPECT_EQ(f.store.find(b2.hash())->height, 2u);
    EXPECT_EQ(f.store.find(b2.hash())->cumulative_work, U256(3));
}

TEST(ChainStore, RejectsOrphanInsert) {
    ChainFixture f;
    Block orphan;
    orphan.header.prev_hash = crypto::sha256(to_bytes("unknown"));
    EXPECT_THROW(f.store.insert(orphan, U256::one()), ValidationError);
}

TEST(ChainStore, DuplicateInsertReturnsFalse) {
    ChainFixture f;
    const Block b1 = f.extend(f.genesis, 1);
    EXPECT_FALSE(f.store.insert(b1, U256::one()));
}

TEST(ChainStore, LongestChainWinsByWork) {
    ChainFixture f;
    const Block a1 = f.extend(f.genesis, 1);
    const Block b1 = f.extend(f.genesis, 2);
    const Block a2 = f.extend(a1, 3);
    EXPECT_EQ(f.store.best_tip_by_work(), a2.hash());
    (void)b1;
}

TEST(ChainStore, GhostPrefersHeavySubtreeOverLongChain) {
    ChainFixture f;
    // Branch A: a1 - a2 - a3 (long, thin).
    const Block a1 = f.extend(f.genesis, 1);
    const Block a2 = f.extend(a1, 2);
    const Block a3 = f.extend(a2, 3);
    // Branch B: b1 with three children (heavy subtree: 4 blocks).
    const Block b1 = f.extend(f.genesis, 10);
    const Block b2a = f.extend(b1, 11);
    f.extend(b1, 12);
    f.extend(b1, 13);

    // Longest chain picks a3 (height 3); GHOST picks into branch B (weight 4 > 3).
    EXPECT_EQ(f.store.best_tip_by_work(), a3.hash());
    const Hash256 ghost_tip = f.store.best_tip_by_ghost();
    bool in_b = false;
    for (const auto& h : f.store.path_from_genesis(ghost_tip))
        if (h == b1.hash()) in_b = true;
    EXPECT_TRUE(in_b);
    (void)b2a;
}

TEST(ChainStore, FallsBackToTheBestValidTipBothRules) {
    ChainFixture f;
    // a1 - a2 - a3 is the most work and the heaviest subtree until a2 fails.
    const Block a1 = f.extend(f.genesis, 1);
    const Block a2 = f.extend(a1, 2);
    f.extend(a2, 3);
    const Block b1 = f.extend(f.genesis, 10);
    const Block b2 = f.extend(b1, 11);
    f.store.mark_invalid(a2.hash());
    // A block inserted later under the invalid one starts invalid.
    const Block a4 = f.extend(a2, 4);
    EXPECT_TRUE(f.store.find(a4.hash())->invalid);
    EXPECT_FALSE(f.store.find(a1.hash())->invalid);
    EXPECT_EQ(f.store.best_tip_by_work(), b2.hash());
    EXPECT_EQ(f.store.best_tip_by_ghost(), b2.hash());
    f.store.mark_invalid(b1.hash());
    EXPECT_EQ(f.store.best_tip_by_work(), a1.hash()); // a valid non-leaf
    EXPECT_EQ(f.store.best_tip_by_ghost(), a1.hash());
}

// GHOST as a walk that recounts every candidate's subtree on each call: the
// reference the store's kept subtree weights must reproduce.
std::size_t valid_subtree_by_walk(const ChainStore& store, const Hash256& root) {
    std::size_t count = 0;
    std::vector<Hash256> stack{root};
    while (!stack.empty()) {
        const Hash256 cur = stack.back();
        stack.pop_back();
        if (store.find(cur)->invalid) continue; // so is everything below it
        ++count;
        for (const auto& child : store.children(cur)) stack.push_back(child);
    }
    return count;
}

Hash256 ghost_by_walk(const ChainStore& store) {
    Hash256 cursor = store.genesis_hash();
    for (;;) {
        const Hash256* best = nullptr;
        std::size_t best_weight = 0;
        for (const auto& kid : store.children(cursor)) {
            const std::size_t weight = valid_subtree_by_walk(store, kid);
            if (weight > best_weight || (weight == best_weight && weight > 0 && kid < *best)) {
                best = &kid;
                best_weight = weight;
            }
        }
        if (best == nullptr) return cursor;
        cursor = *best;
    }
}

TEST(ChainStore, GhostMatchesTheRecountingWalkOnRandomTreesWithInvalidSubtrees) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        ChainFixture f;
        Rng rng(seed);
        std::vector<Block> blocks{f.genesis};
        for (int step = 0; step < 120; ++step) {
            if (blocks.size() > 1 && rng.uniform(10) == 0) {
                // Taint a random subtree, as a failed connect does.
                const Block& victim = blocks[1 + rng.index(blocks.size() - 1)];
                f.store.mark_invalid(victim.hash());
            } else {
                // Mostly extend recent blocks (deep chains), sometimes fork
                // anywhere, including under invalid blocks.
                const std::size_t n = blocks.size();
                const std::size_t parent = rng.uniform(3) == 0
                                               ? rng.index(n)
                                               : n - 1 - rng.index(std::min<std::size_t>(n, 4));
                blocks.push_back(f.extend(blocks[parent], seed * 1000 + step));
            }
            ASSERT_EQ(f.store.best_tip_by_ghost(), ghost_by_walk(f.store))
                << "seed " << seed << " step " << step;
            // Every block with a sibling carries its subtree's valid count.
            for (std::size_t i = 1; i < blocks.size(); ++i) {
                const Hash256 h = blocks[i].hash();
                if (f.store.children(blocks[i].header.prev_hash).size() < 2) continue;
                ASSERT_EQ(f.store.find(h)->valid_subtree, valid_subtree_by_walk(f.store, h))
                    << "seed " << seed << " step " << step;
            }
        }
    }
}

TEST(ChainStore, CommonAncestorAcrossBranches) {
    ChainFixture f;
    const Block a1 = f.extend(f.genesis, 1);
    const Block a2 = f.extend(a1, 2);
    const Block b1 = f.extend(a1, 3);
    EXPECT_EQ(f.store.common_ancestor(a2.hash(), b1.hash()), a1.hash());
    EXPECT_EQ(f.store.common_ancestor(a2.hash(), a2.hash()), a2.hash());
}

TEST(ChainStore, ReorgPathDisconnectsAndConnects) {
    ChainFixture f;
    const Block a1 = f.extend(f.genesis, 1);
    const Block a2 = f.extend(a1, 2);
    const Block b1 = f.extend(f.genesis, 3);
    const Block b2 = f.extend(b1, 4);
    const Block b3 = f.extend(b2, 5);

    const auto path = f.store.reorg_path(a2.hash(), b3.hash());
    ASSERT_EQ(path.disconnect.size(), 2u);
    EXPECT_EQ(path.disconnect[0], a2.hash()); // tip first
    EXPECT_EQ(path.disconnect[1], a1.hash());
    ASSERT_EQ(path.connect.size(), 3u);
    EXPECT_EQ(path.connect[0], b1.hash()); // oldest first
    EXPECT_EQ(path.connect[2], b3.hash());
}

TEST(ChainStore, StaleCountExcludesActivePath) {
    ChainFixture f;
    const Block a1 = f.extend(f.genesis, 1);
    const Block a2 = f.extend(a1, 2);
    f.extend(f.genesis, 3); // stale branch
    EXPECT_EQ(f.store.stale_count(a2.hash()), 1u);
}

// --- Mempool ----------------------------------------------------------------------

Transaction fee_tx(std::uint64_t salt, Amount fee) {
    Transaction tx = make_transfer({OutPoint{crypto::sha256(to_bytes("s" + std::to_string(salt))), 0}},
                                   {TxOutput{kCoin, kAlice.address()}});
    tx.declared_fee = fee;
    return tx;
}

TEST(Mempool, RejectsDuplicates) {
    Mempool pool;
    const Transaction tx = fee_tx(1, 100);
    EXPECT_TRUE(pool.add(tx));
    EXPECT_FALSE(pool.add(tx));
    EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, SelectsByFeeRate) {
    Mempool pool;
    pool.add(fee_tx(1, 100));
    pool.add(fee_tx(2, 10000));
    pool.add(fee_tx(3, 1000));
    const auto selected = pool.select(1'000'000, 2);
    ASSERT_EQ(selected.size(), 2u);
    EXPECT_EQ(selected[0].declared_fee, 10000);
    EXPECT_EQ(selected[1].declared_fee, 1000);
}

TEST(Mempool, RespectsByteBudget) {
    Mempool pool;
    for (int i = 0; i < 50; ++i) pool.add(fee_tx(i, 100 + i));
    const std::size_t one_size = fee_tx(0, 100).serialized_size();
    const auto selected = pool.select(one_size * 10 + 5);
    EXPECT_LE(selected.size(), 10u);
    EXPECT_GE(selected.size(), 9u);
}

TEST(Mempool, EvictsLowestFeeWhenFull) {
    Mempool pool(3);
    pool.add(fee_tx(1, 10));
    pool.add(fee_tx(2, 20));
    pool.add(fee_tx(3, 30));
    EXPECT_TRUE(pool.add(fee_tx(4, 40))); // evicts fee=10
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_FALSE(pool.add(fee_tx(5, 5))); // worse than everything
}

TEST(Mempool, RemoveConfirmedAndAddBack) {
    Mempool pool;
    const Transaction tx = fee_tx(1, 100);
    pool.add(tx);
    pool.remove_confirmed({tx.txid()});
    EXPECT_TRUE(pool.empty());
    pool.add_back({tx, make_coinbase(kMiner.address(), kCoin, 3)});
    EXPECT_EQ(pool.size(), 1u); // coinbase not re-added
}

// --- Validation -----------------------------------------------------------------------

TEST(Validation, MerkleRootMismatchRejected) {
    const Block genesis = make_genesis("val-test", easy_bits(2));
    Block b = chain_block(genesis, {});
    b.header.merkle_root[0] ^= 1;
    ValidationRules rules;
    EXPECT_THROW(check_block_structure(b, rules), ValidationError);
}

TEST(Validation, MissingCoinbaseRejected) {
    Block b;
    b.header.height = 1;
    b.header.merkle_root = b.compute_merkle_root();
    ValidationRules rules;
    EXPECT_THROW(check_block_structure(b, rules), ValidationError);
}

TEST(Validation, OversizedBlockRejected) {
    const Block genesis = make_genesis("val-test", easy_bits(2));
    Block b = chain_block(genesis, {});
    ValidationRules rules;
    rules.max_block_bytes = 10;
    EXPECT_THROW(check_block_structure(b, rules), ValidationError);
}

TEST(Validation, GreedyCoinbaseRejected) {
    UtxoSet utxo;
    const Block genesis = make_genesis("val-test", easy_bits(2));
    Block b;
    b.header.prev_hash = genesis.hash();
    b.header.height = 1;
    b.txs.push_back(make_coinbase(kMiner.address(), block_subsidy(1) + 1, 1));
    b.header.merkle_root = b.compute_merkle_root();
    ValidationRules rules;
    EXPECT_THROW(connect_block(b, utxo, rules), ValidationError);
    EXPECT_EQ(utxo.size(), 0u);
}

TEST(Validation, UnsignedTransferRejectedInFullMode) {
    UtxoSet utxo;
    const Block genesis = make_genesis("val-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    ValidationRules rules;
    connect_block(b1, utxo, rules);

    const auto coins = utxo.coins_of(kMiner.address());
    Transaction unsigned_tx = make_transfer({coins[0].first},
                                            {TxOutput{kCoin, kAlice.address()}});
    const Block b2 = chain_block(b1, {unsigned_tx});
    EXPECT_THROW(connect_block(b2, utxo, rules), ValidationError);

    rules.sig_mode = SigCheckMode::kSkip;
    EXPECT_NO_THROW(connect_block(b2, utxo, rules));
}

TEST(Validation, SignedChainConnects) {
    UtxoSet utxo;
    const Block genesis = make_genesis("val-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    ValidationRules rules;
    connect_block(b1, utxo, rules);

    const auto coins = utxo.coins_of(kMiner.address());
    Transaction spend = make_transfer(
        {coins[0].first}, {TxOutput{coins[0].second.value - 500, kAlice.address()}});
    spend.sign_with(kMiner);
    const Block b2 = chain_block(b1, {spend}, 500);
    EXPECT_NO_THROW(connect_block(b2, utxo, rules));
    EXPECT_EQ(utxo.balance_of(kAlice.address()), coins[0].second.value - 500);
}

/// `sig64` with s replaced by n - s: the high-s twin, which textbook ECDSA
/// also accepts.
Bytes high_s_twin(const Bytes& sig64) {
    auto sig = crypto::secp256k1::Signature::decode(sig64);
    sig.s = crypto::secp256k1::group_order() - sig.s;
    return sig.encode();
}

TEST(Validation, HighSTwinRejectedInFullMode) {
    UtxoSet utxo;
    const Block genesis = make_genesis("val-test", easy_bits(2));
    const Block b1 = chain_block(genesis, {});
    ValidationRules rules;
    ASSERT_EQ(rules.sig_mode, SigCheckMode::kFull);
    connect_block(b1, utxo, rules);

    const auto coins = utxo.coins_of(kMiner.address());
    Transaction spend = make_transfer(
        {coins[0].first}, {TxOutput{coins[0].second.value - 500, kAlice.address()}});
    spend.sign_with(kMiner);
    Transaction twin = spend;
    twin.inputs[0].signature = high_s_twin(spend.inputs[0].signature);
    twin.invalidate_txid_cache();
    ASSERT_NE(twin.txid(), spend.txid()); // txids cover signatures
    ASSERT_TRUE(kMiner.public_key().verify(
        twin.sighash(), crypto::secp256k1::Signature::decode(twin.inputs[0].signature)));

    Transaction record = make_record(kAlice.public_key(), 1, to_bytes("record"));
    record.sign_with(kAlice);
    Transaction record_twin = record;
    record_twin.account_signature = high_s_twin(record.account_signature);
    record_twin.invalidate_txid_cache();

    EXPECT_FALSE(twin.verify_signatures());
    EXPECT_FALSE(record_twin.verify_signatures());
    EXPECT_FALSE(verify_batch_signatures({twin}));
    EXPECT_FALSE(verify_batch_signatures({record_twin}));
    const Bytes before = encode_to_bytes(utxo);
    EXPECT_THROW(connect_block(chain_block(b1, {twin}, 500), utxo, rules), ValidationError);
    EXPECT_EQ(encode_to_bytes(utxo), before);

    EXPECT_TRUE(spend.verify_signatures());
    EXPECT_TRUE(record.verify_signatures());
    EXPECT_TRUE(verify_batch_signatures({spend, record}));
    EXPECT_NO_THROW(connect_block(chain_block(b1, {spend}, 500), utxo, rules));
    EXPECT_EQ(utxo.balance_of(kAlice.address()), coins[0].second.value - 500);
}

// --- Block builder ----------------------------------------------------------------

/// The copy-based template walk each engine ran before build_block existed,
/// kept as the reference the builder must match block for block.
Block build_block_by_copy(const BlockHeader& header, Mempool& mempool,
                          const UtxoSet& state, std::size_t max_bytes,
                          std::size_t max_txs) {
    mempool.expire(header.timestamp);
    const std::size_t budget = max_bytes > 512 ? max_bytes - 512 : max_bytes;
    const auto candidates = mempool.build_template(budget, max_txs);
    UtxoSet scratch = state;
    UtxoUndo scratch_undo;
    Amount fees = 0;
    std::vector<Transaction> chosen;
    for (const auto& entry : candidates) {
        try {
            fees += scratch.check_and_apply(*entry.tx, scratch_undo);
            chosen.push_back(*entry.tx);
        } catch (const ValidationError&) {
        }
    }
    Block block;
    block.header = header;
    block.txs.push_back(make_coinbase(header.proposer,
                                      block_subsidy(header.height) + fees, header.height));
    for (auto& tx : chosen) block.txs.push_back(std::move(tx));
    block.header.merkle_root = block.compute_merkle_root();
    return block;
}

using Coins = std::vector<std::pair<OutPoint, TxOutput>>;

/// The set's entries in outpoint order, so every backend draws the same coins.
Coins sorted_coins(const UtxoSet& state) {
    Coins coins = state.export_all();
    std::sort(coins.begin(), coins.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return coins;
}

/// A transfer of `spends` (worth `in_value`) paying `fee`; `serial` keeps
/// txids distinct.
Transaction pay(const std::vector<OutPoint>& spends, Amount in_value, Amount fee,
                std::uint64_t& serial) {
    Transaction tx = make_transfer(spends, {TxOutput{in_value - fee, kAlice.address()}});
    tx.nonce = ++serial;
    tx.declared_fee = fee;
    return tx;
}

/// Seeded pool traffic over `coins`: plain spends, chains whose child outbids
/// (so precedes) its parent, double-spend attempts, spends of unknown
/// outpoints, duplicate inputs, overspends, and records.
std::vector<Transaction> random_traffic(Rng& rng, const Coins& coins, std::size_t count,
                                        std::uint64_t& serial) {
    std::vector<Transaction> txs;
    const auto coin = [&]() -> const auto& { return coins[rng.index(coins.size())]; };
    const auto fee = [&] { return static_cast<Amount>(1'000 + rng.uniform(9'000)); };
    while (txs.size() < count) {
        const auto& [op, out] = coin();
        const Amount f = fee();
        switch (rng.uniform(8)) {
        case 0:
        case 1: {
            const auto& [op2, out2] = coin();
            txs.push_back(pay({op, op2}, out.value + out2.value, f, serial));
            break;
        }
        case 2: { // parent, child and grandchild; the child pays most
            const Transaction parent = pay({op}, out.value, f, serial);
            const Transaction child =
                pay({OutPoint{parent.txid(), 0}}, out.value - f, 10 * f, serial);
            const Transaction grandchild =
                pay({OutPoint{child.txid(), 0}}, out.value - 11 * f, f / 2, serial);
            txs.insert(txs.end(), {grandchild, child, parent});
            break;
        }
        case 3: { // a chain in feerate order: the child pays less
            const Transaction parent = pay({op}, out.value, f, serial);
            txs.push_back(parent);
            txs.push_back(pay({OutPoint{parent.txid(), 0}}, out.value - f, f / 2, serial));
            break;
        }
        case 4: // two spends of one coin: the pool keeps one (RBF or refusal)
            txs.push_back(pay({op}, out.value, f, serial));
            txs.push_back(pay({op}, out.value, rng.chance(0.5) ? 3 * f : f / 2, serial));
            break;
        case 5: { // an outpoint no set holds
            const OutPoint unknown{crypto::sha256(to_bytes("unknown" + std::to_string(++serial))), 0};
            txs.push_back(pay({unknown}, kCoin, f, serial));
            break;
        }
        case 6: // one coin named twice, or outputs above inputs
            txs.push_back(rng.chance(0.5) ? pay({op, op}, 2 * out.value, f, serial)
                                          : pay({op}, out.value + kCoin, f, serial));
            break;
        default: { // a record; some name a coin they do not spend
            Transaction record;
            record.kind = TxKind::kRecord;
            record.sender_pubkey = to_bytes("sender" + std::to_string(++serial));
            record.data = Bytes(32, static_cast<std::uint8_t>(serial));
            record.declared_fee = f;
            if (rng.chance(0.3)) record.inputs.push_back(TxInput{op, {}, {}});
            txs.push_back(record);
        }
        }
    }
    return txs;
}

/// A state of `count` seeded coins (values 1-10 coins) on `backend`.
UtxoSet seeded_state(std::unique_ptr<StateBackend> backend, Rng& rng, std::size_t count) {
    UtxoSet state(std::move(backend));
    for (std::size_t i = 0; i < count; ++i)
        state.insert_raw(OutPoint{crypto::sha256(to_bytes("coin" + std::to_string(i))),
                                  static_cast<std::uint32_t>(i % 3)},
                         TxOutput{static_cast<Amount>((1 + rng.uniform(10)) * kCoin),
                                  kBob.address()});
    state.commit(1, {});
    return state;
}

BlockHeader next_header(const Block& parent, double now, Rng& rng) {
    BlockHeader header;
    header.prev_hash = parent.hash();
    header.height = parent.header.height + 1;
    header.timestamp = now;
    header.nonce = rng.next();
    header.proposer = kMiner.address();
    return header;
}

struct ScratchDir {
    std::filesystem::path path;
    ScratchDir() {
        static std::atomic<unsigned> counter{0};
        path = std::filesystem::temp_directory_path() /
               ("dlt-ledger-test-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
        std::filesystem::create_directories(path);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

// Small enough that the count limit binds in most rounds and the byte budget
// in the rest.
constexpr std::size_t kBlockBytes = 2'500;
constexpr std::size_t kBlockTxs = 16;

// Builds blocks from twin pools with both the builder and the copy-based
// reference, on the in-memory and the LSM backend, and connects each block
// plus a rival block that spends some of the pool's coins, so later templates
// hold stale entries.
TEST(BlockBuilder, MatchesTheCopyBasedWalkOnEveryBackend) {
    ValidationRules rules;
    rules.sig_mode = SigCheckMode::kSkip;
    std::size_t kept = 0;
    std::size_t skipped = 0;
    for (const bool lsm : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE((lsm ? "lsm seed " : "memory seed ") + std::to_string(seed));
            ScratchDir dir;
            Rng rng(seed);
            UtxoSet state = seeded_state(
                lsm ? std::unique_ptr<StateBackend>(std::make_unique<storage::LsmBackend>(
                          dir.path, storage::LsmOptions{.memtable_limit = 16,
                                                        .fsync = storage::FsyncMode::kNever}))
                    : std::make_unique<ShardedMemoryBackend>(),
                rng, 40);
            const MempoolConfig config{.expiry = 25.0};
            Mempool pool(config);
            Mempool reference_pool(config);
            Block tip = make_genesis("builder-test", easy_bits(2));
            std::uint64_t serial = 0;
            for (int round = 0; round < 4; ++round) {
                const double now = 10.0 * (round + 1);
                for (const Transaction& tx :
                     random_traffic(rng, sorted_coins(state), 30, serial)) {
                    pool.admit(tx, now - 5.0);
                    reference_pool.admit(tx, now - 5.0);
                }
                const BlockHeader header = next_header(tip, now, rng);
                const Bytes state_before = encode_to_bytes(state);
                const std::size_t candidates =
                    pool.build_template(kBlockBytes - 512, kBlockTxs).size();
                const Block built = build_block(header, pool, state, kBlockBytes, kBlockTxs);
                const Block reference = build_block_by_copy(header, reference_pool, state,
                                                            kBlockBytes, kBlockTxs);
                ASSERT_EQ(encode_to_bytes(built), encode_to_bytes(reference)) << "round " << round;
                EXPECT_EQ(encode_to_bytes(state), state_before);
                EXPECT_EQ(pool.size(), reference_pool.size());
                kept += built.txs.size() - 1;
                skipped += candidates - (built.txs.size() - 1);

                connect_block(built, state, rules);
                std::vector<Hash256> ids;
                for (const Transaction& tx : built.txs) ids.push_back(tx.txid());
                pool.remove_confirmed(ids);
                reference_pool.remove_confirmed(ids);

                // A rival block spends up to three coins, so pool entries that
                // spend them go stale.
                std::vector<Transaction> rival_spends;
                for (const auto& [op, out] : sorted_coins(state))
                    if (rival_spends.size() < 3 && rng.chance(0.2))
                        rival_spends.push_back(pay({op}, out.value, 0, serial));
                Block rival;
                rival.header = next_header(built, now, rng);
                rival.txs.push_back(make_coinbase(kBob.address(), kCoin, rival.header.height));
                rival.txs.insert(rival.txs.end(), rival_spends.begin(), rival_spends.end());
                rival.header.merkle_root = rival.compute_merkle_root();
                connect_block(rival, state, rules);
                state.commit(2 + round, {});
                tip = rival;
            }
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(skipped, 0u); // the stale-skip path ran
}

/// A backend that counts point reads and fails the test on any copy, scan or
/// write once armed.
class ProbeBackend final : public StateBackend {
public:
    bool armed = false;
    mutable std::size_t gets = 0;

    const char* name() const override { return "probe"; }
    std::optional<TxOutput> get(const OutPoint& op) const override {
        gets += armed;
        return inner_.get(op);
    }
    bool insert_if_absent(const OutPoint& op, const TxOutput& out) override {
        refuse("insert_if_absent");
        return inner_.insert_if_absent(op, out);
    }
    std::optional<TxOutput> put(const OutPoint& op, const TxOutput& out) override {
        refuse("put");
        return inner_.put(op, out);
    }
    std::optional<TxOutput> erase(const OutPoint& op) override {
        refuse("erase");
        return inner_.erase(op);
    }
    std::uint64_t size() const override { return inner_.size(); }
    void for_each(const Visitor& visit) const override {
        refuse("for_each");
        inner_.for_each(visit);
    }
    void for_each_sorted(const Visitor& visit) const override {
        refuse("for_each_sorted");
        inner_.for_each_sorted(visit);
    }
    std::unique_ptr<StateBackend> clone() const override {
        refuse("clone");
        return inner_.clone();
    }

private:
    void refuse(const char* call) const {
        if (armed) ADD_FAILURE() << call << " on the live state";
    }
    ShardedMemoryBackend inner_;
};

TEST(BlockBuilder, ReadsOnlyTheCoinsTheCandidatesSpend) {
    auto backend = std::make_unique<ProbeBackend>();
    ProbeBackend& probe = *backend;
    Rng rng(7);
    const UtxoSet state = seeded_state(std::move(backend), rng, 40);
    Mempool pool;
    std::uint64_t serial = 0;
    for (const Transaction& tx : random_traffic(rng, sorted_coins(state), 40, serial))
        pool.add(tx);
    std::size_t candidate_inputs = 0;
    for (const auto& entry : pool.build_template(kBlockBytes - 512, kBlockTxs))
        candidate_inputs += entry.tx->inputs.size();

    probe.armed = true;
    const Block block = build_block(next_header(make_genesis("builder-test", easy_bits(2)), 1.0, rng),
                                    pool, state, kBlockBytes, kBlockTxs);
    EXPECT_GT(probe.gets, 0u);
    EXPECT_LE(probe.gets, candidate_inputs);
    EXPECT_GT(block.txs.size(), 1u);

    // The proposal check a replica runs reads the same way: one get per input.
    probe.gets = 0;
    std::size_t block_inputs = 0;
    UtxoSet coins;
    for (const Transaction& tx : block.txs) {
        coins.fetch_inputs(state, tx);
        block_inputs += tx.inputs.size();
    }
    ValidationRules rules;
    rules.sig_mode = SigCheckMode::kSkip;
    EXPECT_NO_THROW(connect_block(block, coins, rules));
    EXPECT_EQ(probe.gets, block_inputs);
    probe.armed = false;
}

TEST(BlockBuilder, SaltedCoinbaseKeepsTheBlockValid) {
    // The DAG salts each record's coinbase nonce, so parallel records at one
    // height from one proposer never share a coinbase txid.
    Rng rng(11);
    const UtxoSet state = seeded_state(std::make_unique<ShardedMemoryBackend>(), rng, 4);
    const auto coins = sorted_coins(state);
    std::uint64_t serial = 0;
    Mempool pool;
    ASSERT_TRUE(pool.add(pay({coins[0].first}, coins[0].second.value, 2'500, serial)));
    const BlockHeader header = next_header(make_genesis("builder-test", easy_bits(2)), 1.0, rng);

    const Block plain = build_block(header, pool, state, kBlockBytes, kBlockTxs);
    const Block salted = build_block(header, pool, state, kBlockBytes, kBlockTxs, 0xfeed);
    EXPECT_EQ(plain.txs[0].nonce, header.height);
    EXPECT_EQ(salted.txs[0].nonce, 0xfeedu);
    EXPECT_NE(salted.txs[0].txid(), plain.txs[0].txid());
    const std::vector<TxOutput> payout{{block_subsidy(1) + 2'500, kMiner.address()}};
    EXPECT_EQ(salted.txs[0].outputs, payout);
    EXPECT_EQ(salted.txs.size(), 2u);
    EXPECT_EQ(salted.header.merkle_root, salted.compute_merkle_root());

    ValidationRules rules;
    rules.sig_mode = SigCheckMode::kSkip;
    UtxoSet copy = state;
    EXPECT_NO_THROW(connect_block(salted, copy, rules));
}

} // namespace
