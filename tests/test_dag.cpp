// Tests for the fourth-generation DAG ledger: record codec, shuffle-based tip
// selection, GHOSTDAG store invariants checked against brute-force oracles on
// random DAGs, dledger confirmation counters, and the full DagNetwork
// (convergence, conflict resolution, duplicate suppression, lifecycle, and
// byte-identical linearization across reruns and thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "consensus/dag/network.hpp"
#include "consensus/dag/record.hpp"
#include "consensus/dag/store.hpp"
#include "consensus/dag/tipselect.hpp"
#include "crypto/sha256.hpp"
#include "ledger/transaction.hpp"

namespace {

using namespace dlt;
using namespace dlt::consensus::dag;

Hash256 h(std::uint64_t salt) {
    return crypto::sha256(to_bytes("dagtest" + std::to_string(salt)));
}

// --- Record codec ----------------------------------------------------------------

TEST(DagRecord, ParentsRoundTrip) {
    ledger::BlockHeader header;
    const std::vector<Hash256> parents{h(1), h(2), h(3)};
    set_parents(header, parents);
    EXPECT_EQ(header.prev_hash, h(1));
    EXPECT_EQ(parents_of(header), parents);

    set_parents(header, {h(7)});
    EXPECT_TRUE(header.annex.empty()); // single parent = plain chain block
    EXPECT_EQ(parents_of(header), std::vector<Hash256>{h(7)});
}

TEST(DagRecord, HashCommitsToParentList) {
    ledger::Block a;
    set_parents(a.header, {h(1), h(2)});
    ledger::Block b = a;
    set_parents(b.header, {h(1), h(3)});
    EXPECT_NE(a.hash(), b.hash());
}

TEST(DagRecord, WellFormedness) {
    EXPECT_TRUE(parents_well_formed({h(1), h(2)}, 3));
    EXPECT_FALSE(parents_well_formed({}, 3));                  // empty
    EXPECT_FALSE(parents_well_formed({h(1), h(2), h(3)}, 2));  // too many
    EXPECT_FALSE(parents_well_formed({h(1), h(1)}, 3));        // duplicate
}

// --- Tip selection ---------------------------------------------------------------

TEST(TipSelect, BoundsAndDeterminism) {
    std::map<Hash256, std::uint64_t> scores;
    std::vector<Hash256> tips;
    for (std::uint64_t i = 0; i < 8; ++i) {
        tips.push_back(h(100 + i));
        scores[tips.back()] = i;
    }
    const auto score = [](const void* ctx, const Hash256& tip) -> std::uint64_t {
        return static_cast<const std::map<Hash256, std::uint64_t>*>(ctx)->at(tip);
    };

    Rng rng_a(42), rng_b(42);
    const auto a = select_parents(tips, 3, rng_a, &scores, score);
    const auto b = select_parents(tips, 3, rng_b, &scores, score);
    EXPECT_EQ(a, b); // same seed, same parents
    ASSERT_EQ(a.size(), 3u);
    // Best-first: descending blue score.
    EXPECT_GE(scores.at(a[0]), scores.at(a[1]));
    EXPECT_GE(scores.at(a[1]), scores.at(a[2]));
    // Distinct picks.
    EXPECT_EQ(std::set<Hash256>(a.begin(), a.end()).size(), 3u);

    Rng rng_c(43);
    const auto few = select_parents({tips[0], tips[1]}, 3, rng_c, &scores, score);
    EXPECT_EQ(few.size(), 2u); // k capped by available tips
}

// --- GHOSTDAG store vs brute-force oracles ---------------------------------------

/// A store plus a mirror of the DAG's structure for oracle computations.
struct OracleDag {
    ledger::Block genesis = ledger::make_genesis("dagtest", 0x207fffff);
    DagStore store;
    std::map<Hash256, std::vector<Hash256>> parents; // mirrored edges
    std::vector<Hash256> inserted;                   // insertion order

    explicit OracleDag(DagStore::Config cfg = {}) : store(genesis, cfg) {
        parents[genesis.hash()] = {};
    }

    /// Insert an (empty-payload) record with the given parents.
    Hash256 add(const std::vector<Hash256>& ps, std::uint64_t salt) {
        ledger::Block block;
        set_parents(block.header, ps);
        block.header.nonce = salt; // unique hash per record
        block.header.proposer = crypto::Address{};
        const Hash256 hash = block.hash();
        store.insert(block, 0.0);
        parents[hash] = ps;
        inserted.push_back(hash);
        return hash;
    }

    /// Brute-force ancestor closure: past(x), transitively.
    std::set<Hash256> past_of(const Hash256& x) const {
        std::set<Hash256> out;
        std::vector<Hash256> frontier{x};
        while (!frontier.empty()) {
            const Hash256 cur = frontier.back();
            frontier.pop_back();
            for (const Hash256& p : parents.at(cur))
                if (out.insert(p).second) frontier.push_back(p);
        }
        return out;
    }
};

/// Random DAG: each record picks 1..3 random parents among the current tips
/// (falling back to arbitrary existing records to vary widths).
OracleDag random_dag(std::uint64_t seed, std::size_t records) {
    OracleDag dag;
    Rng rng(seed);
    std::vector<Hash256> pool{dag.genesis.hash()};
    for (std::size_t i = 0; i < records; ++i) {
        const std::size_t want = 1 + rng.uniform(3);
        std::vector<Hash256> ps;
        for (std::size_t tries = 0; ps.size() < want && tries < 8; ++tries) {
            const Hash256& cand = pool[rng.uniform(pool.size())];
            if (std::find(ps.begin(), ps.end(), cand) == ps.end())
                ps.push_back(cand);
        }
        pool.push_back(dag.add(ps, 1000 + i));
    }
    return dag;
}

TEST(DagStore, LinearOrderIsTopologicalPermutation) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const OracleDag dag = random_dag(seed, 60);
        const auto lo = dag.store.linear_order();

        // Permutation: every record exactly once, genesis first.
        ASSERT_EQ(lo.order.size(), dag.store.size());
        EXPECT_EQ(lo.order.front(), dag.genesis.hash());
        std::set<Hash256> seen;
        for (const Hash256& x : lo.order) EXPECT_TRUE(seen.insert(x).second);

        // Topological: every parent precedes its child.
        std::map<Hash256, std::size_t> pos;
        for (std::size_t i = 0; i < lo.order.size(); ++i) pos[lo.order[i]] = i;
        for (const auto& [hash, ps] : dag.parents)
            for (const Hash256& p : ps) EXPECT_LT(pos.at(p), pos.at(hash));

        EXPECT_GE(lo.blue_count, 1u);
        EXPECT_LE(lo.blue_count, lo.order.size());
    }
}

TEST(DagStore, IsAncestorMatchesBruteForceClosure) {
    const OracleDag dag = random_dag(7, 40);
    std::vector<Hash256> all{dag.genesis.hash()};
    all.insert(all.end(), dag.inserted.begin(), dag.inserted.end());
    for (const Hash256& a : all) {
        const std::set<Hash256> past = dag.past_of(a);
        for (const Hash256& b : all)
            EXPECT_EQ(dag.store.is_ancestor(b, a), past.count(b) != 0)
                << "is_ancestor mismatch";
    }
}

TEST(DagStore, BlueScoreStrictlyIncreasesAlongEdges) {
    const OracleDag dag = random_dag(11, 60);
    for (const Hash256& hash : dag.inserted)
        for (const Hash256& p : dag.parents.at(hash))
            EXPECT_GT(dag.store.blue_score_of(hash), dag.store.blue_score_of(p));
}

TEST(DagStore, LinearOrderDeterministicAcrossRebuilds) {
    const OracleDag a = random_dag(13, 50);
    const OracleDag b = random_dag(13, 50);
    EXPECT_EQ(a.store.linear_order().order, b.store.linear_order().order);
}

TEST(DagStore, HonestParallelRecordsStayBlue) {
    // A width-2 honest lattice: every record sees both records of the previous
    // rank. With k=4 nothing should ever turn red.
    OracleDag dag(DagStore::Config{4, 1'000'000, 1'000});
    std::vector<Hash256> prev{dag.genesis.hash()};
    std::uint64_t salt = 1;
    for (int rank = 0; rank < 10; ++rank) {
        std::vector<Hash256> next;
        next.push_back(dag.add(prev, salt++));
        next.push_back(dag.add(prev, salt++));
        prev = next;
    }
    const auto lo = dag.store.linear_order();
    EXPECT_EQ(lo.blue_count, lo.order.size());
}

TEST(DagStore, ConfirmationCountersAndObserver) {
    DagStore::Config cfg;
    cfg.confirm_weight = 3;
    cfg.confirm_entropy = 2;
    OracleDag dag(cfg);

    std::vector<Hash256> confirmed;
    dag.store.set_confirm_observer(
        [&](const Hash256& hash, const DagStore::Entry& entry, double at) {
            confirmed.push_back(hash);
            EXPECT_GE(entry.weight, cfg.confirm_weight);
            EXPECT_GE(entry.entropy, cfg.confirm_entropy);
            EXPECT_EQ(at, 0.0);
        });

    // A chain of records alternating between two proposers: each new record
    // approves all ancestors, so weight(first) grows 1 per insert and entropy
    // reaches 2 after both proposers contributed.
    ledger::Block block;
    set_parents(block.header, {dag.genesis.hash()});
    block.header.proposer = crypto::PrivateKey::from_seed("p0").address();
    block.header.nonce = 1;
    const Hash256 first = block.hash();
    dag.store.insert(block, 0.0);
    dag.parents[first] = {dag.genesis.hash()};

    Hash256 tip = first;
    for (int i = 0; i < 4; ++i) {
        ledger::Block next;
        set_parents(next.header, {tip});
        next.header.proposer =
            crypto::PrivateKey::from_seed("p" + std::to_string(i % 2)).address();
        next.header.nonce = 100 + i;
        tip = next.hash();
        dag.store.insert(next, 0.0);
    }

    // first has future cone {4 descendants} >= 3 with 2 distinct proposers.
    EXPECT_TRUE(dag.store.entry(first).confirmed);
    EXPECT_FALSE(confirmed.empty());
    EXPECT_EQ(confirmed.front(), first); // ancestor-first propagation
    EXPECT_EQ(dag.store.confirmed_count(), confirmed.size());
    // Approver bookkeeping freed at confirmation.
    EXPECT_TRUE(dag.store.entry(first).approver_proposers.empty());
}

// --- DagNetwork end-to-end --------------------------------------------------------

DagParams fast_params() {
    DagParams params;
    params.node_count = 6;
    params.record_interval = 5.0;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    params.link.latency_mean = 0.05;
    params.link.latency_jitter = 0.02;
    return params;
}

ledger::Transaction record_tx(const std::string& sender, std::uint64_t nonce) {
    ledger::Transaction tx;
    tx.kind = ledger::TxKind::kRecord;
    tx.sender_pubkey = to_bytes(sender);
    tx.nonce = nonce;
    tx.data = to_bytes("dag payload");
    tx.declared_fee = 500;
    return tx;
}

TEST(DagNetwork, ConvergesToIdenticalOrderAndState) {
    DagNetwork net(fast_params(), 2601);
    net.start();
    for (std::uint64_t i = 0; i < 40; ++i) {
        net.run_for(5.0);
        net.submit_transaction(record_tx("alice", i),
                               static_cast<net::NodeId>(i % 6));
    }
    net.run_for(120.0);

    EXPECT_TRUE(net.converged());
    EXPECT_GT(net.stats().records_produced, 20u);
    const Hash256 digest = net.order_digest(0);
    for (net::NodeId node = 1; node < 6; ++node) {
        EXPECT_EQ(net.order_digest(node), digest);
        // Identical order => identical replayed state.
        Writer wa, wb;
        net.utxo_of(0).encode(wa);
        net.utxo_of(node).encode(wb);
        EXPECT_EQ(wa.data(), wb.data());
    }
    EXPECT_GT(net.confirmed_tx_count(), 0u);
    EXPECT_GT(net.confirmed_record_count(), 0u);
    EXPECT_GT(net.blue_ratio(), 0.9); // honest low-latency traffic stays blue
}

TEST(DagNetwork, DuplicateSubmissionsApplyOnce) {
    DagNetwork net(fast_params(), 2602);
    net.start();
    const ledger::Transaction tx = record_tx("bob", 7);
    // The same transaction injected at two distant origins lands in parallel
    // records; execution must count it once and skip the duplicate.
    net.submit_transaction(tx, 0);
    net.submit_transaction(tx, 5);
    net.run_for(200.0);

    EXPECT_TRUE(net.converged());
    EXPECT_EQ(net.confirmed_tx_count(), 1u);
}

TEST(DagNetwork, ConflictingSpendsResolveFirstInOrder) {
    DagParams params = fast_params();
    params.record_interval = 2.0; // dense DAG: parallel records are the norm
    DagNetwork net(params, 2603);
    net.start();
    net.run_for(120.0); // accumulate coinbase outputs to double-spend

    // Find a spendable miner coin on peer 0 and race two conflicting spends
    // from opposite ends of the overlay.
    const auto coins = net.utxo_of(0).coins_of(net.miner_address(0));
    ASSERT_FALSE(coins.empty());
    const auto& [op, coin] = coins.front();
    ledger::Transaction spend_a = ledger::make_transfer(
        {op}, {ledger::TxOutput{coin.value,
                                crypto::PrivateKey::from_seed("ra").address()}});
    ledger::Transaction spend_b = ledger::make_transfer(
        {op}, {ledger::TxOutput{coin.value,
                                crypto::PrivateKey::from_seed("rb").address()}});
    net.submit_transaction(spend_a, 0);
    net.submit_transaction(spend_b, 5);
    net.run_for(200.0);

    EXPECT_TRUE(net.converged());
    // Exactly one spend won; every peer agrees on which.
    const bool a_applied =
        net.utxo_of(0).balance_of(
            crypto::PrivateKey::from_seed("ra").address()) > 0;
    const bool b_applied =
        net.utxo_of(0).balance_of(
            crypto::PrivateKey::from_seed("rb").address()) > 0;
    EXPECT_NE(a_applied, b_applied);
    for (net::NodeId node = 1; node < 6; ++node)
        EXPECT_EQ(net.order_digest(node), net.order_digest(0));
    EXPECT_FALSE(net.utxo_of(0).contains(op)); // the coin is spent either way
}

TEST(DagNetwork, ByteIdenticalReplayUnderSameSeed) {
    const auto run_once = [] {
        DagParams params = fast_params();
        params.record_interval = 2.0;
        DagNetwork net(params, 2604);
        net.start();
        for (std::uint64_t i = 0; i < 30; ++i) {
            net.run_for(3.0);
            net.submit_transaction(record_tx("carol", i),
                                   static_cast<net::NodeId>(i % 6));
        }
        net.run_for(60.0);
        return net.order_digest(0);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(DagNetwork, LinearizationIdenticalAcrossThreadCounts) {
    // The linear order is a pure function of DAG contents; running the
    // validation pool at different widths must not change a byte of it.
    const auto run_at = [](std::size_t workers) {
        ThreadPool::set_global_workers(workers);
        DagParams params = fast_params();
        params.record_interval = 2.0;
        params.validation.sig_mode = ledger::SigCheckMode::kFull;
        DagNetwork net(params, 2605);
        net.start();
        net.run_for(150.0);
        return net.order_digest(0);
    };
    const Hash256 single = run_at(1);
    const Hash256 wide = run_at(4);
    ThreadPool::set_global_workers(0); // restore default
    EXPECT_EQ(single, wide);
}

TEST(DagNetwork, LostParentFetchRetriesUntilResolved) {
    // Regression (flushed out by E27's eclipse/crash cells): an orphan-parent
    // fetch used to be sent exactly once — if the getblk or its reply was
    // lost, or the asked peer did not hold the record, the hash stayed pinned
    // in the requested-set and every later request for it early-returned, so
    // the orphan (and everything descending from it) could never resolve and
    // the network never reconverged. Engineer the stall deterministically:
    // node 0 builds a private chain of records, then only the *newest* is
    // published. Peers that first see it through a relay ask the relaying
    // peer for the missing ancestors — which that peer does not hold either,
    // so no reply comes — and only BlockRelay's retry of a random peer every
    // sync interval reaches node 0 (nothing ever re-broadcasts the ancestors).
    DagParams params = fast_params();
    DagNetwork net(params, 2608);
    net.start();

    std::vector<Hash256> withheld;
    net.set_mined_block_hook(
        [&withheld](net::NodeId node, const ledger::Block& record) {
            if (node != 0) return true;
            withheld.push_back(record.hash());
            return false;
        });
    while (withheld.size() < 4) net.run_for(5.0);
    net.set_mined_block_hook(nullptr);

    net.publish_block(0, withheld.back());
    net.run_for(300.0);

    EXPECT_TRUE(net.converged());
    EXPECT_GT(net.stats().sync_retries, 0u);
    // The once-withheld ancestors reached every peer through the retries.
    for (net::NodeId node = 1; node < 6; ++node)
        for (const Hash256& hash : withheld)
            EXPECT_NE(net.store_of(node).find(hash), nullptr);
}

TEST(DagNetwork, ReconvergesAfterPartitionAndCrash) {
    // The fault-composition flavor of the same regression: cut a minority
    // partition, crash one of its members, heal and recover. In-flight
    // fetches at the cut/crash instants are lost on the dead links; the retry
    // path must still drain every orphan once the topology heals.
    DagParams params = fast_params();
    DagNetwork net(params, 2609);
    net::FaultPlan plan;
    plan.cut(60.0, "dagtest/split", {{0, 1}, {2, 3, 4, 5}});
    plan.crash(100.0, 1);
    plan.heal(120.0, "dagtest/split");
    plan.recover(140.0, 1);
    net.network().apply(plan);
    net.start();
    net.run_for(600.0);

    EXPECT_TRUE(net.converged());
    const Hash256 digest = net.order_digest(0);
    for (net::NodeId node = 1; node < 6; ++node)
        EXPECT_EQ(net.order_digest(node), digest);
}

/// Withhold the first 9-transaction record node 0 produces (an odd count, so
/// repeating its last transaction keeps the Merkle root), feeding node 0 one
/// transaction per second until it makes one, and return it.
ledger::Block withhold_nine_tx_record(DagNetwork& net) {
    std::optional<ledger::Block> held;
    net.set_mined_block_hook([&](net::NodeId node, const ledger::Block& record) {
        if (node != 0 || held || record.txs.size() != 9) return true;
        held = record;
        return false;
    });
    for (std::uint64_t i = 0; !held; ++i) {
        net.submit_transaction(record_tx("erin", i), 0);
        net.run_for(1.0);
    }
    net.set_mined_block_hook(nullptr);
    return *held;
}

TEST(DagNetwork, ForgedBodyDoesNotTaintTheRecordItClaims) {
    // A neighbour of the producer first receives the withheld record's header
    // with one transaction appended to its body. That body fails the Merkle
    // root, so it is not the record the hash names: it must be dropped
    // without marking the hash invalid, and the genuine record adopted once
    // it is published.
    DagNetwork net(fast_params(), 2611);
    net.start();
    const ledger::Block record = withhold_nine_tx_record(net);
    const net::NodeId victim = net.network().neighbors(0).front();
    ledger::Block forged = record;
    forged.txs.push_back(record_tx("mallory", 1));
    net.push_block(0, victim, forged);
    net.run_for(1.0);
    net.publish_block(0, record.hash());
    net.run_for(600.0);

    EXPECT_TRUE(net.converged());
    for (net::NodeId node = 0; node < 6; ++node)
        EXPECT_NE(net.store_of(node).find(record.hash()), nullptr) << "node " << node;
}

TEST(DagNetwork, BodyRepeatingItsLastTransactionIsNotStored) {
    // Repeating the last of an odd number of transactions keeps the Merkle
    // root (an odd level pairs its last hash with itself), so the forged body
    // matches the header; it still is not the record the hash names.
    DagNetwork net(fast_params(), 2611);
    net.start();
    const ledger::Block record = withhold_nine_tx_record(net);
    const net::NodeId victim = net.network().neighbors(0).front();
    ledger::Block forged = record;
    forged.txs.push_back(forged.txs.back());
    ASSERT_EQ(forged.compute_merkle_root(), record.header.merkle_root);
    net.push_block(0, victim, forged);
    net.run_for(1.0);
    net.publish_block(0, record.hash());
    net.run_for(300.0);

    const DagStore::Entry* stored = net.store_of(victim).find(record.hash());
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(stored->block.txs.size(), 9u);
    EXPECT_TRUE(net.converged());
}

TEST(DagNetwork, LifecycleReachesWeightFinality) {
    DagNetwork net(fast_params(), 2606);
    net.start();
    for (std::uint64_t i = 0; i < 20; ++i) {
        net.run_for(4.0);
        net.submit_transaction(record_tx("dave", i), 0);
    }
    net.run_for(300.0);

    const auto& lifecycle = net.lifecycle();
    EXPECT_GT(lifecycle.tracked(), 0u);
    EXPECT_GT(lifecycle.finalized(), 0u);
    EXPECT_LE(lifecycle.finalized(), lifecycle.tracked());
    // Stage ordering for the first tx: submit <= included <= final.
    const auto* rec = lifecycle.find(record_tx("dave", 0).txid());
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->submitted.has_value());
    ASSERT_TRUE(rec->included.has_value());
    ASSERT_TRUE(rec->final_at.has_value());
    EXPECT_LE(*rec->submitted, *rec->included);
    EXPECT_LE(*rec->included, *rec->final_at);
}

TEST(DagNetwork, ChainEventsFireOnLinearOrder) {
    DagNetwork net(fast_params(), 2607);
    std::uint64_t inserted = 0, reorgs = 0, tip_changes = 0;
    std::uint64_t last_height = 0;
    net.events(0).on_block_inserted = [&](const ledger::Block&, SimTime) {
        ++inserted;
    };
    net.events(0).on_reorg = [&](const std::vector<Hash256>&,
                                 const std::vector<Hash256>&, SimTime) { ++reorgs; };
    net.events(0).on_tip_changed = [&](const Hash256&, std::uint64_t height,
                                       SimTime) {
        ++tip_changes;
        last_height = height;
    };
    net.start();
    net.run_for(300.0);

    EXPECT_GT(inserted, 0u);
    EXPECT_GT(tip_changes, 0u);
    EXPECT_GT(last_height, 0u); // heights are linear-order positions
    // Re-linearizations surfaced as reorg events match the stats counter
    // only for peer 0 (stats aggregate all peers), so just sanity-check.
    if (net.stats().relinearizations == 0) EXPECT_EQ(reorgs, 0u);
}

} // namespace
