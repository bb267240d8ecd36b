// Integration tests for the Nakamoto-consensus network simulation: convergence
// (E1), throughput characteristics (E2), branch behaviour under short block
// intervals and GHOST (E3), transaction confirmation, and PoW primitives.
#include <gtest/gtest.h>

#include "consensus/attack.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pow.hpp"
#include "ledger/difficulty.hpp"
#include "net/transport/sim_transport.hpp"

namespace {

using namespace dlt;
using namespace dlt::consensus;
using namespace dlt::ledger;

NakamotoParams fast_params() {
    NakamotoParams p;
    p.node_count = 8;
    p.block_interval = 30.0;
    p.validation.sig_mode = SigCheckMode::kSkip;
    p.link.latency_mean = 0.05;
    p.link.latency_jitter = 0.02;
    return p;
}

TEST(Pow, RealMiningFindsValidNonce) {
    BlockHeader header;
    header.bits = easy_bits(12); // ~4096 hashes expected
    const auto nonce = mine_nonce(header, 1'000'000);
    ASSERT_TRUE(nonce.has_value());
    header.nonce = *nonce;
    EXPECT_TRUE(check_proof_of_work(header));
}

TEST(Pow, WrongNonceFailsCheck) {
    BlockHeader header;
    header.bits = easy_bits(20);
    header.nonce = 12345;
    // A random nonce at difficulty 2^-20 is essentially never valid.
    EXPECT_FALSE(check_proof_of_work(header));
}

TEST(Pow, BlockTimeScalesInverselyWithHashrate) {
    Rng rng(5);
    double sum_small = 0, sum_large = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum_small += sample_block_time(0.1, 600, rng);
        sum_large += sample_block_time(0.5, 600, rng);
    }
    EXPECT_NEAR(sum_small / n, 6000, 200);
    EXPECT_NEAR(sum_large / n, 1200, 40);
}

TEST(Nakamoto, NetworkConvergesToOneChain) {
    NakamotoNetwork net(fast_params(), /*seed=*/1);
    net.start();
    net.run_for(60 * 30); // 30 expected blocks
    // Let in-flight blocks settle with mining stopped implicitly by time window:
    net.run_for(10);
    ASSERT_TRUE(net.majority_tip().has_value());
    EXPECT_GT(net.height_of(0), 10u);
    EXPECT_GT(net.stats().blocks_mined, 10u);
}

TEST(Nakamoto, AllPeersAgreeOnPrefix) {
    NakamotoNetwork net(fast_params(), 2);
    net.start();
    net.run_for(60 * 20);
    // Even if tips differ transiently, chains must share a long common prefix:
    // compare height-minus-6 ancestor of every peer.
    const auto& chain0 = net.chain_of(0);
    const Hash256 anchor = chain0.ancestor(net.tip_of(0), 6);
    const std::uint64_t anchor_height = chain0.find(anchor)->height;
    for (std::size_t i = 1; i < net.node_count(); ++i) {
        const auto& chain = net.chain_of(i);
        ASSERT_TRUE(chain.contains(anchor)) << "peer " << i;
        // The anchor must be on peer i's active path.
        const auto path = chain.path_from_genesis(net.tip_of(i));
        ASSERT_GT(path.size(), anchor_height);
        EXPECT_EQ(path[anchor_height], anchor) << "peer " << i;
    }
}

TEST(Nakamoto, MinersEarnRewards) {
    NakamotoNetwork net(fast_params(), 3);
    net.start();
    net.run_for(60 * 20);
    Amount total = 0;
    for (std::size_t i = 0; i < net.node_count(); ++i)
        total += net.utxo_of(0).balance_of(net.miner_address(i));
    // Peer 0's view: all confirmed coinbases pay some miner.
    EXPECT_EQ(total, net.utxo_of(0).total_value());
    EXPECT_GT(total, 0);
}

TEST(Nakamoto, TransactionsConfirm) {
    auto params = fast_params();
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 4);
    net.start();
    net.run_for(200); // let some blocks mine so miner 0 has coins at every peer

    const auto& utxo = net.utxo_of(0);
    const auto coins = utxo.coins_of(net.miner_address(0));
    ASSERT_FALSE(coins.empty());

    Transaction tx = make_transfer(
        {coins[0].first},
        {TxOutput{coins[0].second.value - 1000,
                  crypto::PrivateKey::from_seed("recipient").address()}});
    tx.declared_fee = 1000;
    const Hash256 txid = tx.txid();
    net.submit_transaction(tx, 0);
    net.run_for(600);

    const auto confs = net.confirmations_of(txid);
    ASSERT_TRUE(confs.has_value());
    EXPECT_GE(*confs, 1u);
    EXPECT_GE(net.confirmed_tx_count(), 1u);
}

TEST(Nakamoto, ShortBlockIntervalRaisesStaleRate) {
    auto slow = fast_params();
    slow.node_count = 10;
    slow.block_interval = 600.0;
    slow.link.latency_mean = 2.0; // pronounced propagation delay
    slow.link.latency_jitter = 1.0;
    NakamotoNetwork net_slow(slow, 5);
    net_slow.start();
    net_slow.run_for(600.0 * 120);

    auto fast = slow;
    fast.block_interval = 10.0;
    NakamotoNetwork net_fast(fast, 5);
    net_fast.start();
    net_fast.run_for(10.0 * 120);

    // Same expected block count; the fast chain must see more stale blocks.
    EXPECT_GT(net_fast.stale_rate(), net_slow.stale_rate());
}

TEST(Nakamoto, GhostSelectsHeaviestSubtree) {
    auto params = fast_params();
    params.branch_rule = BranchRule::kGhost;
    params.block_interval = 10.0;
    params.link.latency_mean = 1.0;
    NakamotoNetwork net(params, 6);
    net.start();
    net.run_for(10.0 * 100);
    ASSERT_TRUE(net.majority_tip().has_value());
    EXPECT_GT(net.height_of(0), 20u);
}

TEST(Nakamoto, HashrateSharesSkewBlockProduction) {
    auto params = fast_params();
    params.node_count = 4;
    params.hashrate_shares = {0.7, 0.1, 0.1, 0.1};
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 7);
    net.start();
    net.run_for(20.0 * 150);

    // Count canonical blocks by proposer.
    std::size_t by_whale = 0, total = 0;
    for (const auto& block : net.canonical_chain()) {
        ++total;
        if (block.header.proposer == net.miner_address(0)) ++by_whale;
    }
    ASSERT_GT(total, 50u);
    const double share = static_cast<double>(by_whale) / static_cast<double>(total);
    EXPECT_GT(share, 0.55);
    EXPECT_LT(share, 0.85);
}

// --- Partition & heal (E22) --------------------------------------------------------

TEST(Nakamoto, PartitionDivergesAndHealReconverges) {
    auto params = fast_params();
    params.block_interval = 20.0;
    NakamotoNetwork net(params, 22);
    net.start();
    net.run_for(200); // establish a common prefix

    // Cut the network into two mining halves.
    net.network().partition("cut", {{0, 1, 2, 3}, {4, 5, 6, 7}});
    net.run_for(400); // ~20 blocks mined across both halves

    // The halves must have diverged: node 0's tip vs node 4's tip differ and
    // neither side knows the other's blocks.
    const Hash256 tip_a = net.tip_of(0);
    const Hash256 tip_b = net.tip_of(4);
    EXPECT_NE(tip_a, tip_b);
    EXPECT_FALSE(net.chain_of(0).contains(tip_b));
    EXPECT_FALSE(net.chain_of(4).contains(tip_a));
    EXPECT_GT(net.traffic().messages_partitioned, 0u);

    // Heal: the next cross-cut block announcement triggers the orphan-parent
    // fetch walk-back, after which every peer adopts the heavier branch.
    net.network().heal("cut");
    net.run_for(600);
    EXPECT_TRUE(net.converged());
    EXPECT_GT(net.stats().reorgs, 0u); // the losing half reorganized
}

TEST(Nakamoto, PeerChurnRejoinCatchesUp) {
    auto params = fast_params();
    params.block_interval = 20.0;
    // Node 7 contributes no hash power so its absence stalls nobody else and
    // catching up is purely a matter of block sync.
    params.hashrate_shares = {1, 1, 1, 1, 1, 1, 1, 0};
    NakamotoNetwork net(params, 23);
    net.start();
    net.run_for(100);

    net.network().leave(7);
    const std::uint64_t height_at_leave = net.height_of(7);
    net.run_for(400);
    EXPECT_EQ(net.height_of(7), height_at_leave); // heard nothing while away

    net.network().rejoin(7);
    net.run_for(600);
    // After rejoining, the first block announcement pulls the missing ancestors.
    EXPECT_GT(net.height_of(7), height_at_leave);
    EXPECT_EQ(net.tip_of(7), net.tip_of(0));
}

TEST(Nakamoto, RecoversFromLostFetchesUnderLoss) {
    // A peer that loses the reply to an orphan-parent fetch must ask again,
    // or it stalls behind for good once its later fetches pile up on the
    // missing ancestor.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        auto params = fast_params();
        params.node_count = 16;
        params.block_interval = 10.0;
        NakamotoNetwork net(params, seed);
        net.start();
        net.network().set_global_faults({0.2, 0});
        net.run_for(1500);
        net.network().set_global_faults({0, 0});
        net.run_for(300);
        std::uint64_t highest = 0;
        for (net::NodeId i = 0; i < net.node_count(); ++i)
            highest = std::max(highest, net.height_of(i));
        for (net::NodeId i = 0; i < net.node_count(); ++i)
            EXPECT_LE(highest - net.height_of(i), 3u) << "seed " << seed << " peer " << i;
    }
}

TEST(BlockRelay, OrphanFloodStopsAtTheCapAndAnHonestBranchStillConnects) {
    // Peer 2 floods peer 0 with ten times the cap of well-formed blocks whose
    // parents nobody has: the pool stays at the cap. Peer 1 then hands peer 0
    // only the tip of a branch it mined in private. The tip is parked (the
    // oldest flood block makes room), its ancestors are fetched from peer 1,
    // and the branch connects.
    NakamotoParams params = fast_params();
    params.node_count = 3;
    params.hashrate_shares = {0, 1, 0};
    NakamotoNetwork net(params, 31);
    std::vector<Hash256> branch;
    net.set_mined_block_hook([&branch](net::NodeId, const Block& block) {
        branch.push_back(block.hash());
        return false;
    });
    net.start();
    for (std::size_t i = 0; i < 10 * BlockRelay::kMaxOrphans; ++i) {
        Block orphan;
        orphan.header.prev_hash = crypto::sha256(to_bytes("missing/" + std::to_string(i)));
        orphan.header.height = 1;
        orphan.header.merkle_root = orphan.compute_merkle_root();
        net.push_block(2, 0, orphan);
    }
    net.run_for(1.0);
    EXPECT_EQ(net.orphan_count(0), BlockRelay::kMaxOrphans);

    while (branch.size() < 3) net.run_for(30.0);
    const Hash256 tip = branch.back();
    net.push_block(1, 0, net.chain_of(1).find(tip)->block);
    net.run_for(5.0);
    EXPECT_EQ(net.tip_of(0), tip);
    EXPECT_LE(net.orphan_count(0), BlockRelay::kMaxOrphans);
}

TEST(BlockRelay, DropsAParkedBlockWhoseParentNoPeerReturns) {
    // Peer 2 pushes peer 0 the cap's worth of well-formed blocks whose parents
    // nobody has, and then the network stays quiet. Each parent is asked for
    // again on every sync interval until it has been missing on kMaxAsks
    // retry ticks; then its block is dropped. After kMaxAsks + 1 intervals
    // peer 0 parks nothing and sends nothing, and an honest branch pushed
    // after that still connects.
    NakamotoParams params = fast_params();
    params.node_count = 3;
    params.hashrate_shares = {0, 1, 0};
    NakamotoNetwork net(params, 31);
    std::vector<Hash256> branch;
    net.set_mined_block_hook([&branch](net::NodeId, const Block& block) {
        branch.push_back(block.hash());
        return false;
    });
    net.start();
    for (std::size_t i = 0; i < BlockRelay::kMaxOrphans; ++i) {
        Block orphan;
        orphan.header.prev_hash = crypto::sha256(to_bytes("missing/" + std::to_string(i)));
        orphan.header.height = 1;
        orphan.header.merkle_root = orphan.compute_merkle_root();
        net.push_block(2, 0, orphan);
    }
    net.run_for((BlockRelay::kMaxAsks + 1) * BlockRelay::kSyncInterval);
    EXPECT_EQ(net.orphan_count(0), 0u);
    const std::uint64_t sent = net.traffic().messages_sent;
    net.run_for(10 * BlockRelay::kSyncInterval);
    EXPECT_EQ(net.traffic().messages_sent, sent); // no getblk, nor anything else

    while (branch.size() < 3) net.run_for(30.0);
    const Hash256 tip = branch.back();
    net.push_block(1, 0, net.chain_of(1).find(tip)->block);
    net.run_for(5.0);
    EXPECT_EQ(net.tip_of(0), tip);
    EXPECT_EQ(net.orphan_count(0), 0u);
}

TEST(BlockRelay, DropsAParkedChainBehindItsRootInEitherHashOrder) {
    // Peer 2 pushes peer 0 a chain root <- child whose root's parent nobody
    // has, and nothing else is parked. The root goes after kMaxAsks ticks; the
    // child then asks for the root as its own missing parent and goes kMaxAsks
    // ticks later. Parked blocks are visited in hash order, and the child must
    // still ask on the tick that drops the root when it sorts first.
    for (const bool child_sorts_first : {false, true}) {
        SCOPED_TRACE(child_sorts_first ? "child sorts first" : "root sorts first");
        Block root, child;
        for (int i = 0;; ++i) {
            root = child = Block{};
            root.header.prev_hash = crypto::sha256(to_bytes("missing/" + std::to_string(i)));
            root.header.height = 1;
            root.header.merkle_root = root.compute_merkle_root();
            child.header.prev_hash = root.hash();
            child.header.height = 2;
            child.header.merkle_root = child.compute_merkle_root();
            if ((child.hash() < root.hash()) == child_sorts_first) break;
        }
        NakamotoParams params = fast_params();
        params.node_count = 3;
        params.hashrate_shares = {0, 1, 0};
        NakamotoNetwork net(params, 31);
        net.set_mined_block_hook([](net::NodeId, const Block&) { return false; });
        net.start();
        net.push_block(2, 0, root);
        net.push_block(2, 0, child);
        net.run_for(1.0);
        EXPECT_EQ(net.orphan_count(0), 2u);
        net.run_for((2 * BlockRelay::kMaxAsks + 1) * BlockRelay::kSyncInterval);
        EXPECT_EQ(net.orphan_count(0), 0u);
        const std::uint64_t sent = net.traffic().messages_sent;
        net.run_for(10 * BlockRelay::kSyncInterval);
        EXPECT_EQ(net.traffic().messages_sent, sent);
    }
}

TEST(TxRelay, DropsALateRelayOfAConfirmedTransaction) {
    // A record carries no UTXO conflict, so only the seen-set stops a relay
    // that arrives after its block from putting it back in the pool.
    sim::Scheduler scheduler;
    net::Network network(scheduler, Rng(1));
    net::transport::SimTransportHub hub(network, 2);
    network.build_full_mesh();
    TxRelay relay(hub.endpoint(0), MempoolConfig{});
    Transaction tx = make_record(crypto::PrivateKey::from_seed("s").public_key(), 0,
                                 Bytes(16, 1));
    tx.declared_fee = 100;
    Block block;
    block.txs.push_back(make_coinbase(crypto::PrivateKey::from_seed("m").address(), 1, 1));
    block.txs.push_back(tx);
    relay.connected(block);
    Writer frame; // the sender's txid, then the transaction
    frame.fixed(tx.txid());
    tx.encode(frame);
    EXPECT_FALSE(relay.handle(1, frame.data()));
    EXPECT_FALSE(relay.submit(tx));
    EXPECT_EQ(relay.mempool().size(), 0u);
    relay.disconnected(block); // a reorg returns it to the pool
    EXPECT_EQ(relay.mempool().size(), 1u);
}

// --- 51% attack model (E6) ---------------------------------------------------------

TEST(Attack, AnalyticMatchesWhitepaperValues) {
    // Values from the Bitcoin whitepaper, section 11 (q = 0.1).
    EXPECT_NEAR(attacker_success_probability(0.1, 0), 1.0, 1e-9);
    EXPECT_NEAR(attacker_success_probability(0.1, 1), 0.2045873, 1e-4);
    EXPECT_NEAR(attacker_success_probability(0.1, 5), 0.0009137, 1e-5);
    EXPECT_NEAR(attacker_success_probability(0.3, 5), 0.1773523, 1e-4);
}

TEST(Attack, MajorityHashpowerAlwaysWins) {
    EXPECT_DOUBLE_EQ(attacker_success_probability(0.5, 100), 1.0);
    EXPECT_DOUBLE_EQ(attacker_success_probability(0.6, 100), 1.0);
    Rng rng(11);
    EXPECT_GT(simulate_attack_success(0.55, 6, 500, rng), 0.95);
}

TEST(Attack, SimulationMatchesAnalytic) {
    // The analytic form approximates the attacker's head start with a Poisson;
    // the simulation is exact (negative binomial), so allow the approximation
    // gap, which grows with q (~0.03 at q=0.4).
    Rng rng(13);
    for (const double q : {0.1, 0.25, 0.4}) {
        for (const unsigned z : {1u, 3u, 6u}) {
            const double analytic = attacker_success_probability(q, z);
            const double simulated = simulate_attack_success(q, z, 20000, rng);
            EXPECT_NEAR(simulated, analytic, 0.04) << "q=" << q << " z=" << z;
        }
    }
}

TEST(Attack, DeeperConfirmationsExponentiallySafer) {
    const double p1 = attacker_success_probability(0.1, 1);
    const double p6 = attacker_success_probability(0.1, 6);
    EXPECT_LT(p6, p1 / 100);
}

} // namespace
