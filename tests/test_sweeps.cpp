// Parameterized property sweeps (TEST_P): protocol invariants checked across
// whole parameter ranges rather than single points — PBFT across cluster sizes,
// gossip across fanouts, sharding across shard counts, VM arithmetic across
// operand classes, and validation of the simulated-mining model against real
// SHA-256d grinding (the DESIGN.md "dual mode" ablation).
#include <gtest/gtest.h>

#include <cmath>

#include "common/serialize.hpp"
#include "consensus/pbft.hpp"
#include "consensus/pow.hpp"
#include "contract/assembler.hpp"
#include "contract/vm.hpp"
#include "crypto/keys.hpp"
#include "ledger/difficulty.hpp"
#include "net/gossip.hpp"
#include "scaling/sharding.hpp"

namespace {

using namespace dlt;

// --- PBFT across f --------------------------------------------------------------------

class PbftSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PbftSweep, CommitsAndStaysConsistentAtEveryClusterSize) {
    const std::uint32_t f = GetParam();
    consensus::PbftConfig config;
    config.f = f;
    config.batch_size = 20;
    config.batch_interval = 0.1;
    consensus::PbftCluster cluster(config, 300 + f);
    for (int i = 0; i < 60; ++i) {
        Writer w;
        w.u64(static_cast<std::uint64_t>(i));
        cluster.submit(std::move(w).take());
    }
    cluster.run_for(30.0);
    EXPECT_EQ(cluster.executed_requests(0), 60u) << "n=" << 3 * f + 1;
    EXPECT_TRUE(cluster.logs_consistent());
}

TEST_P(PbftSweep, ToleratesExactlyFCrashes) {
    const std::uint32_t f = GetParam();
    consensus::PbftConfig config;
    config.f = f;
    config.batch_size = 10;
    config.batch_interval = 0.1;
    config.view_change_timeout = 2.0;
    consensus::PbftCluster cluster(config, 400 + f);
    // Crash the LAST f replicas (never the view-0 primary).
    for (std::uint32_t k = 0; k < f; ++k)
        cluster.set_fault(3 * f - k, consensus::PbftFault::kCrashed);
    for (int i = 0; i < 30; ++i) {
        Writer w;
        w.u64(static_cast<std::uint64_t>(i));
        cluster.submit(std::move(w).take());
    }
    cluster.run_for(40.0);
    EXPECT_EQ(cluster.executed_requests(0), 30u) << "n=" << 3 * f + 1;
    EXPECT_TRUE(cluster.logs_consistent());
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, PbftSweep, ::testing::Values(1u, 2u, 3u));

// --- Gossip across fanouts --------------------------------------------------------------

class GossipSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GossipSweep, DedupHoldsAtEveryFanout) {
    const std::size_t fanout = GetParam();
    sim::Scheduler sched;
    net::Network network(sched, Rng(500 + fanout));
    std::vector<int> deliveries(40, 0);
    net::GossipParams params;
    params.fanout = fanout;
    net::GossipOverlay overlay(network, 40, params,
                               [&](net::NodeId node, net::NodeId, const std::string&,
                                   ByteView) { ++deliveries[node]; });
    network.build_unstructured_overlay(6);

    overlay.broadcast(0, "b", to_bytes("payload"));
    sched.run();
    // Exactly-once delivery per node regardless of redundancy level.
    for (const int count : deliveries) EXPECT_LE(count, 1);
    // Flooding must reach everyone; even fanout 3 on a degree-6 overlay should.
    if (fanout == 0 || fanout >= 3) {
        int reached = 0;
        for (const int count : deliveries) reached += count;
        EXPECT_GT(reached, 35) << "fanout " << fanout;
    }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, GossipSweep, ::testing::Values(0u, 2u, 3u, 5u));

// --- Sharding across shard counts --------------------------------------------------------

class ShardSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardSweep, ConservationAndDrainAtEveryShardCount) {
    const std::size_t shards = GetParam();
    scaling::ShardingParams params;
    params.shard_count = shards;
    params.per_shard_block_capacity = 10;
    scaling::ShardedLedger ledger(params, 600 + shards);

    std::vector<crypto::Address> users;
    ledger::Amount total = 0;
    for (int i = 0; i < 40; ++i) {
        users.push_back(
            crypto::PrivateKey::from_seed("sw" + std::to_string(i)).address());
        ledger.credit(users.back(), 500);
        total += 500;
    }
    Rng rng(700 + shards);
    int submitted = 0;
    for (int i = 0; i < 600; ++i) {
        const auto& from = users[rng.index(users.size())];
        const auto& to = users[rng.index(users.size())];
        if (from == to) continue;
        if (ledger.submit({from, to, 1 + static_cast<ledger::Amount>(rng.uniform(5))}))
            ++submitted;
    }
    int steps = 0;
    while (ledger.pending() > 0 && steps < 1000) {
        ledger.step();
        ++steps;
    }
    EXPECT_EQ(ledger.pending(), 0u) << shards << " shards";
    EXPECT_EQ(ledger.total_balance(), total);
    EXPECT_EQ(ledger.stats().intra_committed + ledger.stats().cross_committed,
              static_cast<std::uint64_t>(submitted));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// --- VM arithmetic across operand classes --------------------------------------------------

struct VmCase {
    const char* name;
    const char* asm_src;
    std::uint64_t expected;
};

// Named by the case, not by its raw bytes: those hold string addresses, which change
// from run to run and would make the discovered test names unstable.
void PrintTo(const VmCase& test_case, std::ostream* os) { *os << test_case.name; }

class VmArithmetic : public ::testing::TestWithParam<VmCase> {};

class SinkHost : public contract::HostInterface {
public:
    contract::Word storage_load(const contract::Word&) override {
        return contract::Word::zero();
    }
    void storage_store(const contract::Word&, const contract::Word&) override {}
    std::int64_t balance_of(const contract::Word&) override { return 0; }
    bool transfer(const contract::Word&, std::int64_t) override { return true; }
    void emit(const contract::Event&) override {}
    double timestamp() override { return 0; }
};

TEST_P(VmArithmetic, EvaluatesCorrectly) {
    const VmCase& test_case = GetParam();
    SinkHost host;
    contract::CallContext ctx;
    const auto result =
        contract::execute(contract::assemble(test_case.asm_src), ctx, host);
    ASSERT_TRUE(result.ok()) << test_case.name;
    ASSERT_TRUE(result.return_value.has_value()) << test_case.name;
    EXPECT_EQ(*result.return_value, contract::Word(test_case.expected))
        << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VmArithmetic,
    ::testing::Values(
        VmCase{"add", "PUSH 2\nPUSH 3\nADD\nRETURN", 5},
        VmCase{"sub", "PUSH 10\nPUSH 4\nSUB\nRETURN", 6},
        VmCase{"mul", "PUSH 7\nPUSH 6\nMUL\nRETURN", 42},
        VmCase{"div", "PUSH 42\nPUSH 5\nDIV\nRETURN", 8},
        VmCase{"div0", "PUSH 42\nPUSH 0\nDIV\nRETURN", 0},
        VmCase{"mod", "PUSH 42\nPUSH 5\nMOD\nRETURN", 2},
        VmCase{"mod0", "PUSH 42\nPUSH 0\nMOD\nRETURN", 0},
        VmCase{"lt_true", "PUSH 1\nPUSH 2\nLT\nRETURN", 1},
        VmCase{"lt_false", "PUSH 2\nPUSH 1\nLT\nRETURN", 0},
        VmCase{"gt", "PUSH 9\nPUSH 3\nGT\nRETURN", 1},
        VmCase{"eq", "PUSH 4\nPUSH 4\nEQ\nRETURN", 1},
        VmCase{"iszero", "PUSH 0\nISZERO\nRETURN", 1},
        VmCase{"and_logic", "PUSH 3\nPUSH 5\nAND\nRETURN", 1},
        VmCase{"or_logic", "PUSH 0\nPUSH 0\nOR\nRETURN", 0},
        VmCase{"dup", "PUSH 6\nDUP 0\nADD\nRETURN", 12},
        VmCase{"swap", "PUSH 3\nPUSH 10\nSWAP 1\nSUB\nRETURN", 7}));

// --- Mining model validation (real grind vs exponential race) -----------------------------

TEST(MiningModel, RealGrindMatchesGeometricExpectation) {
    // At difficulty 2^-bits, the number of nonces tried is geometric with mean
    // 2^bits; the simulated-time model uses the continuous (exponential)
    // analogue. Validate mean and coefficient of variation of the real grind.
    const unsigned bits = 10; // mean 1024 hashes, cheap enough to repeat
    const double expected_mean = std::pow(2.0, bits);
    Rng rng(800);
    std::vector<double> samples;
    ledger::BlockHeader header;
    header.bits = ledger::easy_bits(bits);
    for (int i = 0; i < 120; ++i) {
        header.nonce = 0;
        header.height = static_cast<std::uint64_t>(i); // vary the puzzle
        header.timestamp = static_cast<double>(i);
        const auto start = rng.next(); // randomize nonce origin
        const auto solution =
            consensus::mine_nonce(header, 1'000'000, start);
        ASSERT_TRUE(solution.has_value());
        samples.push_back(static_cast<double>(*solution - start + 1));
    }
    double sum = 0;
    for (const double s : samples) sum += s;
    const double mean = sum / static_cast<double>(samples.size());
    double var = 0;
    for (const double s : samples) var += (s - mean) * (s - mean);
    var /= static_cast<double>(samples.size());
    const double cv = std::sqrt(var) / mean;

    // Geometric/exponential: CV ~ 1; mean within 30% at n=120 (se ~ 9%).
    EXPECT_NEAR(mean, expected_mean, expected_mean * 0.3);
    EXPECT_NEAR(cv, 1.0, 0.35);
}

TEST(MiningModel, SimulatedRaceSharesAreProportional) {
    // In the exponential race, the probability a miner with share p wins a
    // round equals p — the property the whole Nakamoto simulation rests on.
    Rng rng(801);
    const double shares[3] = {0.6, 0.3, 0.1};
    int wins[3] = {0, 0, 0};
    const int rounds = 30000;
    for (int r = 0; r < rounds; ++r) {
        double best = 1e18;
        int winner = 0;
        for (int m = 0; m < 3; ++m) {
            const double t = consensus::sample_block_time(shares[m], 600.0, rng);
            if (t < best) {
                best = t;
                winner = m;
            }
        }
        ++wins[winner];
    }
    for (int m = 0; m < 3; ++m)
        EXPECT_NEAR(wins[m] / double(rounds), shares[m], 0.01) << "miner " << m;
}

} // namespace
