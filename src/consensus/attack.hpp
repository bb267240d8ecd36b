// Adversarial strategy analysis and pluggable attack drivers (paper §2.4:
// immutability holds unless an attacker musters "more than 51% of the entire
// network" — but weaker adversaries still profit from *strategic* deviations).
//
// Two layers live here:
//   1. Closed-form + Monte Carlo double-spend analysis from the Bitcoin
//      whitepaper (attacker_success_probability / simulate_attack_success).
//   2. Pluggable attack drivers that run *inside* the full network simulation
//      via the consensus-layer interposition hooks (mined-block hook, relay
//      filter, publish_block): selfish mining (Eyal–Sirer
//      withhold/release) and eclipse (bridge a partitioned victim through the
//      attacker, filtering what it may see). Higher-layer attack compositions
//      — fee-market spam floods via app::WorkloadEngine, crash-during-reorg
//      via core::PersistentNode — are parameterized here (plain descriptor
//      structs) but driven from app/scenario.cpp, which sits above both.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/network.hpp"

namespace dlt::ledger {
struct Block;
}

namespace dlt::consensus {

class NakamotoNetwork;
class SimHarness;

/// Nakamoto's analytic probability that an attacker controlling fraction `q`
/// of the hash power ever catches up from `z` blocks behind (Bitcoin paper,
/// section 11). Returns 1.0 for q >= 0.5.
double attacker_success_probability(double q, unsigned z);

/// Monte Carlo estimate of the same quantity by simulating the block race:
/// the honest chain extends with probability 1-q per step, the private fork
/// with probability q; the attacker starts z blocks behind (after the victim
/// waited for z confirmations) and wins by reaching a lead of +1.
/// `max_steps` bounds each race (unfinished races count as failure, which
/// under-estimates negligibly for q < 0.5).
double simulate_attack_success(double q, unsigned z, std::size_t trials, Rng& rng,
                               std::size_t max_steps = 100'000);

// ---------------------------------------------------------------------------
// Selfish mining (Eyal & Sirer, "Majority is not Enough")
// ---------------------------------------------------------------------------

/// Running counters a SelfishMiner exposes for scorecards and tests.
struct SelfishStats {
    std::uint64_t blocks_mined = 0;     // attacker blocks found
    std::uint64_t blocks_published = 0; // withheld blocks later released
    std::uint64_t forks_abandoned = 0;  // private forks overtaken and dropped
    std::uint64_t tie_races = 0;        // equal-length races forced
    std::uint64_t max_lead = 0;         // deepest private lead reached
};

/// Withhold/release strategy driver for one attacker node on a
/// NakamotoNetwork. The attacker mines privately (mined-block hook returns
/// false → local adoption only) and releases blocks according to the
/// Eyal–Sirer state machine, reacting to honest-chain growth observed through
/// the attacker's ChainEvents:
///   - honest chain reaches one-below the private fork → publish everything
///     (equal-length tie race; the network-wide lower-hash tie-break plays
///     the role of the γ split),
///   - honest chain reaches two-below → publish everything and win outright,
///   - larger lead → trickle out withheld blocks matching the public height,
///   - honest chain catches the fork → abandon it and re-join the honest tip,
///   - fresh block while a tie race is pending → publish it at once (state 0').
/// Above α ≈ 1/3 of the hash power the attacker's share of canonical-chain
/// blocks exceeds α — the revenue superlinearity the scorecard asserts.
class SelfishMiner {
public:
    SelfishMiner(NakamotoNetwork& net, net::NodeId attacker);

    // The driver installs the network's (single) mined-block hook and chains
    // onto the attacker's on_block_inserted observer; it must outlive the run.
    SelfishMiner(const SelfishMiner&) = delete;
    SelfishMiner& operator=(const SelfishMiner&) = delete;

    /// End-of-run flush: release any still-withheld fork (the chain's
    /// work-ordering decides whether it wins) and uninstall the hook.
    void finish();

    const SelfishStats& stats() const { return stats_; }
    std::uint64_t withheld_count() const { return withheld_.size(); }

private:
    bool on_mined(net::NodeId node, const ledger::Block& block);
    void on_honest_block(const ledger::Block& block);
    void publish_front();

    NakamotoNetwork* net_;
    net::NodeId attacker_;
    std::deque<std::pair<Hash256, std::uint64_t>> withheld_; // (hash, height)
    std::uint64_t private_height_ = 0;
    std::uint64_t public_height_ = 0;
    bool tie_race_ = false;
    bool finished_ = false;
    SelfishStats stats_;
};

/// Fraction of canonical-chain blocks (per peer 0's active chain, genesis
/// excluded) proposed by `node` — the attacker's realized revenue share, to be
/// compared against its hash-power share.
double proposer_share(const NakamotoNetwork& net, net::NodeId node);

// ---------------------------------------------------------------------------
// Eclipse (partition-one-victim behind an adversarial bridge)
// ---------------------------------------------------------------------------

struct EclipseParams {
    net::NodeId attacker = 0;
    net::NodeId victim = 1;
};

/// Eclipse driver, for a NakamotoNetwork or a dag::DagNetwork: cuts the
/// victim from every peer except the attacker using a named partition (the
/// attacker sits in no group, so it bridges both sides), then installs a relay
/// filter refusing to relay transactions and blocks across the
/// attacker↔victim edge in either direction. Fetch replies stay unfiltered —
/// the victim can still backfill ancestors of whatever the attacker chooses to
/// show it. The attacker mines privately and pushes its secret blocks straight
/// to the victim, so the victim adopts an attacker-controlled fork the honest
/// network never sees (the double-spend setup). heal() reverses everything and releases any withheld attacker
/// fork; the victim then reorganizes onto the honest chain (or re-linearizes
/// the merged DAG), which is what the scenario scorecard measures.
class EclipseAttack {
public:
    EclipseAttack(SimHarness& net, EclipseParams params);

    EclipseAttack(const EclipseAttack&) = delete;
    EclipseAttack& operator=(const EclipseAttack&) = delete;

    /// Lift the partition + relay filter + mining hook and publish the
    /// withheld fork (the honest chain's greater work defeats it; publishing
    /// just lets every peer see and discard it deterministically).
    void heal();

    std::uint64_t fork_blocks() const { return fork_.size(); }

private:
    bool on_mined(net::NodeId node, const ledger::Block& block);

    SimHarness* net_;
    EclipseParams params_;
    std::string partition_;
    std::vector<Hash256> fork_; // withheld blocks fed only to the victim
    bool healed_ = false;
};

} // namespace dlt::consensus
