// Adversarial scenario matrix (paper §3.1 dependability × §2.4 consensus):
// run the cross-product of consensus engine × attack strategy × fault plan ×
// offered load through one harness and score every cell on the same axes —
// safety violations, liveness gap, reconvergence time, confirmed throughput,
// mempool drop mix, and maximum reorg depth. The matrix is the repo's
// resilience regression surface: E27 sweeps it into a scorecard JSON, CI
// smoke-runs a slice of it, and every bug the composition flushed out is
// pinned by a regression test next to the fix.
//
// Engines reuse the real networks (NakamotoNetwork under longest-chain or
// GHOST, dag::DagNetwork under GHOSTDAG, PbftCluster); attacks reuse the
// consensus-layer drivers (consensus::SelfishMiner, consensus::EclipseAttack)
// plus the higher-layer compositions only this layer can build: fee-market
// spam floods via a second app::WorkloadEngine, and crash-during-reorg via a
// core::PersistentNode shadow replica whose WAL is cut mid-reorg by a
// storage::CrashInjector and recovered from disk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dlt::app {

/// Which consensus family executes a cell.
enum class ScenarioEngine : std::uint8_t {
    kNakamotoLongest = 0, // NakamotoNetwork, BranchRule::kLongestChain
    kGhost,               // NakamotoNetwork, BranchRule::kGhost
    kGhostDag,            // dag::DagNetwork (GHOSTDAG ordering)
    kPbft,                // PbftCluster (f = 1, n = 4)
};
inline constexpr std::size_t kScenarioEngineCount = 4;
const char* scenario_engine_name(ScenarioEngine e); // "nakamoto", "ghost", ...

/// Which adversarial composition runs against the engine. Each attack maps to
/// the engine-appropriate analogue (PBFT has no mining to withhold, so
/// kSelfish becomes an equivocating primary; kCrashReorg becomes fail-stop +
/// recovery of a replica, and so on) — the mapping is documented per cell
/// runner in scenario.cpp and in DESIGN.md's attack-strategy table.
enum class ScenarioAttack : std::uint8_t {
    kHonest = 0,  // baseline: faults off, everyone follows the protocol
    kSelfish,     // withhold/release mining (chains), burst release (DAG),
                  // equivocating primary (PBFT)
    kEclipse,     // partition-one-victim behind an adversarial bridge; PBFT:
                  // isolate one replica for a window
    kSpam,        // fee-market flood via a second WorkloadEngine (10× client
                  // flood for PBFT)
    kCrashReorg,  // partition → heal → crash the node mid-merge-reorg, WAL
                  // recovery through a PersistentNode shadow replica
};
inline constexpr std::size_t kScenarioAttackCount = 5;
const char* scenario_attack_name(ScenarioAttack a); // "honest", "selfish", ...

/// The run lengths of every cell, in virtual seconds; the attack windows are
/// fractions of `duration` (scenario.cpp holds the other settings).
struct ScenarioConfig {
    double duration = 1200.0;     // attack/load window
    double tail = 400.0;          // post-window reconvergence allowance
    double pbft_duration = 300.0; // PBFT cells commit in ms, not minutes
};

/// One cell of the matrix, scored on the shared resilience axes. Everything
/// here is virtual-time or count data — no wall-clock values — so reruns and
/// DLT_THREADS sweeps produce byte-identical scorecards.
struct CellResult {
    ScenarioEngine engine{};
    ScenarioAttack attack{};
    double load_level = 0; // requested level (chains/DAG tps; PBFT ×multiplier)
    double offered_tps = 0; // actual offered rate after engine mapping

    /// Finality breaches: reorgs deeper than the engine's k, plus end-of-run
    /// finalized-prefix conflicts across peers (each conflicting peer counts).
    std::uint64_t safety_violations = 0;
    /// Longest interval (s) any peer went without its tip/order/log advancing.
    double liveness_gap_s = 0;
    /// Disruption-end → first global convergence (s); 0 when the cell has no
    /// divergence window; -1 when the network never reconverged in the tail.
    double reconvergence_s = 0;
    bool converged = false; // all peers agree at end of run
    double confirmed_tps = 0;
    std::uint64_t max_reorg_depth = 0; // deepest disconnect (relinearization
                                       // suffix for DAG; 0 for PBFT)
    std::uint64_t reorgs = 0;          // chain reorgs / relinearizations /
                                       // PBFT view changes
    /// Observed replica's mempool shed mix (zeros for PBFT).
    std::uint64_t drops_evicted = 0;
    std::uint64_t drops_expired = 0;
    std::uint64_t drops_replaced = 0;
    std::uint64_t admission_queue_full = 0;

    /// Selfish cells: canonical-chain revenue share vs hash share.
    double attacker_revenue_share = 0;
    double attacker_hash_share = 0;
    std::uint64_t fork_blocks = 0; // blocks/records withheld by the attacker

    /// Crash-reorg cells: shadow-replica recovery evidence.
    std::uint64_t shadow_wal_replayed = 0;
    std::uint64_t shadow_recoveries = 0;
    bool shadow_consistent = true; // recovered tip == simulated node's tip

    /// Engine-specific end-state digest (tip hash / order digest / log hash):
    /// the determinism probe CI diffs across reruns and thread counts.
    std::string digest;
};

/// Run one cell. `load_level` is the demand knob the matrix sweeps; chains
/// and the DAG offer it as tx/s, PBFT multiplies it by kPbftLoadMultiplier
/// (scenario.cpp).
CellResult run_scenario_cell(const ScenarioConfig& cfg, ScenarioEngine engine,
                             ScenarioAttack attack, double load_level);

/// Sweep the full cross-product (row-major: engine, then attack, then load).
std::vector<CellResult> run_scenario_matrix(const ScenarioConfig& cfg,
                                            const std::vector<ScenarioEngine>& engines,
                                            const std::vector<ScenarioAttack>& attacks,
                                            const std::vector<double>& loads);

} // namespace dlt::app
