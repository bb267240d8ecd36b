// Population-scale demand generator: millions of lightweight user agents
// submitting fee-bidding transactions into the Nakamoto network (the demand
// side of the paper's 7-vs-10K tps tension, §2.4/§4). The engine is O(1)
// memory per *inactive* agent — agent identity, activity rank, and bidding
// profile are all derived by hashing the agent id, so a 10-million-user
// population costs nothing until an agent actually transacts.
//
//   activity skew   -> Zipf(s) over the population via rejection-inversion
//                      sampling (Hörmann & Derflinger; the algorithm behind
//                      commons-math's RejectionInversionZipfSampler): O(1)
//                      per draw, no per-rank tables
//   arrival process -> inhomogeneous Poisson by thinning: a homogeneous
//                      peak-rate stream accepted with probability
//                      rate(t)/peak, giving diurnal sinusoid + square bursts
//   contention      -> a small set of hot shared accounts (exchange wallets,
//                      popular contracts) whose (sender, nonce) slots collide,
//                      exercising the mempool's conflict/RBF machinery — the
//                      account-model analogue of hot-UTXO contention
//   fee bidding     -> per-agent strategy (minimal / static / market-follower
//                      / urgent-bumper); followers query the observed
//                      mempool's fee_rate_floor() like a wallet fee estimator
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "consensus/sim_harness.hpp"
#include "sim/scheduler.hpp"

namespace dlt::app {

/// The minimal surface the workload engine needs from a transaction host:
/// virtual time, a fee market to observe, and a submission entry point. A
/// simulated network of either ledger family (consensus::SimHarness) is one,
/// so the same million-user demand stream drives chains and the DAG ledger
/// alike (E26's apples-to-apples requirement).
class TxHost {
public:
    virtual ~TxHost() = default;
    virtual sim::Scheduler& scheduler() = 0;
    virtual const ledger::Mempool& mempool_of(net::NodeId node) const = 0;
    virtual void submit_transaction(const ledger::Transaction& tx,
                                    net::NodeId origin) = 0;
};

/// Zipf-distributed ranks in [1, n] by rejection-inversion sampling; O(1)
/// state and O(1) expected work per draw for any population size.
class ZipfSampler {
public:
    /// `num_elements` ranks, skew `exponent` > 0 (1.0 = classic Zipf).
    ZipfSampler(std::uint64_t num_elements, double exponent);

    /// Draw a rank in [1, num_elements]; rank 1 is the most active.
    std::uint64_t sample(Rng& rng) const;

private:
    double h_integral(double x) const;
    double h(double x) const;
    double h_integral_inverse(double x) const;
    static double helper1(double x); // log1p(x)/x, stable near 0
    static double helper2(double x); // expm1(x)/x, stable near 0

    std::uint64_t n_;
    double exponent_;
    double h_integral_x1_;
    double h_integral_n_;
    double s_;
};

/// How an agent prices its transactions (who wins when block space is scarce).
enum class FeeStrategy : std::uint8_t {
    kMinimal = 0,    // always bids the relay floor
    kStatic,         // fixed personal feerate, ignores the market
    kMarketFollower, // queries the mempool floor and bids a margin above it
    kUrgentBumper,   // bids high; re-bids (RBF) if still unconfirmed
};
inline constexpr std::size_t kFeeStrategyCount = 4;
const char* fee_strategy_name(FeeStrategy s);

/// Derived (not stored) per-agent bidding profile.
struct AgentProfile {
    FeeStrategy strategy = FeeStrategy::kStatic;
    /// Strategy-specific aggressiveness in [0, 1) (static level, follower
    /// margin, bumper patience).
    double aggression = 0;
};

struct WorkloadParams {
    /// Distinct user agents; memory scales with *active* agents only.
    std::uint64_t population = 1'000'000;
    /// Zipf activity skew (> 0); ~1.1 matches observed blockchain usage.
    double zipf_exponent = 1.1;
    /// Mean offered load (tx/s of virtual time) before modulation.
    double base_tps = 10'000;

    /// Diurnal sinusoid: rate *= 1 + amplitude * sin(2π t / period).
    double diurnal_amplitude = 0.0; // 0 disables
    double diurnal_period = 86'400.0;
    /// Square-wave bursts: every `burst_every` seconds the rate multiplies by
    /// `burst_multiplier` for `burst_duration` seconds. 0 disables.
    double burst_every = 0.0;
    double burst_duration = 0.0;
    double burst_multiplier = 1.0;

    /// Hot shared accounts (exchange wallets / popular contracts): a fraction
    /// of traffic targets one of `hot_accounts` senders whose nonce slots
    /// deliberately collide, forcing conflict/RBF resolution in the mempool.
    std::uint64_t hot_accounts = 0;
    double hot_fraction = 0.0;
    /// Probability a colliding hot-account bid re-bids above the incumbent
    /// (an RBF attempt) instead of bidding blind.
    double rbf_bump_fraction = 0.5;

    /// Record payload bytes per transaction.
    std::size_t payload_bytes = 96;

    /// Discrete feerate menu (real wallets quantize; ties exercise the
    /// index's tie-breaking): `fee_levels` levels spanning [min, max].
    double min_fee_rate = 0.5;
    double max_fee_rate = 8.0;
    std::uint64_t fee_levels = 32;

    /// Submissions are spread uniformly over the first `submit_nodes` peers.
    std::uint32_t submit_nodes = 1;
};

struct WorkloadStats {
    std::uint64_t submitted = 0;      // transactions handed to the network
    std::uint64_t thinned = 0;        // arrivals rejected by rate thinning
    std::uint64_t hot_submissions = 0;
    std::uint64_t rbf_bids = 0;       // deliberate conflicting re-bids
    std::uint64_t distinct_agents = 0;
};

/// One submitted transaction, for latency-vs-fee analysis downstream.
struct Submission {
    Hash256 txid;
    double fee_rate = 0;
    SimTime at = 0;
    std::uint64_t agent = 0;
};

class WorkloadEngine {
public:
    /// Drive any transaction host (non-owning; `host` must outlive the engine).
    WorkloadEngine(TxHost& host, WorkloadParams params, std::uint64_t seed);
    /// Drives a simulated network of either ledger family directly.
    WorkloadEngine(consensus::SimHarness& net, WorkloadParams params,
                   std::uint64_t seed);

    /// Schedule the arrival process (idempotent). Arrivals continue until
    /// stop() or the end of the simulation run.
    void start();
    void stop();

    /// Offered rate (tx/s) at virtual time `t` after diurnal/burst modulation.
    double rate_at(SimTime t) const;

    /// Deterministically derived profile of any agent id (no storage).
    AgentProfile profile_of(std::uint64_t agent) const;

    const WorkloadStats& stats() const { return stats_; }
    const std::vector<Submission>& submissions() const { return submissions_; }
    const WorkloadParams& params() const { return params_; }

private:
    void init(); // shared ctor validation + peak-rate derivation
    void schedule_next();
    void emit_one();
    /// Quantize a desired feerate onto the discrete fee menu.
    double quantize(double fee_rate) const;
    double bid(const AgentProfile& profile, std::uint32_t node);

    /// Owns the adapter when constructed from a concrete network type.
    std::unique_ptr<TxHost> owned_host_;
    TxHost& net_;
    WorkloadParams params_;
    Rng rng_;
    ZipfSampler zipf_;
    double peak_rate_; // thinning envelope
    std::optional<sim::EventId> next_event_;
    /// Next nonce per *active* sender (agents that transacted at least once).
    std::unordered_map<std::uint64_t, std::uint64_t> agent_nonce_;
    /// Hot accounts: latest (possibly contested) nonce slot and its best bid.
    struct HotSlot {
        std::uint64_t nonce = 0;
        double best_rate = 0;
        std::uint32_t writers = 0; // bids on the current slot so far
    };
    std::unordered_map<std::uint64_t, HotSlot> hot_slots_;
    WorkloadStats stats_;
    std::vector<Submission> submissions_;
};

} // namespace dlt::app
