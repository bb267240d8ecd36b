#include "app/scenario.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "app/workload.hpp"
#include "common/assert.hpp"
#include "consensus/attack.hpp"
#include "consensus/dag/network.hpp"
#include "consensus/events.hpp"
#include "consensus/nakamoto.hpp"
#include "consensus/pbft.hpp"
#include "core/persistent_node.hpp"
#include "crypto/sha256.hpp"
#include "ledger/mempool.hpp"
#include "storage/file.hpp"

namespace dlt::app {

const char* scenario_engine_name(ScenarioEngine e) {
    switch (e) {
    case ScenarioEngine::kNakamotoLongest: return "nakamoto";
    case ScenarioEngine::kGhost: return "ghost";
    case ScenarioEngine::kGhostDag: return "ghostdag";
    case ScenarioEngine::kPbft: return "pbft";
    }
    return "?";
}

const char* scenario_attack_name(ScenarioAttack a) {
    switch (a) {
    case ScenarioAttack::kHonest: return "honest";
    case ScenarioAttack::kSelfish: return "selfish";
    case ScenarioAttack::kEclipse: return "eclipse";
    case ScenarioAttack::kSpam: return "spam";
    case ScenarioAttack::kCrashReorg: return "crash_reorg";
    }
    return "?";
}

namespace {

// The settings every cell shares. Times are virtual seconds; fractions are of
// ScenarioConfig::duration. They are sized so disruption windows stay *inside*
// the finality depth of each engine — the acceptance bar is that eclipse and
// crash cells end with zero safety violations after heal/recovery, which is
// only a meaningful claim if the windows could not have exceeded k anyway.
constexpr std::size_t kNodeCount = 12;  // chain/DAG peers (PBFT is fixed at 3f+1)
constexpr double kBlockInterval = 20.0; // chains
constexpr double kRecordInterval = 5.0; // DAG
constexpr std::uint64_t kFinalityDepth = 6;     // k for chains (reorg > k = unsafe)
constexpr std::uint64_t kDagFinalityDepth = 32; // relinearization-depth bound
constexpr std::uint64_t kSeed = 2027;

/// Selfish miner: hash share of the attacker (> ~1/3 so the revenue
/// superlinearity is visible) and its node id.
constexpr double kSelfishHashShare = 0.40;
/// Selfish chain cells run `duration × this` so the revenue share is a
/// statistic, not a coin flip: at ~60 blocks the realized share of an
/// α = 0.40 selfish miner spans 0.17–0.47 across seeds; at ~700 blocks it
/// concentrates near the Eyal–Sirer prediction (≈ 0.49 for longest-chain).
/// GHOST stays damped even at this length — stale honest siblings keep
/// their subtree weight, which is the point of the rule.
constexpr double kSelfishDurationMultiplier = 12.0;
constexpr net::NodeId kAttacker = 1;
constexpr net::NodeId kVictim = 2;

/// Eclipse: attacker hash share (enough to grow a short private fork for
/// the victim) and the disruption window.
constexpr double kEclipseHashShare = 0.25;
constexpr double kEclipseStartFrac = 0.45;
constexpr double kEclipseEndFrac = 0.55;

/// Spam flood: adversarial offered load and fee bid over the window.
constexpr double kSpamTps = 50.0;
constexpr double kSpamFeeRate = 6.0;
constexpr double kSpamStartFrac = 0.25;
constexpr double kSpamEndFrac = 0.75;

/// Crash-during-reorg: cut at `kCrashCutFrac`, heal after
/// `kCrashPartitionIntervals` block intervals; the victim is crashed just
/// before the heal and recovered two intervals after it, so its catch-up
/// reorg happens immediately post-recovery — which is when the shadow
/// replica's WAL is cut.
constexpr double kCrashCutFrac = 0.30;
constexpr double kCrashPartitionIntervals = 8.0;
/// Injector byte budget for the shadow WAL cut (dies mid-batch).
constexpr std::uint64_t kCrashWalBudget = 600;

/// PBFT offered load is `load × kPbftLoadMultiplier` requests/s (BFT
/// ordering runs orders of magnitude faster than PoW confirmation).
constexpr double kPbftLoadMultiplier = 10.0;

/// Honest demand shape (population-scale fee-bidding agents).
constexpr std::uint64_t kPopulation = 50'000;
constexpr std::uint32_t kSubmitNodes = 4;

/// Deterministic per-cell seed: every (engine, attack, load) cell gets an
/// independent stream, and the whole matrix replays bit-for-bit from kSeed
/// alone.
std::uint64_t cell_seed(ScenarioEngine engine, ScenarioAttack attack,
                        double load_level) {
    std::uint64_t s = kSeed * 1'000'003ULL;
    s += static_cast<std::uint64_t>(engine) * 10'007ULL;
    s += static_cast<std::uint64_t>(attack) * 101ULL;
    s += static_cast<std::uint64_t>(load_level * 16.0);
    return s;
}

/// Per-node safety/liveness probe. Installs on_tip_changed + on_reorg only,
/// leaving on_block_inserted free for attack drivers (SelfishMiner chains onto
/// that one); the crash-reorg shadow replica chains onto on_reorg *after*
/// monitors attach, preserving these observers.
struct NodeMonitor {
    std::uint64_t finality_depth = 6;
    std::uint64_t best = 0;        // highest tip height / order position seen
    SimTime last_advance = 0;
    double max_gap = 0;            // longest interval without advancement
    std::uint64_t max_reorg = 0;   // deepest disconnect observed
    std::uint64_t deep_reorgs = 0; // disconnects deeper than finality_depth

    void attach(consensus::ChainEvents& ev) {
        ev.on_tip_changed = [this](const Hash256&, std::uint64_t height,
                                   SimTime at) {
            if (height > best) {
                max_gap = std::max(max_gap, at - last_advance);
                last_advance = at;
                best = height;
            }
        };
        ev.on_reorg = [this](const std::vector<Hash256>& disconnected,
                             const std::vector<Hash256>&, SimTime) {
            const auto depth = static_cast<std::uint64_t>(disconnected.size());
            max_reorg = std::max(max_reorg, depth);
            if (depth > finality_depth) ++deep_reorgs;
        };
    }

    void finish(SimTime end) { max_gap = std::max(max_gap, end - last_advance); }
};

/// Fold a vector of monitors into the cell's liveness/safety fields.
void fold_monitors(std::vector<NodeMonitor>& monitors, SimTime end,
                   CellResult& r) {
    for (auto& m : monitors) {
        m.finish(end);
        r.liveness_gap_s = std::max(r.liveness_gap_s, m.max_gap);
        r.max_reorg_depth = std::max(r.max_reorg_depth, m.max_reorg);
        r.safety_violations += m.deep_reorgs;
    }
}

void fill_mempool_stats(const ledger::Mempool& pool, CellResult& r) {
    const ledger::MempoolStats& s = pool.stats();
    r.drops_evicted = s.drops(ledger::MempoolDropReason::kEvicted);
    r.drops_expired = s.drops(ledger::MempoolDropReason::kExpired);
    r.drops_replaced = s.drops(ledger::MempoolDropReason::kReplaced);
    r.admission_queue_full = s.result(ledger::AdmissionResult::kQueueFull);
}

WorkloadParams honest_demand(double tps) {
    WorkloadParams w;
    w.population = kPopulation;
    w.base_tps = tps;
    w.payload_bytes = 96;
    w.min_fee_rate = 0.5;
    w.max_fee_rate = 8.0;
    w.submit_nodes = kSubmitNodes;
    return w;
}

/// Spam-flood demand: a small cohort hammering hot shared accounts at a flat
/// high bid (a WorkloadEngine configuration).
WorkloadParams spam_demand() {
    WorkloadParams w;
    w.population = 1'000;
    w.base_tps = kSpamTps;
    w.payload_bytes = 96;
    w.hot_accounts = 16;
    w.hot_fraction = 0.5;
    w.min_fee_rate = kSpamFeeRate;
    w.max_fee_rate = kSpamFeeRate;
    w.submit_nodes = kSubmitNodes;
    return w;
}

/// The two-group partition used by crash-reorg cells: a small minority side
/// {0, 1, 2} (containing the crash victim) that almost surely loses the merge
/// reorg, and the majority rest.
std::vector<std::vector<net::NodeId>> crash_groups(std::size_t node_count) {
    std::vector<std::vector<net::NodeId>> groups(2);
    for (net::NodeId n = 0; n < node_count; ++n)
        groups[n < 3 ? 0 : 1].push_back(n);
    return groups;
}

/// The attacks both ledger families meet the same way: the eclipse bridge
/// (EclipseAttack drives either network) and the spam flood. Returns when the
/// disruption ends, or -1 for spam, which diverges nothing on purpose.
double schedule_shared_attack(consensus::SimHarness& net, const ScenarioConfig& cfg,
                              ScenarioAttack attack, std::uint64_t seed,
                              std::optional<consensus::EclipseAttack>& eclipse,
                              std::optional<WorkloadEngine>& spam) {
    sim::Scheduler& sched = net.scheduler();
    if (attack == ScenarioAttack::kSpam) {
        spam.emplace(net, spam_demand(), seed + 2);
        sched.schedule_at(kSpamStartFrac * cfg.duration, [&spam] { spam->start(); });
        sched.schedule_at(kSpamEndFrac * cfg.duration, [&spam] { spam->stop(); });
        return -1.0;
    }
    DLT_EXPECTS(attack == ScenarioAttack::kEclipse);
    consensus::EclipseParams ep;
    ep.attacker = kAttacker;
    ep.victim = kVictim;
    sched.schedule_at(kEclipseStartFrac * cfg.duration,
                      [&net, &eclipse, ep] { eclipse.emplace(net, ep); });
    const double disruption_end = kEclipseEndFrac * cfg.duration;
    sched.schedule_at(disruption_end, [&eclipse] {
        if (eclipse) eclipse->heal();
    });
    return disruption_end;
}

/// Run the cell's window in `slice`s, call `finish` (stop the demand, heal,
/// release what is withheld), then keep running until every peer agrees or
/// the tail runs out. Returns the reconvergence time after `disruption_end`:
/// 0 for a cell that never diverges on purpose, -1 when it never reconverged.
double run_window(consensus::SimHarness& net, double duration, double tail, double slice,
                  double disruption_end, const std::function<void()>& finish) {
    double reconv = -1.0;
    while (net.now() < duration - 1e-9) {
        net.run_for(std::min(slice, duration - net.now()));
        if (disruption_end >= 0 && reconv < 0 && net.now() >= disruption_end &&
            net.converged())
            reconv = net.now() - disruption_end;
    }
    finish();
    for (; net.now() < duration + tail; net.run_for(slice)) {
        if (!net.converged()) continue;
        if (disruption_end >= 0 && reconv < 0) reconv = net.now() - disruption_end;
        break;
    }
    return disruption_end < 0 ? 0.0 : reconv;
}

// ---------------------------------------------------------------------------
// Crash-during-reorg shadow replica
// ---------------------------------------------------------------------------

/// Durable mirror of one simulated peer: every on_reorg delta is replayed as
/// PersistentNode disconnect/connect calls (block + undo + WAL commit per
/// transition). The harness arms the CrashInjector when the post-heal merge
/// reorg begins, so the WAL is cut mid-batch; reopen_and_reconcile() then
/// recovers from disk and catches up to the live peer through
/// ChainStore::reorg_path — the end-of-cell consistency check is the
/// scorecard's "crash-during-reorg is safe" evidence.
class ShadowReplica {
public:
    ShadowReplica(consensus::NakamotoNetwork& net, net::NodeId node, const std::string& tag)
        : net_(net), node_(node), dir_(tag) {
        const ledger::ChainStore& chain = net_.chain_of(node_);
        const auto* g = chain.find(chain.genesis_hash());
        DLT_EXPECTS(g != nullptr);
        genesis_ = g->block;
        options_.injector = &injector_;
        store_ = std::make_unique<core::PersistentNode>(dir_.path, genesis_, options_);

        consensus::ChainEvents& ev = net_.events(node_);
        auto prev = std::move(ev.on_reorg);
        ev.on_reorg = [this, prev = std::move(prev)](
                          const std::vector<Hash256>& disconnected,
                          const std::vector<Hash256>& connected, SimTime at) {
            if (prev) prev(disconnected, connected, at);
            mirror(disconnected, connected);
        };
    }

    /// Cut the WAL partway through the next real (nonempty-disconnect) reorg.
    void arm_on_next_reorg() { arm_pending_ = true; }

    bool dead() const { return dead_; }
    std::uint64_t wal_replayed() const { return wal_replayed_; }
    std::uint64_t recoveries() const { return recoveries_; }

    /// Reopen from disk (replaying the committed WAL suffix) and roll the
    /// recovered tip forward/back to the live peer's current tip.
    void reopen_and_reconcile() {
        // Neutralize the injector first: arm() with an unbounded budget also
        // clears a tripped crashed flag, so neither the recovery replay nor
        // the catch-up below can be cut a second time.
        arm_pending_ = false;
        injector_.arm(std::numeric_limits<std::uint64_t>::max());
        if (dead_) {
            store_.reset(); // close the torn files before recovery reopens them
            store_ = std::make_unique<core::PersistentNode>(dir_.path, genesis_,
                                                            options_);
            wal_replayed_ += store_->recovery().wal_records_replayed;
            ++recoveries_;
            dead_ = false;
        }
        reconcile();
    }

    bool consistent() const {
        return !dead_ && store_ != nullptr && store_->tip() == net_.tip_of(node_);
    }

private:
    void mirror(const std::vector<Hash256>& disconnected,
                const std::vector<Hash256>& connected) {
        if (dead_) return; // events while crashed are lost; reconcile replays
        // A merge reorg shows up as a nonempty disconnect, but under GHOST
        // the recovering side may simply extend (its fork was already the
        // heavier subtree) — a multi-block connect batch rides the same WAL
        // window, so it arms the cut too.
        if (arm_pending_ && (!disconnected.empty() || connected.size() > 1)) {
            arm_pending_ = false;
            injector_.arm(kCrashWalBudget);
        }
        try {
            const ledger::ChainStore& chain = net_.chain_of(node_);
            for (std::size_t i = 0; i < disconnected.size(); ++i)
                store_->disconnect_tip();
            for (const Hash256& hash : connected)
                store_->connect_block(chain.find(hash)->block);
        } catch (const storage::CrashError&) {
            dead_ = true;
        }
    }

    void reconcile() {
        const ledger::ChainStore& chain = net_.chain_of(node_);
        const auto path = chain.reorg_path(store_->tip(), net_.tip_of(node_));
        for (std::size_t i = 0; i < path.disconnect.size(); ++i)
            store_->disconnect_tip();
        for (const Hash256& hash : path.connect)
            store_->connect_block(chain.find(hash)->block);
    }

    consensus::NakamotoNetwork& net_;
    net::NodeId node_;
    storage::TempDir dir_;
    storage::CrashInjector injector_;
    core::PersistentNodeOptions options_;
    std::unique_ptr<core::PersistentNode> store_;
    ledger::Block genesis_;
    bool dead_ = false;
    bool arm_pending_ = false;
    std::uint64_t wal_replayed_ = 0;
    std::uint64_t recoveries_ = 0;
};

// ---------------------------------------------------------------------------
// Chain cells (Nakamoto longest-chain / GHOST)
// ---------------------------------------------------------------------------

CellResult run_chain_cell(const ScenarioConfig& cfg, ScenarioEngine engine,
                          ScenarioAttack attack, double load_level) {
    const std::uint64_t seed = cell_seed(engine, attack, load_level);
    const double interval = kBlockInterval;
    // Selfish cells need enough blocks for the revenue share to be a
    // statistic rather than a seed lottery (see kSelfishDurationMultiplier).
    const double duration =
        cfg.duration *
        (attack == ScenarioAttack::kSelfish ? kSelfishDurationMultiplier : 1.0);

    consensus::NakamotoParams params;
    params.node_count = kNodeCount;
    params.block_interval = interval;
    params.branch_rule = engine == ScenarioEngine::kGhost
                             ? consensus::BranchRule::kGhost
                             : consensus::BranchRule::kLongestChain;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    params.max_block_txs = 400; // scarce block space so floods actually queue
    params.mempool.max_count = 2'000;
    params.mempool.min_fee_rate = 0.1;
    params.mempool.expiry = 600.0;
    params.finality_depth = kFinalityDepth;
    params.chain_tag = std::string("e27/") + scenario_engine_name(engine) + "/" +
                       scenario_attack_name(attack);
    if (attack == ScenarioAttack::kSelfish || attack == ScenarioAttack::kEclipse) {
        const double share =
            attack == ScenarioAttack::kSelfish ? kSelfishHashShare : kEclipseHashShare;
        params.hashrate_shares.assign(kNodeCount,
                                      (1.0 - share) / static_cast<double>(kNodeCount - 1));
        params.hashrate_shares[kAttacker] = share;
    }

    consensus::NakamotoNetwork net(params, seed);

    std::vector<NodeMonitor> monitors(kNodeCount);
    for (net::NodeId n = 0; n < kNodeCount; ++n) {
        monitors[n].finality_depth = kFinalityDepth;
        monitors[n].attach(net.events(n));
    }

    WorkloadEngine demand(net, honest_demand(load_level), seed + 1);

    // Attack composition. disruption_end < 0 means the cell never diverges
    // on purpose (honest, spam) and reconvergence is reported as 0.
    double disruption_end = -1.0;
    std::optional<consensus::SelfishMiner> selfish;
    std::optional<consensus::EclipseAttack> eclipse;
    std::optional<WorkloadEngine> spam;
    std::optional<ShadowReplica> shadow;
    sim::Scheduler& sched = net.scheduler();

    switch (attack) {
    case ScenarioAttack::kHonest:
        break;
    case ScenarioAttack::kSelfish:
        // Runs for the whole window; finish() at the end of it releases the
        // last withheld fork, so that is when reconvergence starts counting.
        selfish.emplace(net, kAttacker);
        disruption_end = duration;
        break;
    case ScenarioAttack::kEclipse:
    case ScenarioAttack::kSpam:
        disruption_end = schedule_shared_attack(net, cfg, attack, seed, eclipse, spam);
        break;
    case ScenarioAttack::kCrashReorg: {
        const double cut_at = kCrashCutFrac * cfg.duration;
        const double heal_at = cut_at + kCrashPartitionIntervals * interval;
        const double crash_at = heal_at - interval; // miss the merge while down
        const double recover_at = heal_at + 2 * interval;
        net::FaultPlan plan;
        plan.cut(cut_at, "e27/split", crash_groups(kNodeCount));
        plan.crash(crash_at, kVictim);
        plan.heal(heal_at, "e27/split");
        plan.recover(recover_at, kVictim);
        net.network().apply(plan);
        disruption_end = recover_at;

        shadow.emplace(net, kVictim,
                       std::string("e27-shadow-") + scenario_engine_name(engine) + "-l" +
                           std::to_string(static_cast<int>(load_level)));
        // The victim's catch-up reorg happens right after it recovers (it
        // learns the majority chain through gossip); cut the shadow WAL then,
        // and reopen one interval later.
        sched.schedule_at(heal_at, [&shadow] { shadow->arm_on_next_reorg(); });
        sched.schedule_at(recover_at + interval, [&shadow] {
            if (shadow->dead()) shadow->reopen_and_reconcile();
        });
        break;
    }
    }

    net.start();
    demand.start();
    // Half-interval slices, so reconvergence is observed with bounded
    // granularity.
    const double reconv =
        run_window(net, duration, cfg.tail, interval / 2, disruption_end, [&] {
            demand.stop();
            if (spam) spam->stop();
            if (selfish) selfish->finish(); // releases the final fork at disruption_end
            if (eclipse) eclipse->heal();
        });
    if (shadow) shadow->reopen_and_reconcile(); // final catch-up, then audit

    CellResult r;
    r.engine = engine;
    r.attack = attack;
    r.load_level = load_level;
    r.offered_tps = load_level;
    r.converged = net.converged();
    r.reconvergence_s = reconv;
    r.confirmed_tps = static_cast<double>(net.confirmed_tx_count()) / duration;
    r.reorgs = net.stats().reorgs;
    fold_monitors(monitors, net.now(), r);
    fill_mempool_stats(net.mempool_of(0), r);

    // End-of-run finalized-prefix audit: every peer must agree on the chain
    // up to (min height - k); each disagreeing peer is a safety violation.
    std::uint64_t min_height = net.height_of(0);
    for (net::NodeId n = 1; n < kNodeCount; ++n)
        min_height = std::min(min_height, net.height_of(n));
    if (min_height > kFinalityDepth) {
        const std::uint64_t final_height = min_height - kFinalityDepth;
        const Hash256 ref = net.chain_of(0).ancestor(
            net.tip_of(0), net.height_of(0) - final_height);
        for (net::NodeId n = 1; n < kNodeCount; ++n)
            if (net.chain_of(n).ancestor(net.tip_of(n),
                                         net.height_of(n) - final_height) != ref)
                ++r.safety_violations;
    }

    if (selfish) {
        r.attacker_revenue_share = consensus::proposer_share(net, kAttacker);
        r.attacker_hash_share = kSelfishHashShare;
        r.fork_blocks = selfish->stats().blocks_published;
    }
    if (eclipse) {
        r.attacker_revenue_share = consensus::proposer_share(net, kAttacker);
        r.attacker_hash_share = kEclipseHashShare;
        r.fork_blocks = eclipse->fork_blocks();
    }
    if (shadow) {
        r.shadow_wal_replayed = shadow->wal_replayed();
        r.shadow_recoveries = shadow->recoveries();
        r.shadow_consistent = shadow->consistent();
    }
    r.digest = net.tip_of(0).hex();
    return r;
}

// ---------------------------------------------------------------------------
// GHOSTDAG cells
// ---------------------------------------------------------------------------

CellResult run_dag_cell(const ScenarioConfig& cfg, ScenarioAttack attack,
                        double load_level) {
    const std::uint64_t seed = cell_seed(ScenarioEngine::kGhostDag, attack, load_level);
    const double interval = kRecordInterval;

    consensus::dag::DagParams params;
    params.node_count = kNodeCount;
    params.record_interval = interval;
    params.validation.sig_mode = ledger::SigCheckMode::kSkip;
    params.max_block_txs = 400;
    params.mempool.max_count = 2'000;
    params.mempool.min_fee_rate = 0.1;
    params.mempool.expiry = 600.0;
    params.chain_tag = std::string("e27/ghostdag/") + scenario_attack_name(attack);

    consensus::dag::DagNetwork net(params, seed);

    std::vector<NodeMonitor> monitors(kNodeCount);
    for (net::NodeId n = 0; n < kNodeCount; ++n) {
        monitors[n].finality_depth = kDagFinalityDepth;
        monitors[n].attach(net.events(n));
    }

    WorkloadEngine demand(net, honest_demand(load_level), seed + 1);

    double disruption_end = -1.0;
    std::optional<WorkloadEngine> spam;
    std::optional<consensus::EclipseAttack> eclipse;
    std::vector<Hash256> withheld; // selfish burst buffer
    std::uint64_t withheld_total = 0;
    sim::Scheduler& sched = net.scheduler();

    switch (attack) {
    case ScenarioAttack::kHonest:
        break;
    case ScenarioAttack::kSelfish: {
        // Withhold/burst-release: the attacker keeps its records private and
        // dumps them every few intervals, forcing suffix re-linearizations at
        // every peer — the disruption GHOSTDAG's k-cluster rule is meant to
        // bound (relinearization depth must stay under kDagFinalityDepth).
        const net::NodeId attacker = kAttacker;
        net.set_mined_block_hook(
            [&withheld, &withheld_total, attacker](net::NodeId node,
                                                   const ledger::Block& record) {
                if (node != attacker) return true;
                withheld.push_back(record.hash());
                ++withheld_total;
                return false;
            });
        const double release_every = 4 * interval;
        for (double t = release_every; t < cfg.duration; t += release_every)
            sched.schedule_at(t, [&net, &withheld, attacker] {
                for (const Hash256& hash : withheld)
                    net.publish_block(attacker, hash);
                withheld.clear();
            });
        disruption_end = cfg.duration;
        break;
    }
    case ScenarioAttack::kEclipse:
    case ScenarioAttack::kSpam:
        disruption_end = schedule_shared_attack(net, cfg, attack, seed, eclipse, spam);
        break;
    case ScenarioAttack::kCrashReorg: {
        // Fail-stop composition only: the DAG ledger has no durable node yet
        // (PersistentNode journals linear chains), so this cell measures the
        // relinearization storm of a partition-heal merge with a crashed-and-
        // recovered producer in the minority side.
        const double cut_at = kCrashCutFrac * cfg.duration;
        const double heal_at = cut_at + kCrashPartitionIntervals * interval;
        net::FaultPlan plan;
        plan.cut(cut_at, "e27/split", crash_groups(kNodeCount));
        plan.crash(heal_at - interval, kVictim);
        plan.heal(heal_at, "e27/split");
        plan.recover(heal_at + 2 * interval, kVictim);
        net.network().apply(plan);
        disruption_end = heal_at + 2 * interval;
        break;
    }
    }

    net.start();
    demand.start();
    const double reconv = run_window(
        net, cfg.duration, cfg.tail, std::max(interval, 2.0), disruption_end, [&] {
            demand.stop();
            if (spam) spam->stop();
            if (eclipse) eclipse->heal();
            for (const Hash256& hash : withheld) net.publish_block(kAttacker, hash);
            withheld.clear();
            net.set_mined_block_hook(nullptr);
        });

    CellResult r;
    r.engine = ScenarioEngine::kGhostDag;
    r.attack = attack;
    r.load_level = load_level;
    r.offered_tps = load_level;
    r.converged = net.converged();
    r.reconvergence_s = reconv;
    r.confirmed_tps =
        static_cast<double>(net.confirmed_tx_count()) / cfg.duration;
    r.reorgs = net.stats().relinearizations;
    fold_monitors(monitors, net.now(), r);
    fill_mempool_stats(net.mempool_of(0), r);

    // Finalized-prefix audit over the GHOSTDAG total order: all peers must
    // share the order up to (min length - k).
    std::vector<std::vector<Hash256>> orders(kNodeCount);
    std::size_t min_len = SIZE_MAX;
    for (net::NodeId n = 0; n < kNodeCount; ++n) {
        orders[n] = net.linear_order(n);
        min_len = std::min(min_len, orders[n].size());
    }
    if (min_len > kDagFinalityDepth) {
        const std::size_t prefix = min_len - kDagFinalityDepth;
        for (net::NodeId n = 1; n < kNodeCount; ++n)
            if (!std::equal(orders[0].begin(), orders[0].begin() + prefix,
                            orders[n].begin()))
                ++r.safety_violations;
    }

    if (attack == ScenarioAttack::kSelfish) {
        // Revenue share in the DAG: fraction of ordered records the attacker
        // proposed (no stale blocks — withheld records still merge in).
        const auto order = net.linear_order(0);
        std::size_t owned = 0, counted = 0;
        const crypto::Address& addr = net.miner_address(kAttacker);
        for (const Hash256& hash : order) {
            const auto* entry = net.store_of(0).find(hash);
            if (entry == nullptr) continue;
            ++counted;
            if (entry->block.header.proposer == addr) ++owned;
        }
        r.attacker_revenue_share =
            counted > 0 ? static_cast<double>(owned) / counted : 0.0;
        r.attacker_hash_share = 1.0 / static_cast<double>(kNodeCount);
        r.fork_blocks = withheld_total;
    }
    if (eclipse) r.fork_blocks = eclipse->fork_blocks();
    r.digest = net.order_digest(0).hex();
    return r;
}

// ---------------------------------------------------------------------------
// PBFT cells
// ---------------------------------------------------------------------------

CellResult run_pbft_cell(const ScenarioConfig& cfg, ScenarioAttack attack,
                         double load_level) {
    const std::uint64_t seed = cell_seed(ScenarioEngine::kPbft, attack, load_level);
    const double duration = cfg.pbft_duration;
    const double offered = load_level * kPbftLoadMultiplier;

    consensus::PbftConfig config;
    config.f = 1; // n = 4
    config.batch_size = 20;
    config.batch_interval = 0.05;
    config.view_change_timeout = 2.0;
    consensus::PbftCluster cluster(config, seed);

    // Attack mapping. Observer replica is 1: never the equivocating primary
    // (0) and never the isolated/crashed replica (3).
    constexpr std::uint32_t kObserver = 1;
    constexpr std::uint32_t kIsolated = 3;
    double disruption_end = -1.0;
    double spam_start = 0, spam_end = 0;
    switch (attack) {
    case ScenarioAttack::kHonest:
        break;
    case ScenarioAttack::kSelfish:
        // Equivocation is PBFT's strategic deviation: the primary of view 0
        // sends conflicting pre-prepares; quorum intersection must refuse both
        // and the view change must oust it (every fourth view it returns).
        cluster.set_fault(0, consensus::PbftFault::kEquivocating);
        break;
    case ScenarioAttack::kEclipse: {
        net::FaultPlan plan;
        plan.cut(kEclipseStartFrac * duration, "e27/iso", {{kIsolated}, {0, 1, 2}});
        disruption_end = kEclipseEndFrac * duration;
        plan.heal(disruption_end, "e27/iso");
        cluster.network().apply(plan);
        break;
    }
    case ScenarioAttack::kSpam:
        spam_start = kSpamStartFrac * duration;
        spam_end = kSpamEndFrac * duration;
        break;
    case ScenarioAttack::kCrashReorg: {
        net::FaultPlan plan;
        plan.crash(kCrashCutFrac * duration, kIsolated);
        disruption_end = kCrashCutFrac * duration + 0.2 * duration;
        plan.recover(disruption_end, kIsolated);
        cluster.network().apply(plan);
        break;
    }
    }

    // Deterministic client arrival times (honest Poisson stream, plus a 10×
    // flood over the spam window), precomputed so the submit loop interleaves
    // exactly with liveness sampling.
    Rng rng(seed + 1);
    std::vector<double> arrivals;
    for (double t = rng.exponential(offered); t < duration;
         t += rng.exponential(offered))
        arrivals.push_back(t);
    if (attack == ScenarioAttack::kSpam) {
        for (double t = spam_start + rng.exponential(10.0 * offered);
             t < spam_end; t += rng.exponential(10.0 * offered))
            arrivals.push_back(t);
        std::sort(arrivals.begin(), arrivals.end());
    }

    const auto make_request = [seed](std::uint64_t counter) {
        Bytes request(32, 0);
        for (int i = 0; i < 8; ++i) {
            request[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(counter >> (8 * i));
            request[static_cast<std::size_t>(8 + i)] =
                static_cast<std::uint8_t>(seed >> (8 * i));
        }
        return request;
    };

    const double slice = 0.5;
    std::size_t next_arrival = 0;
    std::uint64_t counter = 0;
    std::uint64_t last_exec = 0;
    double last_advance = 0, max_gap = 0, reconv = -1.0;
    for (double t = slice; t <= duration + slice / 2; t += slice) {
        const double stop = std::min(t, duration);
        while (next_arrival < arrivals.size() && arrivals[next_arrival] <= stop) {
            const double dt = arrivals[next_arrival] - cluster.now();
            if (dt > 0) cluster.run_for(dt);
            cluster.submit(make_request(counter++));
            ++next_arrival;
        }
        cluster.run_for(stop - cluster.now());
        const std::uint64_t exec = cluster.executed_requests(kObserver);
        if (exec > last_exec) {
            max_gap = std::max(max_gap, cluster.now() - last_advance);
            last_advance = cluster.now();
            last_exec = exec;
            if (disruption_end >= 0 && reconv < 0 &&
                cluster.now() >= disruption_end)
                reconv = cluster.now() - disruption_end;
        }
    }
    cluster.run_for(10.0); // drain in-flight batches
    max_gap = std::max(max_gap, duration - last_advance);

    CellResult r;
    r.engine = ScenarioEngine::kPbft;
    r.attack = attack;
    r.load_level = load_level;
    r.offered_tps = offered;
    r.liveness_gap_s = max_gap;
    r.reconvergence_s = disruption_end < 0 ? 0.0 : reconv;
    r.confirmed_tps =
        static_cast<double>(cluster.executed_requests(kObserver)) / duration;
    r.reorgs = cluster.max_view(); // view changes are PBFT's "reorgs"

    // Safety: committed logs must be prefix-consistent across every replica
    // (a lagging isolated/crashed replica holds a strict prefix — there is no
    // state transfer — which is consistent; a *conflicting* entry is a
    // violation). "Converged" for PBFT is exactly that prefix agreement.
    const auto& ref = cluster.log_of(kObserver);
    for (std::uint32_t replica = 0; replica < cluster.replica_count(); ++replica) {
        if (replica == kObserver) continue;
        const auto& log = cluster.log_of(replica);
        const std::size_t common = std::min(log.size(), ref.size());
        for (std::size_t i = 0; i < common; ++i) {
            if (log[i].sequence != ref[i].sequence ||
                log[i].requests != ref[i].requests) {
                ++r.safety_violations;
                break;
            }
        }
    }
    r.converged = r.safety_violations == 0;

    Bytes transcript;
    for (const auto& batch : ref) {
        for (int i = 0; i < 8; ++i)
            transcript.push_back(
                static_cast<std::uint8_t>(batch.sequence >> (8 * i)));
        for (const Bytes& request : batch.requests)
            transcript.insert(transcript.end(), request.begin(), request.end());
    }
    r.digest = crypto::sha256(transcript).hex();
    return r;
}

} // namespace

CellResult run_scenario_cell(const ScenarioConfig& cfg, ScenarioEngine engine,
                             ScenarioAttack attack, double load_level) {
    static_assert(kNodeCount >= 6);
    DLT_EXPECTS(load_level > 0);
    switch (engine) {
    case ScenarioEngine::kNakamotoLongest:
    case ScenarioEngine::kGhost:
        return run_chain_cell(cfg, engine, attack, load_level);
    case ScenarioEngine::kGhostDag:
        return run_dag_cell(cfg, attack, load_level);
    case ScenarioEngine::kPbft:
        return run_pbft_cell(cfg, attack, load_level);
    }
    DLT_EXPECTS(false);
    return {};
}

std::vector<CellResult> run_scenario_matrix(
    const ScenarioConfig& cfg, const std::vector<ScenarioEngine>& engines,
    const std::vector<ScenarioAttack>& attacks, const std::vector<double>& loads) {
    std::vector<CellResult> results;
    results.reserve(engines.size() * attacks.size() * loads.size());
    for (const ScenarioEngine engine : engines)
        for (const ScenarioAttack attack : attacks)
            for (const double load : loads)
                results.push_back(run_scenario_cell(cfg, engine, attack, load));
    return results;
}

} // namespace dlt::app
