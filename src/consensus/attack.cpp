#include "consensus/attack.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "consensus/nakamoto.hpp"
#include "ledger/block.hpp"

namespace dlt::consensus {

double attacker_success_probability(double q, unsigned z) {
    DLT_EXPECTS(q >= 0 && q <= 1);
    if (q <= 0) return 0.0;
    if (q >= 0.5) return 1.0;
    const double p = 1.0 - q;
    const double lambda = static_cast<double>(z) * (q / p);

    // 1 - sum_{k=0..z} Poisson(lambda, k) * (1 - (q/p)^(z-k))
    double sum = 1.0;
    double poisson = std::exp(-lambda);
    for (unsigned k = 0; k <= z; ++k) {
        if (k > 0) poisson *= lambda / static_cast<double>(k);
        sum -= poisson * (1.0 - std::pow(q / p, static_cast<double>(z - k)));
    }
    if (sum < 0) sum = 0;
    if (sum > 1) sum = 1;
    return sum;
}

double simulate_attack_success(double q, unsigned z, std::size_t trials, Rng& rng,
                               std::size_t max_steps) {
    DLT_EXPECTS(trials > 0);
    std::size_t wins = 0;
    for (std::size_t t = 0; t < trials; ++t) {
        // Phase 1 (the whitepaper's head start): while the honest chain produces
        // the z confirmation blocks, the attacker mines privately. Each block
        // found network-wide is the attacker's with probability q.
        std::int64_t deficit = 0; // honest lead over the private fork
        std::uint64_t honest = 0;
        while (honest < z) {
            if (rng.chance(q)) {
                --deficit;
            } else {
                ++deficit;
                ++honest;
            }
        }

        // Phase 2: the race. "Catching up" (whitepaper §11) means reaching a
        // tie, after which the attacker publishes and keeps extending.
        bool won = deficit <= 0;
        for (std::size_t step = 0; !won && step < max_steps; ++step) {
            if (rng.chance(q)) {
                --deficit;
            } else {
                ++deficit;
            }
            if (deficit <= 0) won = true;
            // Walks drifting far behind cannot practically recover for q<0.5;
            // cut them off to keep the estimator fast (bias < (q/p)^64).
            if (deficit > static_cast<std::int64_t>(z) + 64) break;
        }
        if (won) ++wins;
    }
    return static_cast<double>(wins) / static_cast<double>(trials);
}

// ---------------------------------------------------------------------------
// Selfish mining
// ---------------------------------------------------------------------------

SelfishMiner::SelfishMiner(NakamotoNetwork& net, net::NodeId attacker)
    : net_(&net), attacker_(attacker) {
    DLT_EXPECTS(attacker < net.node_count());
    net.set_mined_block_hook([this](net::NodeId node, const ledger::Block& block) {
        return on_mined(node, block);
    });
    // Honest-chain growth is observed through the attacker's own replica;
    // chain onto any observer already installed there (scenario monitors).
    ChainEvents& ev = net.events(attacker_);
    auto prev = std::move(ev.on_block_inserted);
    ev.on_block_inserted = [this, prev = std::move(prev)](
                               const ledger::Block& block, SimTime at) {
        if (prev) prev(block, at);
        if (block.header.proposer != net_->miner_address(attacker_))
            on_honest_block(block);
    };
}

bool SelfishMiner::on_mined(net::NodeId node, const ledger::Block& block) {
    if (node != attacker_ || finished_) return true; // honest miners broadcast
    ++stats_.blocks_mined;
    private_height_ = std::max(private_height_, block.header.height);
    if (tie_race_) {
        // State 0': we matched the public chain and just found the decider —
        // publish at once and take both blocks.
        tie_race_ = false;
        ++stats_.blocks_published;
        return true;
    }
    withheld_.emplace_back(block.hash(), block.header.height);
    if (private_height_ > public_height_)
        stats_.max_lead = std::max(stats_.max_lead, private_height_ - public_height_);
    return false;
}

void SelfishMiner::on_honest_block(const ledger::Block& block) {
    const std::uint64_t h = block.header.height;
    if (h <= public_height_) return; // stale / backfill arrival
    const std::uint64_t lead_before =
        private_height_ > public_height_ ? private_height_ - public_height_ : 0;
    public_height_ = h;
    tie_race_ = false; // honest progress resolves any pending race
    if (withheld_.empty()) {
        if (private_height_ < public_height_) private_height_ = public_height_;
        return;
    }
    if (private_height_ <= public_height_) {
        // The honest chain caught our secret fork: it is dead weight, abandon
        // it. The attacker's own tip re-selects the honest branch by work.
        withheld_.clear();
        ++stats_.forks_abandoned;
        private_height_ = public_height_;
        return;
    }
    if (lead_before == 1) {
        // Honest pulled even: release everything and force the tie race.
        while (!withheld_.empty()) publish_front();
        tie_race_ = true;
        ++stats_.tie_races;
    } else if (lead_before == 2) {
        // Releasing now makes our fork longer by one — we win outright.
        while (!withheld_.empty()) publish_front();
    } else {
        // Comfortable lead: trickle out just enough to match the public
        // height, keeping the honest network wasting work on a doomed branch.
        while (!withheld_.empty() && withheld_.front().second <= public_height_)
            publish_front();
    }
}

void SelfishMiner::publish_front() {
    net_->publish_block(attacker_, withheld_.front().first);
    withheld_.pop_front();
    ++stats_.blocks_published;
}

void SelfishMiner::finish() {
    if (finished_) return;
    finished_ = true;
    while (!withheld_.empty()) publish_front();
    net_->set_mined_block_hook(nullptr);
}

double proposer_share(const NakamotoNetwork& net, net::NodeId node) {
    const auto chain = net.canonical_chain();
    if (chain.empty()) return 0.0;
    std::size_t owned = 0;
    const crypto::Address& addr = net.miner_address(node);
    for (const auto& block : chain)
        if (block.header.proposer == addr) ++owned;
    return static_cast<double>(owned) / static_cast<double>(chain.size());
}

// ---------------------------------------------------------------------------
// Eclipse
// ---------------------------------------------------------------------------

EclipseAttack::EclipseAttack(SimHarness& net, EclipseParams params)
    : net_(&net),
      params_(params),
      partition_("eclipse/" + std::to_string(params.victim)) {
    DLT_EXPECTS(params_.attacker < net.node_count());
    DLT_EXPECTS(params_.victim < net.node_count());
    DLT_EXPECTS(params_.attacker != params_.victim);

    // The victim alone in one group, every honest peer in the other, and the
    // attacker in neither — partitions ignore absent nodes, so the attacker
    // keeps links to both sides and becomes the victim's only window.
    std::vector<net::NodeId> honest;
    for (net::NodeId n = 0; n < net.node_count(); ++n)
        if (n != params_.attacker && n != params_.victim) honest.push_back(n);
    net.network().partition(partition_, {{params_.victim}, honest});

    // Refuse to relay in either direction. Fetch replies are deliberately
    // left open: the victim may backfill ancestors of blocks the attacker
    // *chooses* to push at it.
    const net::NodeId attacker = params_.attacker;
    const net::NodeId victim = params_.victim;
    net.set_relay_filter(
        [attacker, victim](net::NodeId at, net::NodeId to, const std::string&) {
            if (at == attacker && to == victim) return false;
            if (at == victim && to == attacker) return false;
            return true;
        });

    net.set_mined_block_hook([this](net::NodeId node, const ledger::Block& block) {
        return on_mined(node, block);
    });
}

bool EclipseAttack::on_mined(net::NodeId node, const ledger::Block& block) {
    if (node != params_.attacker || healed_) return true;
    // Withhold from the honest network, but hand the block straight to the
    // victim: it orphan-fetches any missing ancestors back through us, so the
    // victim converges on the attacker's view of the chain.
    fork_.push_back(block.hash());
    net_->push_block(params_.attacker, params_.victim, block);
    return false;
}

void EclipseAttack::heal() {
    if (healed_) return;
    healed_ = true;
    net_->set_relay_filter(nullptr);
    net_->set_mined_block_hook(nullptr);
    net_->network().heal(partition_);
    // Publish the withheld fork so every peer sees — and, given the honest
    // chain's greater work, deterministically discards — it.
    for (const auto& hash : fork_) net_->publish_block(params_.attacker, hash);
}

} // namespace dlt::consensus
