#include "app/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace dlt::app {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

class SimHost final : public TxHost {
public:
    explicit SimHost(consensus::SimHarness& net) : net_(net) {}
    sim::Scheduler& scheduler() override { return net_.scheduler(); }
    const ledger::Mempool& mempool_of(net::NodeId node) const override {
        return net_.mempool_of(node);
    }
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin) override {
        net_.submit_transaction(tx, origin);
    }

private:
    consensus::SimHarness& net_;
};

} // namespace

// --- ZipfSampler (rejection-inversion, Hörmann & Derflinger 1996) -----------

ZipfSampler::ZipfSampler(std::uint64_t num_elements, double exponent)
    : n_(num_elements), exponent_(exponent) {
    DLT_EXPECTS(num_elements >= 1);
    DLT_EXPECTS(exponent > 0);
    h_integral_x1_ = h_integral(1.5) - 1.0;
    h_integral_n_ = h_integral(static_cast<double>(n_) + 0.5);
    s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h_integral(double x) const {
    const double log_x = std::log(x);
    return helper2((1.0 - exponent_) * log_x) * log_x;
}

double ZipfSampler::h(double x) const {
    return std::exp(-exponent_ * std::log(x));
}

double ZipfSampler::h_integral_inverse(double x) const {
    double t = x * (1.0 - exponent_);
    if (t < -1.0) t = -1.0; // guard against round-off below the domain
    return std::exp(helper1(t) * x);
}

double ZipfSampler::helper1(double x) {
    return std::abs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x * (0.5 - x / 3.0);
}

double ZipfSampler::helper2(double x) {
    return std::abs(x) > 1e-8 ? std::expm1(x) / x : 1.0 + x * (0.5 + x / 6.0);
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
    for (;;) {
        const double u =
            h_integral_n_ + rng.uniform01() * (h_integral_x1_ - h_integral_n_);
        const double x = h_integral_inverse(u);
        std::uint64_t k = static_cast<std::uint64_t>(
            std::clamp(x, 1.0, static_cast<double>(n_)) + 0.5);
        if (k < 1) k = 1;
        if (k > n_) k = n_;
        // Accept k outright when it sits within the rejection-free band, else
        // run the acceptance test against the histogram bar at k.
        if (static_cast<double>(k) - x <= s_ ||
            u >= h_integral(static_cast<double>(k) + 0.5) -
                     h(static_cast<double>(k)))
            return k;
    }
}

// --- WorkloadEngine ----------------------------------------------------------

const char* fee_strategy_name(FeeStrategy s) {
    switch (s) {
        case FeeStrategy::kMinimal: return "minimal";
        case FeeStrategy::kStatic: return "static";
        case FeeStrategy::kMarketFollower: return "market_follower";
        case FeeStrategy::kUrgentBumper: return "urgent_bumper";
    }
    return "unknown";
}

WorkloadEngine::WorkloadEngine(TxHost& host, WorkloadParams params,
                               std::uint64_t seed)
    : net_(host),
      params_(params),
      rng_(seed),
      zipf_(params.population, params.zipf_exponent) {
    init();
}


WorkloadEngine::WorkloadEngine(consensus::SimHarness& net, WorkloadParams params,
                               std::uint64_t seed)
    : owned_host_(std::make_unique<SimHost>(net)),
      net_(*owned_host_),
      params_(params),
      rng_(seed),
      zipf_(params.population, params.zipf_exponent) {
    init();
}

void WorkloadEngine::init() {
    DLT_EXPECTS(params_.base_tps > 0);
    DLT_EXPECTS(params_.fee_levels >= 1);
    DLT_EXPECTS(params_.max_fee_rate >= params_.min_fee_rate);
    DLT_EXPECTS(params_.submit_nodes >= 1);
    DLT_EXPECTS(params_.hot_fraction == 0.0 || params_.hot_accounts > 0);
    peak_rate_ = params_.base_tps * (1.0 + std::abs(params_.diurnal_amplitude));
    if (params_.burst_every > 0) peak_rate_ *= std::max(1.0, params_.burst_multiplier);
}

double WorkloadEngine::rate_at(SimTime t) const {
    double rate = params_.base_tps;
    if (params_.diurnal_amplitude != 0) {
        rate *= 1.0 + params_.diurnal_amplitude *
                          std::sin(2.0 * kPi * t / params_.diurnal_period);
    }
    if (params_.burst_every > 0 && params_.burst_duration > 0) {
        const double phase = std::fmod(t, params_.burst_every);
        if (phase < params_.burst_duration) rate *= params_.burst_multiplier;
    }
    return std::max(rate, 0.0);
}

AgentProfile WorkloadEngine::profile_of(std::uint64_t agent) const {
    // Profiles are a pure function of the agent id: a million-user population
    // stores nothing per agent. Mix in a tag so strategy and aggression are
    // independent bits of the same hash stream.
    const std::uint64_t h = splitmix64(agent ^ 0xFEE5'F00Dull);
    AgentProfile profile;
    // Strategy mix: 25% minimal, 40% static, 25% follower, 10% urgent.
    const double pick = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (pick < 0.25)
        profile.strategy = FeeStrategy::kMinimal;
    else if (pick < 0.65)
        profile.strategy = FeeStrategy::kStatic;
    else if (pick < 0.90)
        profile.strategy = FeeStrategy::kMarketFollower;
    else
        profile.strategy = FeeStrategy::kUrgentBumper;
    profile.aggression = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
    return profile;
}

double WorkloadEngine::quantize(double fee_rate) const {
    if (params_.fee_levels <= 1 || params_.max_fee_rate <= params_.min_fee_rate)
        return params_.min_fee_rate;
    const double span = params_.max_fee_rate - params_.min_fee_rate;
    const double step = span / static_cast<double>(params_.fee_levels - 1);
    const double clamped =
        std::clamp(fee_rate, params_.min_fee_rate, params_.max_fee_rate);
    const double level = std::round((clamped - params_.min_fee_rate) / step);
    return params_.min_fee_rate + level * step;
}

double WorkloadEngine::bid(const AgentProfile& profile, std::uint32_t node) {
    switch (profile.strategy) {
        case FeeStrategy::kMinimal:
            return quantize(params_.min_fee_rate);
        case FeeStrategy::kStatic: {
            // A fixed personal level in the lower 60% of the menu.
            const double span = params_.max_fee_rate - params_.min_fee_rate;
            return quantize(params_.min_fee_rate +
                            0.6 * span * profile.aggression);
        }
        case FeeStrategy::kMarketFollower: {
            // Wallet fee estimation: read the observed pool's admission floor
            // and bid 5–50% above it.
            const double floor = net_.mempool_of(node).fee_rate_floor();
            const double base = std::max(floor, params_.min_fee_rate);
            return quantize(base * (1.05 + 0.45 * profile.aggression));
        }
        case FeeStrategy::kUrgentBumper: {
            // Top 30% of the menu regardless of market state.
            const double span = params_.max_fee_rate - params_.min_fee_rate;
            return quantize(params_.max_fee_rate -
                            0.3 * span * profile.aggression);
        }
    }
    return params_.min_fee_rate;
}

void WorkloadEngine::start() {
    if (next_event_) return;
    schedule_next();
}

void WorkloadEngine::stop() {
    if (next_event_) {
        net_.scheduler().cancel(*next_event_);
        next_event_.reset();
    }
}

void WorkloadEngine::schedule_next() {
    const double gap = rng_.exponential(peak_rate_);
    next_event_ = net_.scheduler().schedule_after(gap, [this] {
        next_event_.reset();
        // Thinning: the homogeneous peak-rate stream is subsampled down to
        // the instantaneous rate, yielding an exact inhomogeneous Poisson
        // process without inverting the rate integral.
        const SimTime now = net_.scheduler().now();
        if (rng_.uniform01() * peak_rate_ <= rate_at(now))
            emit_one();
        else
            ++stats_.thinned;
        schedule_next();
    });
}

void WorkloadEngine::emit_one() {
    const SimTime now = net_.scheduler().now();
    // Zipf rank 1 = most active user. The rank *is* the agent id, so the
    // hottest agents keep their identity (and nonce sequence) across draws.
    const std::uint64_t agent = zipf_.sample(rng_);
    const AgentProfile profile = profile_of(agent);
    const std::uint32_t node =
        params_.submit_nodes <= 1
            ? 0
            : static_cast<std::uint32_t>(rng_.uniform(params_.submit_nodes));

    ledger::Transaction tx;
    tx.kind = ledger::TxKind::kRecord;
    tx.data.resize(params_.payload_bytes);
    for (auto& b : tx.data) b = static_cast<std::uint8_t>(rng_.next());

    double fee_rate = bid(profile, node);
    const bool hot = params_.hot_accounts > 0 && rng_.chance(params_.hot_fraction);
    if (hot) {
        // Contended shared account: several agents race for the same
        // (sender, nonce) slot; later writers either consciously out-bid the
        // incumbent (RBF) or bid blind and bounce off conflict resolution.
        const std::uint64_t h = rng_.uniform(params_.hot_accounts);
        HotSlot& slot = hot_slots_[h];
        // The slot advances after a few writers pile on, keeping contention
        // concentrated but finite (~3 bids per slot).
        if (slot.writers >= 3) {
            ++slot.nonce;
            slot.best_rate = 0;
            slot.writers = 0;
        }
        if (slot.writers > 0 && rng_.chance(params_.rbf_bump_fraction)) {
            // Deliberate replacement: out-bid the incumbent by >= 20%.
            fee_rate = quantize(std::max(fee_rate, slot.best_rate * 1.2));
            ++stats_.rbf_bids;
        }
        tx.sender_pubkey.assign(8, 0);
        for (std::size_t i = 0; i < 8; ++i)
            tx.sender_pubkey[i] = static_cast<std::uint8_t>((h >> (8 * i)) & 0xFF);
        tx.sender_pubkey.push_back(0xA5); // tag: hot shared account
        tx.nonce = slot.nonce;
        slot.best_rate = std::max(slot.best_rate, fee_rate);
        ++slot.writers;
        ++stats_.hot_submissions;
    } else {
        const auto [it, fresh] = agent_nonce_.try_emplace(agent, 0);
        if (fresh) ++stats_.distinct_agents;
        tx.sender_pubkey.assign(8, 0);
        for (std::size_t i = 0; i < 8; ++i)
            tx.sender_pubkey[i] =
                static_cast<std::uint8_t>((agent >> (8 * i)) & 0xFF);
        tx.nonce = it->second++;
    }

    // Price the declared fee so fee/size lands on the chosen menu level
    // (declared_fee is fixed-width in the encoding, so size is final here).
    const std::size_t size = tx.serialized_size();
    tx.declared_fee = static_cast<ledger::Amount>(
        std::llround(fee_rate * static_cast<double>(size)));
    const double actual_rate =
        static_cast<double>(tx.declared_fee) / static_cast<double>(size);

    const Hash256 txid = tx.txid();
    net_.submit_transaction(tx, node);
    submissions_.push_back(Submission{txid, actual_rate, now, agent});
    ++stats_.submitted;
}

} // namespace dlt::app
