#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "app/workload.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/persistent_node.hpp"
#include "crypto/keys.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace dlt;

// --- JSON lists ------------------------------------------------------------------

namespace {

template <typename T, typename Format>
std::string join(const std::vector<T>& values, Format format) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ',';
        out += format(values[i]);
    }
    out += ']';
    return out;
}

} // namespace

std::string json_full(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string json_list(const std::vector<double>& values) {
    return join(values, json_full);
}

std::string json_list(const std::vector<std::uint64_t>& values) {
    return join(values, [](std::uint64_t v) { return std::to_string(v); });
}

std::string json_raw_list(const std::vector<std::string>& elements) {
    return join(elements, [](const std::string& v) { return v.empty() ? std::string("null") : v; });
}

std::string json_list(const std::vector<std::string>& strings) {
    return join(strings, [](const std::string& v) {
        std::string quoted = "\"";
        quoted += obs::json_escape(v);
        quoted += '"';
        return quoted;
    });
}

// --- Seeded state ---------------------------------------------------------------

namespace {

/// Outputs per seeding coinbase: large enough that seeding is a handful of
/// blocks, small enough that each block stays well under the 1 MB limit.
constexpr std::size_t kOutputsPerBlock = 8192;
constexpr ledger::Amount kSeedValue = 10'000;
constexpr std::size_t kOwners = 64;

std::vector<crypto::Address> owners(const std::string& label, std::size_t n) {
    std::vector<crypto::Address> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(crypto::PrivateKey::from_seed(label + std::to_string(i)).address());
    return out;
}

/// TxHost that records what the workload engine submits instead of feeding a
/// network, so the trace can be replayed against the cluster at wall pace.
class TraceHost final : public app::TxHost {
public:
    sim::Scheduler& scheduler() override { return scheduler_; }
    const ledger::Mempool& mempool_of(net::NodeId) const override { return mempool_; }
    void submit_transaction(const ledger::Transaction& tx, net::NodeId origin) override {
        entries.push_back(TraceEntry{tx, scheduler_.now(), origin});
    }

    std::vector<TraceEntry> entries;

private:
    sim::Scheduler scheduler_;
    ledger::Mempool mempool_; // fee-floor oracle for market-following agents
};

} // namespace

std::vector<ledger::OutPoint> seed_state(const fs::path& dir, std::size_t utxos,
                                         std::uint64_t seed) {
    core::PersistentNodeOptions options;
    options.state_engine = core::StateEngine::kPersistent;
    options.fsync = storage::FsyncMode::kNever;
    core::PersistentNode node(dir, ledger::make_genesis(kChainTag, kGenesisBits),
                              options);
    if (node.height() != 0) throw Error("perfbench: seed dir is not empty");

    const auto to = owners("perfbench/owner/", kOwners);
    std::vector<ledger::OutPoint> outpoints;
    outpoints.reserve(utxos);
    Rng rng(seed ^ 0x5eed5eedull);
    for (std::uint64_t height = 1; outpoints.size() < utxos; ++height) {
        ledger::Transaction coinbase;
        coinbase.kind = ledger::TxKind::kCoinbase;
        coinbase.nonce = height;
        const std::size_t n = std::min(kOutputsPerBlock, utxos - outpoints.size());
        for (std::size_t i = 0; i < n; ++i)
            coinbase.outputs.push_back(
                ledger::TxOutput{kSeedValue, to[rng.index(to.size())]});
        const Hash256 id = coinbase.txid();
        for (std::uint32_t i = 0; i < n; ++i) outpoints.push_back({id, i});

        ledger::Block block;
        block.header.prev_hash = node.tip();
        block.header.height = height;
        block.header.bits = kGenesisBits;
        block.header.nonce = rng.next();
        block.header.proposer = to[0];
        block.txs.push_back(std::move(coinbase));
        block.header.merkle_root = block.compute_merkle_root();
        node.connect_block(block);
    }
    return outpoints;
}

// --- Traces ----------------------------------------------------------------------

std::vector<std::vector<TraceEntry>> record_windows(double tps, std::size_t count,
                                                    double seconds, int windows,
                                                    std::uint64_t seed) {
    TraceHost host;
    app::WorkloadParams params;
    params.population = 10'000;
    params.base_tps = tps;
    params.submit_nodes = static_cast<std::uint32_t>(kNodes);
    app::WorkloadEngine engine(host, params, seed);
    engine.start();
    const std::size_t needed = count * static_cast<std::size_t>(windows) + 1;
    while (host.entries.size() < needed)
        host.scheduler().run_until(host.scheduler().now() + seconds);
    engine.stop();

    std::vector<std::vector<TraceEntry>> out;
    for (std::size_t w = 0; w < static_cast<std::size_t>(windows); ++w) {
        const std::size_t first = w * count;
        const double open = first == 0 ? 0.0 : host.entries[first - 1].at;
        const double close = host.entries[first + count].at;
        std::vector<TraceEntry> window(host.entries.begin() + first,
                                       host.entries.begin() + first + count);
        for (TraceEntry& e : window) {
            e.at = (e.at - open) * seconds / (close - open);
            e.node %= kNodes;
        }
        out.push_back(std::move(window));
    }
    return out;
}

std::vector<TraceEntry> transfer_trace(const std::vector<ledger::OutPoint>& spendable,
                                       std::size_t count, double seconds,
                                       std::uint64_t seed, std::size_t skip) {
    if (spendable.size() < skip + count)
        throw Error("perfbench: seeded state smaller than the transfer trace");
    Rng rng(seed ^ 0x7a11f3e5ull);
    std::vector<std::size_t> order(spendable.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);

    std::vector<double> times(count);
    for (double& t : times) t = rng.uniform01() * seconds;
    std::sort(times.begin(), times.end());

    const auto to = owners("perfbench/payee/", kOwners);
    std::vector<TraceEntry> trace;
    trace.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        TraceEntry e;
        e.tx = ledger::make_transfer({spendable[order[skip + i]]},
                                     {ledger::TxOutput{kSeedValue, to[rng.index(to.size())]}});
        e.at = times[i];
        e.node = static_cast<std::uint32_t>(rng.index(kNodes));
        trace.push_back(std::move(e));
    }
    return trace;
}

void copy_dir(const fs::path& from, const fs::path& to) {
    fs::create_directories(to);
    fs::copy(from, to, fs::copy_options::recursive | fs::copy_options::overwrite_existing);
}

// --- Spans ---------------------------------------------------------------------

namespace {
double g_span_epoch = 0;
} // namespace

void set_span_epoch(double t) { g_span_epoch = t; }

void span(const char* name, double begin_s, double end_s, std::uint32_t track,
          const std::string& txid) {
    obs::Tracer& tracer = obs::Tracer::global();
    if (!tracer.enabled()) return;
    std::vector<std::pair<std::string, std::string>> args;
    if (!txid.empty()) args.emplace_back("txid", obs::trace_arg(txid));
    tracer.complete(name, "perfbench", begin_s - g_span_epoch, end_s - begin_s, track,
                    std::move(args));
}

} // namespace perfbench
