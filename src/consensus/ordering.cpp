#include "consensus/ordering.hpp"

#include <memory>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "ledger/validation.hpp"
#include "obs/metrics.hpp"

namespace dlt::consensus {

using ledger::Transaction;

OrderingService::OrderingService(OrderingParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
    DLT_EXPECTS(params_.peer_count >= 2);
    DLT_EXPECTS(params_.batch_size >= 1);
    network_ = std::make_unique<net::Network>(scheduler_, rng_.fork(3));
    ledgers_.resize(params_.peer_count);
    reorder_.resize(params_.peer_count);
    next_seq_.assign(params_.peer_count, 1);
    for (std::uint32_t i = 0; i < params_.peer_count; ++i) {
        const net::NodeId id = network_->add_node(
            [this, i](const net::Delivery& d) { on_deliver(i, d); });
        DLT_ENSURES(id == i);
    }
    network_->build_full_mesh(params_.link);
}

std::uint32_t OrderingService::current_orderer() const {
    if (params_.mode == OrdererMode::kStaticLeader) return 0;
    // Rotating: leadership advances with each block (periodic election).
    return static_cast<std::uint32_t>(next_sequence_ %
                                      static_cast<std::uint64_t>(params_.peer_count));
}

void OrderingService::submit(Transaction tx) {
    pending_.emplace_back(std::move(tx), scheduler_.now());
    if (pending_.size() >= params_.batch_size) {
        if (batch_timer_) {
            scheduler_.cancel(*batch_timer_);
            batch_timer_.reset();
        }
        cut_batch();
        return;
    }
    arm_timer();
}

void OrderingService::arm_timer() {
    if (batch_timer_ || pending_.empty()) return;
    batch_timer_ = scheduler_.schedule_after(params_.batch_interval, [this] {
        batch_timer_.reset();
        cut_batch();
    });
}

void OrderingService::cut_batch() {
    // Gather the batch first, in FIFO order off the pending queue.
    std::vector<Transaction> batch;
    std::vector<SimTime> times;
    const std::size_t take = std::min(params_.batch_size, pending_.size());
    for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(pending_[i].first));
        times.push_back(pending_[i].second);
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
    if (batch.empty()) return;

    const std::uint32_t orderer = current_orderer();
    const std::uint64_t seq = next_sequence_++;

    auto& registry = obs::MetricsRegistry::global();
    registry.counter("ordering_batches_cut_total", "Batches cut by the orderer")
        .inc();
    registry
        .histogram("ordering_batch_size", "Transactions per cut batch",
                   {1.0, 2.0, 16})
        .record(static_cast<double>(take));
    Writer w;
    w.u64(seq);
    w.u32(orderer);
    w.varint(take);
    for (const auto& tx : batch) tx.encode(w);
    batch_submit_times_.emplace(seq, std::move(times));

    const auto payload = std::make_shared<const Bytes>(w.data());
    // Deliver to every committing peer, including the orderer's own peer; all
    // deliveries share one payload buffer.
    for (std::uint32_t to = 0; to < params_.peer_count; ++to) {
        if (to == orderer) {
            scheduler_.schedule_after(0.0, [this, to, payload] {
                on_deliver(to, net::Delivery{to, "block", payload});
            });
        } else {
            network_->send(orderer, to, "block", payload);
        }
    }
    arm_timer();
}

void OrderingService::on_deliver(std::uint32_t peer, const net::Delivery& d) {
    if (d.topic != "block") return;
    try {
        Reader r(d.payload());
        OrderedBlock block;
        block.sequence = r.u64();
        block.orderer = r.u32();
        const std::uint64_t count = r.varint();
        block.txs.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i)
            block.txs.push_back(Transaction::decode(r));
        r.expect_done();
        block.delivered_at = scheduler_.now();

        if (peer == 0) {
            ++total_ordered_; // count blocks once, at the observation peer
            const auto it = batch_submit_times_.find(block.sequence);
            if (it != batch_submit_times_.end()) {
                for (const SimTime t : it->second)
                    latencies_.push_back(scheduler_.now() - t);
                batch_submit_times_.erase(it);
            }
        }

        // Append strictly in sequence order; buffer early arrivals. When
        // signature verification is on, each batch is checked (one parallel
        // CheckQueue batch; the sigcache makes peers 2..N nearly free) as it
        // is consumed — a failing batch is skipped identically at every peer,
        // so ledgers stay in lockstep.
        reorder_[peer].emplace(block.sequence, std::move(block));
        auto& buffer = reorder_[peer];
        auto& ledger = ledgers_[peer];
        while (!buffer.empty() && buffer.begin()->first == next_seq_[peer]) {
            OrderedBlock next = std::move(buffer.begin()->second);
            buffer.erase(buffer.begin());
            ++next_seq_[peer];
            if (params_.verify_signatures &&
                !ledger::verify_batch_signatures(next.txs)) {
                if (peer == 0) ++rejected_batches_;
                continue;
            }
            ledger.push_back(std::move(next));
        }
    } catch (const Error&) {
    }
}

void OrderingService::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

const std::vector<OrderedBlock>& OrderingService::ledger_of(std::uint32_t peer) const {
    return ledgers_.at(peer);
}

bool OrderingService::ledgers_identical() const {
    for (std::size_t p = 1; p < ledgers_.size(); ++p) {
        if (ledgers_[p].size() != ledgers_[0].size()) return false;
        for (std::size_t i = 0; i < ledgers_[0].size(); ++i) {
            if (ledgers_[p][i].sequence != ledgers_[0][i].sequence) return false;
            if (ledgers_[p][i].txs.size() != ledgers_[0][i].txs.size()) return false;
        }
    }
    return true;
}

std::optional<double> OrderingService::mean_delivery_latency() const {
    if (latencies_.empty()) return std::nullopt;
    double sum = 0;
    for (const double lat : latencies_) sum += lat;
    return sum / static_cast<double>(latencies_.size());
}

} // namespace dlt::consensus
