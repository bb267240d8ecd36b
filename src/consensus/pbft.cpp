#include "consensus/pbft.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"

// Implementation notes / simplifications (documented in DESIGN.md):
//  - Messages carry plain replica ids instead of signatures (the standard
//    "authenticated channels" PBFT variant): a vote counts for the peer the
//    transport delivered it from. The simulator authenticates by
//    construction; TcpTransport trusts the id a peer claims in HELLO.
//  - Checkpointing/garbage collection is omitted: simulated runs are short.
//  - View change is the simplified re-proposal form: replicas vote VIEW-CHANGE,
//    adopt view v on a 2f+1 quorum for v (joining early after f+1), the new
//    primary re-proposes every request not yet committed. Uncommitted slots are
//    discarded on view entry, which is safe because anything executed had a
//    2f+1 commit quorum that the next view cannot contradict in the fault
//    scenarios modelled here (crash + equivocation).

namespace dlt::consensus {

using net::transport::PeerId;

namespace {

Bytes view_change_message(std::uint32_t target, std::uint32_t sender) {
    Writer w;
    w.u32(target);
    w.u32(sender);
    return std::move(w).take();
}

Hash256 request_digest(const Bytes& request) {
    return crypto::tagged_hash("dlt/pbft-req", request);
}

} // namespace

// --- Wire format ----------------------------------------------------------------------

Hash256 PbftEngine::batch_digest(const std::vector<Bytes>& batch) {
    Writer w;
    w.varint(batch.size());
    for (const auto& r : batch) w.blob(r);
    return crypto::tagged_hash("dlt/pbft-batch", w.data());
}

Bytes PbftEngine::pre_prepare_message(std::uint32_t view, std::uint64_t seq,
                                      const std::vector<Bytes>& batch) {
    Writer w;
    w.u32(view);
    w.u64(seq);
    w.fixed(batch_digest(batch));
    w.varint(batch.size());
    for (const auto& req : batch) w.blob(req);
    return std::move(w).take();
}

Bytes PbftEngine::vote_message(std::uint32_t view, std::uint64_t seq,
                               const Hash256& digest, std::uint32_t sender) {
    Writer w;
    w.u32(view);
    w.u64(seq);
    w.fixed(digest);
    w.u32(sender);
    return std::move(w).take();
}

// --- Engine ---------------------------------------------------------------------------

PbftEngine::PbftEngine(net::transport::Transport& transport, PbftHost& host,
                       const PbftConfig& config, std::uint64_t executed)
    : transport_(transport),
      host_(host),
      config_(config),
      n_(3 * config.f + 1),
      id_(transport.local_id()),
      next_sequence_(executed + 1),
      last_executed_(executed) {
    DLT_EXPECTS(config.f >= 1);
    DLT_EXPECTS(id_ < n_);
    auto& registry = obs::MetricsRegistry::global();
    batches_committed_ = &registry.counter(
        "pbft_batches_committed_total", "Batches executed across all replicas");
    requests_executed_ = &registry.counter(
        "pbft_requests_executed_total", "Requests executed across all replicas");
    view_changes_ = &registry.counter("pbft_view_changes_total",
                                      "View transitions across all replicas");
}

void PbftEngine::cancel(std::optional<net::transport::TimerId>& timer) {
    if (timer) transport_.cancel_timer(*timer);
    timer.reset();
}

void PbftEngine::stop() {
    cancel(batch_timer_);
    cancel(view_timer_);
}

void PbftEngine::broadcast(const std::string& topic, const Bytes& payload) {
    if (fault_ == PbftFault::kCrashed) return;
    transport_.broadcast(topic, ByteView(payload));
}

void PbftEngine::handle(PeerId from, const std::string& topic, ByteView payload) {
    if (fault_ == PbftFault::kCrashed || from >= n_) return; // not a replica
    try {
        if (topic == "preprepare") {
            Reader r(payload);
            const std::uint32_t view = r.u32();
            const std::uint64_t seq = r.u64();
            const Hash256 digest = r.fixed<32>();
            const std::uint64_t count = r.varint();
            std::vector<Bytes> batch;
            for (std::uint64_t i = 0; i < count; ++i) batch.push_back(r.blob());
            r.expect_done();
            if (batch_digest(batch) != digest) return; // primary lied about digest
            on_pre_prepare(from, view, seq, digest, std::move(batch));
        } else if (topic == "prepare" || topic == "commit") {
            Reader r(payload);
            const std::uint32_t view = r.u32();
            const std::uint64_t seq = r.u64();
            const Hash256 digest = r.fixed<32>();
            r.u32(); // the sender's own claim; the transport says who sent it
            r.expect_done();
            on_vote(from, view, seq, digest, topic == "commit");
        } else if (topic == "viewchange") {
            Reader r(payload);
            const std::uint32_t target = r.u32();
            r.u32(); // sender claim, as in votes
            r.expect_done();
            on_view_change(from, target);
        } else if (topic == "newview") {
            Reader r(payload);
            const std::uint32_t view = r.u32();
            r.expect_done();
            // Honoured from the view's primary once f+1 replicas voted for it.
            if (from == view % n_ && view_votes_[view].size() > config_.f) enter_view(view);
        }
    } catch (const DecodeError&) {
        // Malformed message: drop, as a hardened replica would.
    }
}

// --- Proposals --------------------------------------------------------------------------

void PbftEngine::work_arrived() {
    arm_view_timer();
    maybe_propose();
}

void PbftEngine::maybe_propose(bool interval_elapsed) {
    if (!is_primary() || fault_ == PbftFault::kCrashed || !host_.has_pending()) return;
    if (auto batch = host_.next_batch(next_seq(), interval_elapsed)) {
        cancel(batch_timer_);
        propose(std::move(*batch));
    } else if (!batch_timer_) { // the host cannot extend its state yet: wait
        batch_timer_ = transport_.schedule_after(config_.batch_interval, [this] {
            batch_timer_.reset();
            maybe_propose(/*interval_elapsed=*/true);
        });
    }
}

void PbftEngine::propose(std::vector<Bytes> batch) {
    const std::uint64_t seq = next_seq();
    next_sequence_ = seq + 1;

    if (fault_ == PbftFault::kEquivocating) {
        // Send the batch to even replicas and a conflicting (reordered) batch
        // to odd ones.
        std::vector<Bytes> shuffled(batch.rbegin(), batch.rend());
        if (shuffled == batch) shuffled.push_back(Bytes{0xFF}); // force conflict
        const Bytes a = pre_prepare_message(view_, seq, batch);
        const Bytes b = pre_prepare_message(view_, seq, shuffled);
        for (const PeerId to : transport_.peer_ids())
            transport_.send(to, "preprepare", ByteView(to % 2 == 0 ? a : b));
        return;
    }

    broadcast("preprepare", pre_prepare_message(view_, seq, batch));
    // The primary processes its own pre-prepare locally.
    const Hash256 digest = batch_digest(batch);
    on_pre_prepare(id_, view_, seq, digest, std::move(batch));

    if (host_.has_pending()) maybe_propose();
}

// --- Three-phase agreement -----------------------------------------------------------

void PbftEngine::on_pre_prepare(PeerId from, std::uint32_t view, std::uint64_t seq,
                                const Hash256& digest, std::vector<Bytes> batch) {
    if (view != view_ || from != view % n_) return; // only the view's primary proposes
    if (seq <= last_executed_) return;

    Slot& slot = slots_[seq];
    if (slot.committed) return; // a later view cannot replace a committed batch
    if (slot.pre_prepared && slot.view == view && slot.digest != digest)
        return; // conflicting pre-prepare in the same view: ignore (equivocation)
    slot.view = view;
    slot.digest = digest;
    slot.batch = std::move(batch);
    slot.pre_prepared = true;
    host_.on_pre_prepared(seq, slot.batch);
    if (from == id_ || host_.accepts(seq, slot.batch)) prepare(seq, slot);
    arm_view_timer();
}

void PbftEngine::prepare(std::uint64_t seq, Slot& slot) {
    slot.accepted = true;
    broadcast("prepare", vote_message(slot.view, seq, *slot.digest, id_));
    // Count our own prepare.
    slot.prepares[id_] = *slot.digest;
    try_advance(seq, slot);
}

void PbftEngine::on_vote(PeerId from, std::uint32_t view, std::uint64_t seq,
                         const Hash256& digest, bool commit) {
    if (view != view_ || seq <= last_executed_) return;
    Slot& slot = slots_[seq];
    // A replica's latest vote is kept, arriving before the pre-prepare or
    // after; it counts only if it names the pre-prepared digest.
    (commit ? slot.commits : slot.prepares)[from] = digest;
    try_advance(seq, slot);
}

void PbftEngine::try_advance(std::uint64_t seq, Slot& slot) {
    if (!slot.accepted) return;
    const auto quorum = [&](const std::map<PeerId, Hash256>& votes) {
        return std::count_if(votes.begin(), votes.end(), [&](const auto& vote) {
                   return vote.second == *slot.digest;
               }) >= 2 * config_.f + 1;
    };

    // prepared == pre-prepare received + 2f+1 matching PREPAREs (conservative:
    // our own prepare is in the set, so this is the standard quorum).
    if (!slot.prepared && quorum(slot.prepares)) {
        slot.prepared = true;
        broadcast("commit", vote_message(slot.view, seq, *slot.digest, id_));
        slot.commits[id_] = *slot.digest;
    }

    if (!slot.committed && slot.prepared && quorum(slot.commits)) {
        slot.committed = true;
        host_.on_committed(seq, slot.batch);
        execute_ready();
    }
}

void PbftEngine::execute_ready() {
    for (auto it = slots_.find(last_executed_ + 1);
         it != slots_.end() && it->second.committed;
         it = slots_.find(last_executed_ + 1)) {
        const std::uint32_t view = it->second.view;
        std::vector<Bytes> batch = std::move(it->second.batch);
        slots_.erase(it);
        ++last_executed_;
        batches_committed_->inc();
        requests_executed_->inc(batch.size());
        host_.execute(last_executed_, view, std::move(batch));
    }
    // Ask again about a batch the host refused before its predecessor executed.
    if (const auto next = slots_.find(last_executed_ + 1);
        next != slots_.end() && next->second.pre_prepared && !next->second.accepted &&
        host_.accepts(next->first, next->second.batch))
        prepare(next->first, next->second);

    // Progress happened; reset (or clear) the liveness timer.
    cancel(view_timer_);
    if (host_.has_pending() || !slots_.empty()) arm_view_timer();
    if (is_primary()) maybe_propose();
}

void PbftEngine::skip_to(std::uint64_t seq) {
    if (seq <= last_executed_) return;
    last_executed_ = seq;
    slots_.erase(slots_.begin(), slots_.upper_bound(seq));
    execute_ready();
}

// --- View changes ---------------------------------------------------------------------

void PbftEngine::arm_view_timer() {
    if (fault_ == PbftFault::kCrashed || view_timer_) return;
    view_timer_ = transport_.schedule_after(config_.view_change_timeout, [this] {
        view_timer_.reset();
        start_view_change();
    });
}

void PbftEngine::start_view_change() {
    if (fault_ == PbftFault::kCrashed) return;
    // Nothing outstanding: no need for a view change.
    if (!host_.has_pending() && slots_.empty()) return;

    const std::uint32_t target = view_ + 1;
    broadcast("viewchange", view_change_message(target, id_));
    on_view_change(id_, target); // count own vote uniformly

    // The vote may not reach a quorum (partitioned cluster, >f crashes): re-arm
    // the timer so the view change is re-broadcast once the network heals.
    // Votes are per-replica sets, so retries never double-count.
    arm_view_timer();
}

void PbftEngine::on_view_change(PeerId from, std::uint32_t target) {
    if (target <= view_) return;
    auto& votes = view_votes_[target];
    votes.insert(from);

    // Join an in-progress view change once f+1 others vote (liveness
    // amplification from the PBFT paper).
    if (votes.size() >= config_.f + 1 && !votes.contains(id_)) {
        broadcast("viewchange", view_change_message(target, id_));
        votes.insert(id_);
    }

    if (votes.size() >= 2 * config_.f + 1) {
        enter_view(target);
        if (is_primary()) { // enter_view re-proposed everything outstanding
            Writer w;
            w.u32(target);
            broadcast("newview", w.data());
        }
    }
}

void PbftEngine::enter_view(std::uint32_t view) {
    if (view <= view_) return;
    view_ = view;
    view_changes_->inc();

    // Abandon uncommitted slots: hosts drop work only once it commits, so
    // the new primary still holds it and re-proposes it.
    std::erase_if(slots_, [](const auto& entry) { return !entry.second.committed; });
    // The new primary continues sequencing after everything it has seen commit.
    next_sequence_ =
        std::max(last_executed_, slots_.empty() ? 0 : slots_.rbegin()->first) + 1;
    view_votes_.erase(view_votes_.begin(), view_votes_.upper_bound(view));

    cancel(view_timer_);
    if (host_.has_pending() || !slots_.empty()) arm_view_timer();
    cancel(batch_timer_);
    if (is_primary()) maybe_propose();
}

// --- Simulated cluster ------------------------------------------------------------------

/// One simulated replica hosting its engine: the client requests it has not
/// yet seen committed, and the batches it has executed.
class PbftCluster::ReplicaHost final : public PbftHost {
public:
    ReplicaHost(PbftCluster& cluster, net::transport::Transport& endpoint)
        : engine(endpoint, *this, cluster.config_),
          cluster_(cluster),
          id_(endpoint.local_id()) {
        endpoint.set_handler(
            [this](PeerId from, const std::string& topic, ByteView payload) {
                engine.handle(from, topic, payload);
            });
    }

    std::optional<std::vector<Bytes>> next_batch(std::uint64_t,
                                                 bool interval_elapsed) override {
        const std::size_t limit = cluster_.config_.batch_size;
        if (!interval_elapsed && pending.size() < limit) return std::nullopt;
        std::vector<Bytes> batch;
        while (!pending.empty() && batch.size() < limit) {
            batch.push_back(std::move(pending.front()));
            pending.pop_front();
        }
        return batch;
    }

    bool has_pending() const override { return !pending.empty(); }

    void on_pre_prepared(std::uint64_t, const std::vector<Bytes>& batch) override {
        if (id_ != 0) return;
        for (const auto& req : batch)
            cluster_.lifecycle_.on_first_seen(request_digest(req), id_, cluster_.now());
    }

    void on_committed(std::uint64_t seq, const std::vector<Bytes>& batch) override {
        if (id_ == 0) {
            // Commit = inclusion in the total order at this sequence number.
            std::vector<Hash256> digests;
            digests.reserve(batch.size());
            for (const auto& req : batch) digests.push_back(request_digest(req));
            cluster_.lifecycle_.on_block_connected(seq, digests, cluster_.now());
        }
        // Drop committed requests from the pending queue (they are spoken for).
        for (const auto& req : batch) {
            const auto match = std::find(pending.begin(), pending.end(), req);
            if (match != pending.end()) pending.erase(match);
        }
    }

    void execute(std::uint64_t seq, std::uint32_t view,
                 std::vector<Bytes> batch) override {
        const SimTime now = cluster_.now();
        if (id_ == 0) {
            auto& tracer = obs::Tracer::global();
            if (tracer.enabled()) {
                tracer.instant(
                    "pbft.execute", "consensus", now, id_,
                    {{"seq", obs::trace_arg(seq)},
                     {"view", obs::trace_arg(static_cast<std::uint64_t>(view))},
                     {"requests", obs::trace_arg(static_cast<std::uint64_t>(
                          batch.size()))}});
            }
            // Execute = deterministic finality for the request.
            for (const auto& req : batch)
                cluster_.lifecycle_.on_finalized(request_digest(req), now);
        }
        log.push_back(CommittedBatch{seq, view, std::move(batch), now});
    }

    PbftEngine engine;
    std::deque<Bytes> pending; // requests not yet seen committed
    std::vector<CommittedBatch> log;

private:
    PbftCluster& cluster_;
    std::uint32_t id_;
};

PbftCluster::PbftCluster(PbftConfig config, std::uint64_t seed)
    : config_(config),
      n_(3 * config.f + 1),
      // Finality is the execute step (on_finalized); depth-based k-deep never
      // applies to a total-order log.
      lifecycle_(1, &obs::Tracer::global()) {
    DLT_EXPECTS(config.f >= 1);
    network_ = std::make_unique<net::Network>(scheduler_, Rng(seed).fork(1));
    hub_ = std::make_unique<net::transport::SimTransportHub>(*network_, n_);
    network_->build_full_mesh(config_.link);
    for (std::uint32_t i = 0; i < n_; ++i)
        replicas_.push_back(std::make_unique<ReplicaHost>(*this, hub_->endpoint(i)));
}

PbftCluster::~PbftCluster() = default;

void PbftCluster::submit(Bytes request) {
    lifecycle_.on_submitted(request_digest(request), scheduler_.now(), 0);
    // Clients multicast to all replicas so a faulty primary cannot censor
    // without detection.
    for (std::uint32_t i = 0; i < n_; ++i) {
        scheduler_.schedule_after(0.0, [this, i, copy = request]() mutable {
            replicas_[i]->pending.push_back(std::move(copy));
            replicas_[i]->engine.work_arrived();
        });
    }
}

void PbftCluster::set_fault(std::uint32_t replica, PbftFault fault) {
    DLT_EXPECTS(replica < n_);
    replicas_[replica]->engine.set_fault(fault);
    network_->set_crashed(replica, fault == PbftFault::kCrashed);
}

void PbftCluster::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

const std::vector<CommittedBatch>& PbftCluster::log_of(std::uint32_t replica) const {
    return replicas_.at(replica)->log;
}

std::size_t PbftCluster::executed_requests(std::uint32_t replica) const {
    std::size_t count = 0;
    for (const auto& batch : log_of(replica)) count += batch.requests.size();
    return count;
}

bool PbftCluster::logs_consistent() const {
    const ReplicaHost* reference = nullptr;
    for (const auto& r : replicas_) {
        if (r->engine.fault() != PbftFault::kNone) continue;
        if (reference == nullptr) {
            reference = r.get();
            continue;
        }
        const std::size_t common = std::min(reference->log.size(), r->log.size());
        for (std::size_t i = 0; i < common; ++i) {
            if (reference->log[i].sequence != r->log[i].sequence ||
                reference->log[i].requests != r->log[i].requests)
                return false;
        }
    }
    return true;
}

std::uint32_t PbftCluster::max_view() const {
    std::uint32_t view = 0;
    for (const auto& r : replicas_)
        if (r->engine.fault() == PbftFault::kNone) view = std::max(view, r->engine.view());
    return view;
}

std::optional<double> PbftCluster::mean_commit_latency() const {
    const auto latencies = lifecycle_.latencies(obs::TxStage::kSubmitted,
                                                obs::TxStage::kFinal);
    if (latencies.empty()) return std::nullopt;
    return std::accumulate(latencies.begin(), latencies.end(), 0.0) /
           static_cast<double>(latencies.size());
}

} // namespace dlt::consensus
