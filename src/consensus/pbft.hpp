// Practical Byzantine Fault Tolerance (paper §2.4: Hyperledger's committing
// peers "execute a Practical Byzantine Fault-Tolerance protocol"), implemented
// once: PbftEngine is one replica's PRE-PREPARE / PREPARE / COMMIT exchange
// with digest-matched 2f+1 quorums and view changes with NEW-VIEW re-proposal,
// over net::transport::Transport. Votes count for the delivering peer, a
// replica prepares only batches its host accepts, and only a view's primary
// pre-prepares in it or announces it (after f+1 view-change votes). PbftCluster
// runs n engines over a SimTransportHub; core::Replica runs one per dlt-node.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"
#include "net/transport/sim_transport.hpp"
#include "obs/txlifecycle.hpp"
#include "sim/scheduler.hpp"

namespace dlt::consensus {

struct PbftConfig {
    std::uint32_t f = 1;                  // tolerated Byzantine replicas; n = 3f+1
    std::size_t batch_size = 100;         // requests per proposal
    SimDuration batch_interval = 0.2;     // cut a partial batch after this long
    SimDuration view_change_timeout = 5.0;
    net::LinkParams link{};
};

/// Byzantine behaviour injected into a replica (for tests and E17).
enum class PbftFault {
    kNone,
    kCrashed,      // fail-stop: drops everything
    kEquivocating, // as primary, sends conflicting pre-prepares to halves
};

/// One committed batch in a replica's ledger.
struct CommittedBatch {
    std::uint64_t sequence = 0;
    std::uint32_t view = 0;
    std::vector<Bytes> requests;
    SimTime committed_at = 0;
};

/// What an engine needs from the object that owns it. All calls arrive on the
/// transport's callback thread.
class PbftHost {
public:
    virtual ~PbftHost() = default;
    /// Primary only, and only while has_pending(): the batch to order at
    /// `seq`, or nullopt to propose nothing now. With `interval_elapsed` false
    /// the engine asks for a full batch only; true means batch_interval has
    /// passed since work waited.
    virtual std::optional<std::vector<Bytes>> next_batch(std::uint64_t seq,
                                                         bool interval_elapsed) = 0;
    /// Apply the batch committed at `seq`; called once per sequence, in order.
    virtual void execute(std::uint64_t seq, std::uint32_t view,
                         std::vector<Bytes> batch) = 0;
    /// True while work waits to be ordered; keeps the view-change timer armed.
    virtual bool has_pending() const = 0;
    /// Whether this replica may vote for the primary's `batch` at `seq`; a
    /// refusal is asked again once `seq` is next to execute.
    virtual bool accepts(std::uint64_t /*seq*/, const std::vector<Bytes>&) { return true; }
    /// Observers: a batch was pre-prepared, or committed ahead of execution.
    virtual void on_pre_prepared(std::uint64_t /*seq*/, const std::vector<Bytes>&) {}
    virtual void on_committed(std::uint64_t /*seq*/, const std::vector<Bytes>&) {}
};

/// One of 3f+1 replicas, identified by transport peer id; view v's primary is v mod n.
class PbftEngine {
public:
    /// `executed` is the last sequence the host holds (non-zero on restart).
    PbftEngine(net::transport::Transport& transport, PbftHost& host,
               const PbftConfig& config, std::uint64_t executed = 0);
    ~PbftEngine() { stop(); }
    PbftEngine(const PbftEngine&) = delete;
    PbftEngine& operator=(const PbftEngine&) = delete;

    /// Feed one transport message; topics that are not PBFT's are ignored.
    void handle(net::transport::PeerId from, const std::string& topic,
                ByteView payload);
    /// The host queued new work: arm the view timer, maybe propose.
    void work_arrived();
    /// The host applied sequences up to `seq` itself (catch-up from a peer).
    void skip_to(std::uint64_t seq);
    /// Cancel every timer; the engine idles until fed again.
    void stop();

    void set_fault(PbftFault fault) { fault_ = fault; }
    PbftFault fault() const { return fault_; }
    std::uint32_t view() const { return view_; }

    // Wire format, shared with tests that play a Byzantine peer.
    static Hash256 batch_digest(const std::vector<Bytes>& batch);
    static Bytes pre_prepare_message(std::uint32_t view, std::uint64_t seq,
                                     const std::vector<Bytes>& batch);
    /// PREPARE and COMMIT body; a vote counts for its sender's transport id.
    static Bytes vote_message(std::uint32_t view, std::uint64_t seq,
                              const Hash256& digest, std::uint32_t sender);

private:
    struct Slot {
        std::optional<Hash256> digest;      // of the proposed batch
        std::vector<Bytes> batch;           // known once pre-prepared
        std::uint32_t view = 0;
        std::map<net::transport::PeerId, Hash256> prepares; // PREPARE digest by voter
        std::map<net::transport::PeerId, Hash256> commits;  // COMMIT digest by voter
        bool pre_prepared = false;
        bool accepted = false; // the host accepted the batch; our PREPARE is out
        bool prepared = false;
        bool committed = false;
    };

    bool is_primary() const { return view_ % n_ == id_; }
    /// Sequence of the primary's next proposal.
    std::uint64_t next_seq() const {
        return std::max(next_sequence_, last_executed_ + 1);
    }
    void cancel(std::optional<net::transport::TimerId>& timer);
    void broadcast(const std::string& topic, const Bytes& payload);
    void maybe_propose(bool interval_elapsed = false);
    void propose(std::vector<Bytes> batch);
    void on_pre_prepare(net::transport::PeerId from, std::uint32_t view,
                        std::uint64_t seq, const Hash256& digest,
                        std::vector<Bytes> batch);
    void prepare(std::uint64_t seq, Slot& slot);
    void on_vote(net::transport::PeerId from, std::uint32_t view, std::uint64_t seq,
                 const Hash256& digest, bool commit);
    void try_advance(std::uint64_t seq, Slot& slot);
    void execute_ready();

    void arm_view_timer();
    void start_view_change();
    void on_view_change(net::transport::PeerId from, std::uint32_t target);
    void enter_view(std::uint32_t view);

    net::transport::Transport& transport_;
    PbftHost& host_;
    PbftConfig config_;
    std::uint32_t n_;
    net::transport::PeerId id_;
    std::uint32_t view_ = 0;
    std::uint64_t next_sequence_;   // primary: next seq to assign
    std::uint64_t last_executed_;
    PbftFault fault_ = PbftFault::kNone;
    std::map<std::uint64_t, Slot> slots_; // by sequence
    std::map<std::uint32_t, std::set<net::transport::PeerId>> view_votes_; // target -> voters
    std::optional<net::transport::TimerId> batch_timer_;
    std::optional<net::transport::TimerId> view_timer_;
    obs::Counter* batches_committed_; // pbft_batches_committed_total
    obs::Counter* requests_executed_; // pbft_requests_executed_total
    obs::Counter* view_changes_;      // pbft_view_changes_total
};

/// A simulated PBFT cluster: n = 3f+1 engines over a full-mesh
/// SimTransportHub, each hosted by a replica that queues client requests.
class PbftCluster {
public:
    PbftCluster(PbftConfig config, std::uint64_t seed);
    ~PbftCluster();

    std::uint32_t replica_count() const { return n_; }

    /// Submit a client request; it is forwarded to every replica (clients
    /// multicast so a faulty primary cannot censor silently).
    void submit(Bytes request);

    /// Inject a fault into one replica.
    void set_fault(std::uint32_t replica, PbftFault fault);

    void run_for(SimDuration duration);
    SimTime now() const { return scheduler_.now(); }

    /// Committed batches at one replica (in sequence order).
    const std::vector<CommittedBatch>& log_of(std::uint32_t replica) const;

    /// Total requests executed at one replica.
    std::size_t executed_requests(std::uint32_t replica) const;

    /// True when all non-faulty replicas have identical logs.
    bool logs_consistent() const;

    /// Highest view number reached by any correct replica (counts view changes).
    std::uint32_t max_view() const;

    /// Mean commit latency (submit -> commit at replica 0) over committed
    /// requests; nullopt when nothing committed.
    std::optional<double> mean_commit_latency() const;

    const net::TrafficStats& traffic() const { return network_->stats(); }
    /// Underlying simulated network (fault injection: apply a FaultPlan,
    /// partition/heal the cluster).
    net::Network& network() { return *network_; }

    /// Request lifecycle telemetry keyed by request digest, observed at
    /// replica 0: submit → pre-prepare (first-seen) → commit (inclusion at the
    /// batch sequence) → execute (deterministic finality). The mempool stage
    /// has no PBFT analogue and stays unstamped.
    const obs::TxLifecycleTracker& lifecycle() const { return lifecycle_; }
    obs::TxLifecycleTracker& lifecycle() { return lifecycle_; }

private:
    class ReplicaHost;

    PbftConfig config_;
    std::uint32_t n_;
    sim::Scheduler scheduler_;
    std::unique_ptr<net::Network> network_;
    std::unique_ptr<net::transport::SimTransportHub> hub_;
    std::vector<std::unique_ptr<ReplicaHost>> replicas_;
    obs::TxLifecycleTracker lifecycle_;
};

} // namespace dlt::consensus
