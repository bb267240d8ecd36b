// Fee-market mempool: the admission-control engine between client demand and
// block space (paper §2.4 "transactions are submitted by client users ...
// pooled into blocks", §2.7/§4 — the 7-vs-10K tps gap is decided here). The
// pool is a bounded, multi-indexed structure:
//
//   txid hash map   -> owns the entries (O(1) dedup)
//   feerate set     -> (fee_rate desc, admission seq desc); O(log n) admission,
//                      eviction, and incremental block-template assembly —
//                      miners walk the maintained index instead of re-sorting
//                      the pool every block
//   expiry ring     -> admission-ordered FIFO of (entered, seq, txid); expired
//                      entries pop off the front in O(1) amortized
//   conflict maps   -> spent-outpoint and (sender, nonce) -> txid, enabling
//                      replace-by-fee instead of silently queueing conflicting
//                      spends of the same coin/nonce
//
// Admission returns a typed AdmissionResult (the ExecutionStatus idiom of
// pandanite's request_manager: QUEUE_FULL / EXPIRED_TRANSACTION /
// ALREADY_IN_QUEUE / ...) so callers and metrics can distinguish *why* demand
// was shed. Memory is bounded by both entry count and serialized bytes;
// overflow evicts the lowest-feerate entry, ties resolved toward keeping the
// newest arrivals (matching the historical greedy pool, which kept virtual-time
// experiment outputs E01/E02 byte-identical across the rebuild).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "ledger/outpoint_hash.hpp"
#include "ledger/transaction.hpp"

namespace dlt::ledger {

/// Why an offered transaction was (not) admitted. kAccepted and kRbfReplaced
/// are the success codes; everything else means the pool shed the demand.
enum class AdmissionResult : std::uint8_t {
    kAccepted = 0,     // entered the pool
    kRbfReplaced,      // entered the pool, replacing lower-feerate conflicts
    kAlreadyInQueue,   // duplicate txid
    kQueueFull,        // pool at capacity and feerate does not beat the worst entry
    kFeeTooLow,        // below the relay floor, or an insufficient RBF bump
    kExpired,          // this txid already expired out of the pool (stale re-relay)
};
inline constexpr std::size_t kAdmissionResultCount = 6;

/// Stable uppercase name ("ACCEPTED", "QUEUE_FULL", ...) for metrics/reports.
const char* admission_result_name(AdmissionResult r);

/// Why a resident entry left the pool without being confirmed.
enum class MempoolDropReason : std::uint8_t {
    kEvicted = 0, // displaced by higher-feerate admissions under memory pressure
    kExpired,     // sat unconfirmed past MempoolConfig::expiry
    kReplaced,    // replaced by a higher-feerate conflicting transaction (RBF)
};
inline constexpr std::size_t kMempoolDropReasonCount = 3;
const char* mempool_drop_reason_name(MempoolDropReason r);

struct MempoolConfig {
    /// Entry-count bound (the historical pool's only limit).
    std::size_t max_count = 100'000;
    /// Serialized-bytes bound across all entries.
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max();
    /// Relay floor: entries below this fee-per-byte are refused outright.
    double min_fee_rate = 0.0;
    /// Entry lifetime in virtual seconds; 0 disables expiry.
    SimDuration expiry = 0.0;
    /// A conflicting replacement must carry at least rbf_min_bump times the
    /// feerate of every transaction it displaces (Bitcoin's BIP-125 rule 6,
    /// expressed as a ratio).
    double rbf_min_bump = 1.1;
};

/// Per-instance admission/drop tallies (the obs registry aggregates the same
/// events across every pool in the process; these stay per-pool so an
/// experiment can report the observed replica's outcome mix).
struct MempoolStats {
    std::uint64_t admitted[kAdmissionResultCount] = {};
    std::uint64_t dropped[kMempoolDropReasonCount] = {};

    std::uint64_t result(AdmissionResult r) const {
        return admitted[static_cast<std::size_t>(r)];
    }
    std::uint64_t drops(MempoolDropReason r) const {
        return dropped[static_cast<std::size_t>(r)];
    }
};

/// One row of an assembled block template: a borrowed pointer into the pool
/// (valid until the pool is next mutated) plus the cached fee bookkeeping, so
/// template assembly copies nothing and callers copy only what they include.
struct TemplateEntry {
    const Transaction* tx = nullptr;
    Amount fee = 0;
    std::size_t size = 0;
    double fee_rate = 0;
};

class Mempool {
public:
    Mempool() : Mempool(MempoolConfig{}) {}
    explicit Mempool(MempoolConfig config);
    /// Historical constructor: bound by entry count only.
    explicit Mempool(std::size_t max_count)
        : Mempool(MempoolConfig{.max_count = max_count}) {}

    Mempool(Mempool&&) = default;
    Mempool& operator=(Mempool&&) = default;

    /// Observer invoked whenever a resident entry is dropped unconfirmed
    /// (evicted / expired / RBF-replaced) — the lifecycle tracker stamps these
    /// as terminal events so shed transactions stop reading as infinite
    /// latency. Must not reentrantly mutate the pool.
    using DropObserver =
        std::function<void(const Hash256& txid, MempoolDropReason reason, SimTime at)>;
    void set_drop_observer(DropObserver observer) { drop_observer_ = std::move(observer); }

    /// Admission control. `now` is the virtual time (drives expiry; ignored
    /// when expiry is disabled). The rvalue overload moves the transaction
    /// into the pool, sparing the copy on the gossip hot path.
    AdmissionResult admit(const Transaction& tx, SimTime now = 0.0);
    AdmissionResult admit(Transaction&& tx, SimTime now = 0.0);

    /// Historical boolean API: true iff admit() succeeded.
    bool add(const Transaction& tx, SimTime now = 0.0) {
        const AdmissionResult r = admit(tx, now);
        return r == AdmissionResult::kAccepted || r == AdmissionResult::kRbfReplaced;
    }

    /// Drop entries that have sat unconfirmed for longer than config.expiry;
    /// returns how many expired. Called implicitly by admit(); miners call it
    /// before assembling a template. No-op when expiry is disabled.
    std::size_t expire(SimTime now);

    bool contains(const Hash256& txid) const { return pool_.contains(txid); }
    std::size_t size() const { return pool_.size(); }
    bool empty() const { return pool_.empty(); }
    /// Serialized bytes across all entries (the memory bound's currency).
    std::size_t bytes() const { return total_bytes_; }

    /// Highest feerate offered by any entry, nullopt when empty.
    std::optional<double> best_fee_rate() const;
    /// Feerate a new transaction must beat to be admitted when the pool is
    /// full: the lowest resident feerate at capacity, else the relay floor
    /// (what a fee-bidding wallet would query before broadcasting).
    double fee_rate_floor() const;

    /// Feerate-ordered block template: walks the maintained index best-first,
    /// greedily skipping entries that overflow `max_bytes` (the standard miner
    /// knapsack), capped at `max_count` rows. Returned pointers are valid
    /// until the next pool mutation. Byte-identical to sorting the pool from
    /// scratch (tests pin this against a brute-force oracle).
    std::vector<TemplateEntry> build_template(std::size_t max_bytes,
                                              std::size_t max_count = SIZE_MAX) const;

    /// Historical copying selection (build_template + copy).
    std::vector<Transaction> select(std::size_t max_bytes,
                                    std::size_t max_count = SIZE_MAX) const;

    /// Resident entries admitted before `cutoff`, oldest admission first.
    /// Pointers are valid until the next pool mutation.
    std::vector<const Transaction*> admitted_before(SimTime cutoff) const;

    /// Drop all transactions included in a confirmed block (not a "drop" for
    /// observer purposes — these succeeded).
    void remove_confirmed(const std::vector<Hash256>& txids);

    /// Re-add transactions from disconnected blocks during a reorg.
    void add_back(const std::vector<Transaction>& txs, SimTime now = 0.0);

    const MempoolConfig& config() const { return config_; }
    const MempoolStats& stats() const { return stats_; }

private:
    struct Entry {
        Transaction tx;
        Amount fee = 0;
        std::size_t size = 0;
        double fee_rate = 0;
        std::uint64_t seq = 0;  // admission order; refreshed on re-admission
        SimTime entered = 0;    // admission time (expiry ring key)
    };

    /// Feerate-index key. Ordered best-first: higher feerate, then *later*
    /// admission among equal feerates (the historical multimap walked its
    /// reverse iterator, which yields newest-first within a tie; eviction
    /// takes the back — lowest feerate, oldest arrival).
    struct OrderKey {
        double fee_rate = 0;
        std::uint64_t seq = 0;
        Hash256 txid;
    };
    struct OrderBestFirst {
        bool operator()(const OrderKey& a, const OrderKey& b) const {
            if (a.fee_rate != b.fee_rate) return a.fee_rate > b.fee_rate;
            return a.seq > b.seq;
        }
    };

    /// Account-family conflict key: one (sender, nonce) slot may be pending.
    struct AccountKey {
        Bytes sender;
        std::uint64_t nonce = 0;
        bool operator==(const AccountKey&) const = default;
    };
    struct AccountKeyHash {
        std::size_t operator()(const AccountKey& k) const noexcept {
            std::size_t h = 0xcbf29ce484222325ull;
            for (const std::uint8_t b : k.sender) h = (h ^ b) * 0x100000001b3ull;
            return h ^ (k.nonce * 0x9E3779B97F4A7C15ull);
        }
    };

    struct RingSlot {
        SimTime entered = 0;
        std::uint64_t seq = 0; // disambiguates re-admissions of the same txid
        Hash256 txid;
    };

    AdmissionResult admit_impl(Transaction&& tx, SimTime now);
    void insert_entry(Transaction&& tx, const Hash256& id, Amount fee,
                      std::size_t size, double fee_rate, SimTime now);
    /// Remove one entry and fix every index. Confirmed removals pass no
    /// reason; unconfirmed drops are counted and reported to the observer.
    void erase_entry(std::unordered_map<Hash256, Entry>::iterator it,
                     std::optional<MempoolDropReason> reason, SimTime at);
    void index_conflicts(const Transaction& tx, const Hash256& id, bool insert);
    /// Pool entries conflicting with `tx` (shared spent outpoint or same
    /// account (sender, nonce)), deduplicated.
    std::vector<Hash256> find_conflicts(const Transaction& tx) const;
    bool recently_expired(const Hash256& id) const;
    void count_admission(AdmissionResult r);

    MempoolConfig config_;
    std::uint64_t next_seq_ = 0;
    std::size_t total_bytes_ = 0;
    std::unordered_map<Hash256, Entry> pool_;
    std::set<OrderKey, OrderBestFirst> by_fee_rate_;
    std::unordered_map<OutPoint, Hash256, OutPointHash> by_spend_;
    std::unordered_map<AccountKey, Hash256, AccountKeyHash> by_account_;
    std::deque<RingSlot> expiry_ring_;
    /// Two-generation aging set of txids that expired here; re-relays of these
    /// are refused with kExpired (pandanite's EXPIRED_TRANSACTION) instead of
    /// bouncing back in from slower peers. Generations swap every expiry
    /// period, bounding memory without per-id timestamps.
    std::unordered_set<Hash256> expired_gen_[2];
    SimTime expired_gen_started_ = 0;
    DropObserver drop_observer_;
    MempoolStats stats_;
};

} // namespace dlt::ledger
