#include "ledger/mempool.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"
#include "obs/metrics.hpp"

namespace dlt::ledger {

namespace {

/// Process-wide aggregate families (all pools in all peers report here; the
/// per-instance MempoolStats keeps the observed replica's own mix). Children
/// are resolved once — family lookups are off the admission hot path.
struct AggregateCounters {
    std::array<obs::Counter*, kAdmissionResultCount> admission{};
    std::array<obs::Counter*, kMempoolDropReasonCount> dropped{};

    AggregateCounters() {
        auto& registry = obs::MetricsRegistry::global();
        auto& adm = registry.counter_family(
            "mempool_admission_total",
            "Mempool admission decisions across all pools, by result code",
            {"result"});
        for (std::size_t i = 0; i < kAdmissionResultCount; ++i)
            admission[i] = &adm.with({admission_result_name(
                static_cast<AdmissionResult>(i))});
        auto& drops = registry.counter_family(
            "mempool_dropped_total",
            "Unconfirmed entries dropped from all pools, by reason", {"reason"});
        for (std::size_t i = 0; i < kMempoolDropReasonCount; ++i)
            dropped[i] = &drops.with({mempool_drop_reason_name(
                static_cast<MempoolDropReason>(i))});
    }
};

AggregateCounters& aggregate() {
    static AggregateCounters counters;
    return counters;
}

double compute_fee_rate(Amount fee, std::size_t size) {
    return size > 0 ? static_cast<double>(fee) / static_cast<double>(size) : 0.0;
}

} // namespace

const char* admission_result_name(AdmissionResult r) {
    switch (r) {
        case AdmissionResult::kAccepted: return "ACCEPTED";
        case AdmissionResult::kRbfReplaced: return "RBF_REPLACED";
        case AdmissionResult::kAlreadyInQueue: return "ALREADY_IN_QUEUE";
        case AdmissionResult::kQueueFull: return "QUEUE_FULL";
        case AdmissionResult::kFeeTooLow: return "FEE_TOO_LOW";
        case AdmissionResult::kExpired: return "EXPIRED";
    }
    return "UNKNOWN";
}

const char* mempool_drop_reason_name(MempoolDropReason r) {
    switch (r) {
        case MempoolDropReason::kEvicted: return "evicted";
        case MempoolDropReason::kExpired: return "expired";
        case MempoolDropReason::kReplaced: return "replaced";
    }
    return "unknown";
}

Mempool::Mempool(MempoolConfig config) : config_(config) {
    DLT_EXPECTS(config_.max_count > 0);
    DLT_EXPECTS(config_.rbf_min_bump >= 1.0);
    aggregate(); // resolve the registry children before the hot path
}

void Mempool::count_admission(AdmissionResult r) {
    ++stats_.admitted[static_cast<std::size_t>(r)];
    aggregate().admission[static_cast<std::size_t>(r)]->inc();
}

AdmissionResult Mempool::admit(const Transaction& tx, SimTime now) {
    return admit_impl(Transaction(tx), now);
}

AdmissionResult Mempool::admit(Transaction&& tx, SimTime now) {
    return admit_impl(std::move(tx), now);
}

AdmissionResult Mempool::admit_impl(Transaction&& tx, SimTime now) {
    if (config_.expiry > 0) expire(now);

    const Hash256 id = tx.txid();
    if (pool_.contains(id)) {
        count_admission(AdmissionResult::kAlreadyInQueue);
        return AdmissionResult::kAlreadyInQueue;
    }
    if (config_.expiry > 0 && recently_expired(id)) {
        count_admission(AdmissionResult::kExpired);
        return AdmissionResult::kExpired;
    }

    const std::size_t size = tx.serialized_size();
    const Amount fee = tx.declared_fee;
    const double fee_rate = compute_fee_rate(fee, size);
    if (fee_rate < config_.min_fee_rate) {
        count_admission(AdmissionResult::kFeeTooLow);
        return AdmissionResult::kFeeTooLow;
    }

    // Replace-by-fee: a newcomer conflicting with resident entries must out-bid
    // every one of them by the configured bump, or it is refused outright.
    const std::vector<Hash256> conflicts = find_conflicts(tx);
    std::size_t conflict_bytes = 0;
    for (const auto& cid : conflicts) {
        const Entry& old = pool_.at(cid);
        if (fee_rate < old.fee_rate * config_.rbf_min_bump) {
            count_admission(AdmissionResult::kFeeTooLow);
            return AdmissionResult::kFeeTooLow;
        }
        conflict_bytes += old.size;
    }

    // Capacity check before any mutation: plan the evictions needed once the
    // conflicts are gone, walking the feerate index worst-first. Bailing out
    // here must leave the pool untouched — shedding the *newcomer* must not
    // also shed the residents it failed to displace. Resident entries the
    // newcomer *spends* (its in-pool ancestors) are never eviction victims:
    // displacing a parent to make room for its child would leave the child an
    // orphan the moment it entered — the exact-byte-budget reorg `add_back`
    // bug, where a disconnected block's descendant evicted its just-re-added
    // ancestor. The ancestor set is computed lazily, only when the pool is
    // actually at capacity.
    std::vector<Hash256> evictions;
    {
        std::size_t count_after = pool_.size() - conflicts.size() + 1;
        std::size_t bytes_after = total_bytes_ - conflict_bytes + size;
        std::optional<std::unordered_set<Hash256>> ancestors;
        const auto is_ancestor = [&](const Hash256& txid) {
            if (!ancestors) {
                ancestors.emplace();
                std::vector<const Transaction*> frontier{&tx};
                while (!frontier.empty()) {
                    const Transaction* cur = frontier.back();
                    frontier.pop_back();
                    for (const auto& in : cur->inputs) {
                        const auto pit = pool_.find(in.prevout.txid);
                        if (pit != pool_.end() &&
                            ancestors->insert(in.prevout.txid).second)
                            frontier.push_back(&pit->second.tx);
                    }
                }
            }
            return ancestors->contains(txid);
        };
        auto worst = by_fee_rate_.rbegin();
        while (count_after > config_.max_count || bytes_after > config_.max_bytes) {
            while (worst != by_fee_rate_.rend() &&
                   (std::find(conflicts.begin(), conflicts.end(), worst->txid) !=
                        conflicts.end() || // already leaving as an RBF casualty
                    is_ancestor(worst->txid)))
                ++worst;
            if (worst == by_fee_rate_.rend() || worst->fee_rate >= fee_rate) {
                count_admission(AdmissionResult::kQueueFull);
                return AdmissionResult::kQueueFull;
            }
            evictions.push_back(worst->txid);
            const Entry& victim = pool_.at(worst->txid);
            --count_after;
            bytes_after -= victim.size;
            ++worst;
        }
    }

    for (const auto& cid : conflicts)
        erase_entry(pool_.find(cid), MempoolDropReason::kReplaced, now);
    for (const auto& vid : evictions)
        erase_entry(pool_.find(vid), MempoolDropReason::kEvicted, now);

    insert_entry(std::move(tx), id, fee, size, fee_rate, now);
    const AdmissionResult result = conflicts.empty() ? AdmissionResult::kAccepted
                                                     : AdmissionResult::kRbfReplaced;
    count_admission(result);
    return result;
}

void Mempool::insert_entry(Transaction&& tx, const Hash256& id, Amount fee,
                           std::size_t size, double fee_rate, SimTime now) {
    Entry entry;
    entry.fee = fee;
    entry.size = size;
    entry.fee_rate = fee_rate;
    entry.seq = next_seq_++;
    entry.entered = now;
    entry.tx = std::move(tx);
    index_conflicts(entry.tx, id, /*insert=*/true);
    by_fee_rate_.insert(OrderKey{fee_rate, entry.seq, id});
    if (config_.expiry > 0) expiry_ring_.push_back(RingSlot{now, entry.seq, id});
    total_bytes_ += size;
    pool_.emplace(id, std::move(entry));
}

void Mempool::erase_entry(std::unordered_map<Hash256, Entry>::iterator it,
                          std::optional<MempoolDropReason> reason, SimTime at) {
    DLT_INVARIANT(it != pool_.end());
    const Hash256 id = it->first;
    Entry& entry = it->second;
    index_conflicts(entry.tx, id, /*insert=*/false);
    by_fee_rate_.erase(OrderKey{entry.fee_rate, entry.seq, id});
    total_bytes_ -= entry.size;
    // The expiry ring slot (if any) goes stale and is skipped lazily by its
    // (seq, txid) pair when it reaches the front.
    pool_.erase(it);
    if (reason) {
        ++stats_.dropped[static_cast<std::size_t>(*reason)];
        aggregate().dropped[static_cast<std::size_t>(*reason)]->inc();
        if (drop_observer_) drop_observer_(id, *reason, at);
    }
}

void Mempool::index_conflicts(const Transaction& tx, const Hash256& id,
                              bool insert) {
    for (const auto& in : tx.inputs) {
        if (insert)
            by_spend_.emplace(in.prevout, id);
        else if (const auto it = by_spend_.find(in.prevout);
                 it != by_spend_.end() && it->second == id)
            by_spend_.erase(it);
    }
    if (tx.uses_accounts() && !tx.sender_pubkey.empty()) {
        const AccountKey key{tx.sender_pubkey, tx.nonce};
        if (insert)
            by_account_.emplace(key, id);
        else if (const auto it = by_account_.find(key);
                 it != by_account_.end() && it->second == id)
            by_account_.erase(it);
    }
}

std::vector<Hash256> Mempool::find_conflicts(const Transaction& tx) const {
    std::vector<Hash256> conflicts;
    auto remember = [&conflicts](const Hash256& id) {
        if (std::find(conflicts.begin(), conflicts.end(), id) == conflicts.end())
            conflicts.push_back(id);
    };
    for (const auto& in : tx.inputs)
        if (const auto it = by_spend_.find(in.prevout); it != by_spend_.end())
            remember(it->second);
    if (tx.uses_accounts() && !tx.sender_pubkey.empty())
        if (const auto it = by_account_.find(AccountKey{tx.sender_pubkey, tx.nonce});
            it != by_account_.end())
            remember(it->second);
    return conflicts;
}

bool Mempool::recently_expired(const Hash256& id) const {
    return expired_gen_[0].contains(id) || expired_gen_[1].contains(id);
}

std::size_t Mempool::expire(SimTime now) {
    if (config_.expiry <= 0) return 0;
    std::size_t expired = 0;
    while (!expiry_ring_.empty() &&
           expiry_ring_.front().entered + config_.expiry <= now) {
        const RingSlot slot = expiry_ring_.front();
        expiry_ring_.pop_front();
        const auto it = pool_.find(slot.txid);
        if (it == pool_.end() || it->second.seq != slot.seq)
            continue; // confirmed, evicted, replaced, or re-admitted since
        erase_entry(it, MempoolDropReason::kExpired, now);
        expired_gen_[0].insert(slot.txid);
        ++expired;
    }
    // Age the refusal set: anything expired more than ~2 expiry periods ago
    // can be forgotten (its gossip echoes have died down).
    if (now - expired_gen_started_ >= config_.expiry) {
        expired_gen_[1] = std::move(expired_gen_[0]);
        expired_gen_[0].clear();
        expired_gen_started_ = now;
    }
    return expired;
}

std::optional<double> Mempool::best_fee_rate() const {
    if (by_fee_rate_.empty()) return std::nullopt;
    return by_fee_rate_.begin()->fee_rate;
}

double Mempool::fee_rate_floor() const {
    if (pool_.size() >= config_.max_count ||
        (config_.max_bytes != std::numeric_limits<std::size_t>::max() &&
         total_bytes_ >= config_.max_bytes)) {
        // Full: must strictly beat the worst resident entry.
        return by_fee_rate_.rbegin()->fee_rate;
    }
    return config_.min_fee_rate;
}

std::vector<TemplateEntry> Mempool::build_template(std::size_t max_bytes,
                                                   std::size_t max_count) const {
    std::vector<TemplateEntry> out;
    std::size_t used = 0;
    // Best-first walk of the maintained index; greedy knapsack skips entries
    // that no longer fit but keeps scanning for smaller ones (the historical
    // select() policy, preserved bit-for-bit).
    for (const OrderKey& key : by_fee_rate_) {
        if (out.size() >= max_count) break;
        const Entry& entry = pool_.at(key.txid);
        if (used + entry.size > max_bytes) continue;
        out.push_back(TemplateEntry{&entry.tx, entry.fee, entry.size, entry.fee_rate});
        used += entry.size;
    }
    return out;
}

std::vector<Transaction> Mempool::select(std::size_t max_bytes,
                                         std::size_t max_count) const {
    std::vector<Transaction> selected;
    for (const TemplateEntry& e : build_template(max_bytes, max_count))
        selected.push_back(*e.tx);
    return selected;
}

std::vector<const Transaction*> Mempool::admitted_before(SimTime cutoff) const {
    std::vector<const Entry*> old;
    for (const auto& [id, entry] : pool_)
        if (entry.entered < cutoff) old.push_back(&entry);
    std::sort(old.begin(), old.end(),
              [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
    std::vector<const Transaction*> out;
    out.reserve(old.size());
    for (const Entry* entry : old) out.push_back(&entry->tx);
    return out;
}

void Mempool::remove_confirmed(const std::vector<Hash256>& txids) {
    for (const auto& id : txids) {
        const auto it = pool_.find(id);
        if (it == pool_.end()) continue;
        erase_entry(it, std::nullopt, 0.0);
    }
}

void Mempool::add_back(const std::vector<Transaction>& txs, SimTime now) {
    // Block order guarantees ancestors precede descendants. A tx whose
    // ancestor failed re-admission (pool saturated, fee floor) must not be
    // re-admitted either: its parent exists in neither the new chain nor the
    // pool, so it would sit as an unminable orphan. Each failure therefore
    // poisons its in-batch descendants.
    std::unordered_set<Hash256> failed;
    for (const auto& tx : txs) {
        if (tx.is_coinbase()) continue;
        const bool orphaned =
            std::any_of(tx.inputs.begin(), tx.inputs.end(), [&](const auto& in) {
                return failed.contains(in.prevout.txid);
            });
        if (orphaned) {
            failed.insert(tx.txid());
            continue;
        }
        const AdmissionResult r = admit(tx, now);
        if (r != AdmissionResult::kAccepted && r != AdmissionResult::kRbfReplaced &&
            r != AdmissionResult::kAlreadyInQueue)
            failed.insert(tx.txid());
    }
}

} // namespace dlt::ledger
