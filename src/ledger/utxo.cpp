#include "ledger/utxo.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace dlt::ledger {

namespace {
// Serialized footprint of one entry: OutPoint (32-byte txid + u32 index) plus
// TxOutput (i64 value + 20-byte address). Used to bound decoded element counts
// against the bytes actually present.
constexpr std::size_t kOutPointBytes = 36;
constexpr std::size_t kEntryBytes = kOutPointBytes + 28;
} // namespace

void UtxoUndo::encode(Writer& w) const {
    w.varint(spent.size());
    for (const auto& [op, out] : spent) {
        op.encode(w);
        out.encode(w);
    }
    w.varint(created.size());
    for (const auto& op : created) op.encode(w);
}

UtxoUndo UtxoUndo::decode(Reader& r) {
    UtxoUndo undo;
    const std::uint64_t spent_count = r.varint_count(kEntryBytes);
    undo.spent.reserve(spent_count);
    for (std::uint64_t i = 0; i < spent_count; ++i) {
        const auto op = OutPoint::decode(r);
        const auto out = TxOutput::decode(r);
        undo.spent.emplace_back(op, out);
    }
    const std::uint64_t created_count = r.varint_count(kOutPointBytes);
    undo.created.reserve(created_count);
    for (std::uint64_t i = 0; i < created_count; ++i)
        undo.created.push_back(OutPoint::decode(r));
    return undo;
}

UtxoSet::UtxoSet() : backend_(std::make_unique<ShardedMemoryBackend>()) {}

UtxoSet::UtxoSet(std::unique_ptr<StateBackend> backend)
    : backend_(std::move(backend)) {
    DLT_EXPECTS(backend_ != nullptr);
    rebuild_index();
}

UtxoSet::UtxoSet(const UtxoSet& other)
    : backend_(other.backend_->clone()),
      by_addr_(other.by_addr_),
      total_value_(other.total_value_) {}

UtxoSet& UtxoSet::operator=(const UtxoSet& other) {
    if (this == &other) return *this;
    backend_ = other.backend_->clone();
    by_addr_ = other.by_addr_;
    total_value_ = other.total_value_;
    return *this;
}

void UtxoSet::rebuild_index() {
    by_addr_.clear();
    total_value_ = 0;
    backend_->for_each([this](const OutPoint& op, const TxOutput& out) {
        index_add(op, out);
        total_value_ += out.value;
    });
}

void UtxoSet::encode(Writer& w) const {
    obs::ScopedTimer timer(obs::MetricsRegistry::global().histogram(
        "state_snapshot_build_seconds",
        "Wall-clock latency of canonical UTXO snapshot serialization"));
    backend_->encode_sorted(w);
}

UtxoSet UtxoSet::decode(Reader& r) {
    const std::uint64_t count = r.varint_count(kEntryBytes);
    UtxoSet utxo;
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto op = OutPoint::decode(r);
        const auto out = TxOutput::decode(r);
        if (!money_range(out.value))
            throw DecodeError("utxo snapshot entry value out of range");
        if (!utxo.backend_->insert_if_absent(op, out))
            throw DecodeError("duplicate outpoint in utxo snapshot");
        utxo.index_add(op, out);
        utxo.total_value_ += out.value;
    }
    return utxo;
}

std::optional<TxOutput> UtxoSet::lookup(const OutPoint& op) const {
    return backend_->get(op);
}

bool UtxoSet::contains(const OutPoint& op) const { return backend_->contains(op); }

Amount UtxoSet::balance_of(const crypto::Address& addr) const {
    const auto it = by_addr_.find(addr);
    return it == by_addr_.end() ? 0 : it->second.balance;
}

std::vector<std::pair<OutPoint, TxOutput>> UtxoSet::coins_of(
    const crypto::Address& addr) const {
    std::vector<std::pair<OutPoint, TxOutput>> coins;
    const auto it = by_addr_.find(addr);
    if (it == by_addr_.end()) return coins;
    coins.reserve(it->second.coins.size());
    for (const auto& op : it->second.coins) {
        const auto entry = backend_->get(op);
        DLT_INVARIANT(entry.has_value()); // index mirrors the backend
        coins.emplace_back(op, *entry);
    }
    std::sort(coins.begin(), coins.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return coins;
}

void UtxoSet::index_add(const OutPoint& op, const TxOutput& out) {
    auto& entry = by_addr_[out.recipient];
    entry.balance += out.value;
    entry.coins.insert(op);
}

void UtxoSet::index_remove(const OutPoint& op, const TxOutput& out) {
    const auto it = by_addr_.find(out.recipient);
    DLT_INVARIANT(it != by_addr_.end());
    it->second.balance -= out.value;
    it->second.coins.erase(op);
    if (it->second.coins.empty()) by_addr_.erase(it);
}

void UtxoSet::insert_raw(const OutPoint& op, const TxOutput& out) {
    const auto previous = backend_->put(op, out);
    if (previous) {
        index_remove(op, *previous); // silent overwrite replaces the old owner
        total_value_ -= previous->value;
    }
    index_add(op, out);
    total_value_ += out.value;
}

void UtxoSet::fetch_inputs(const UtxoSet& from, const Transaction& tx) {
    for (const auto& in : tx.inputs)
        if (const auto out = from.lookup(in.prevout)) insert_raw(in.prevout, *out);
}

std::vector<std::pair<OutPoint, TxOutput>> UtxoSet::export_all() const {
    std::vector<std::pair<OutPoint, TxOutput>> all;
    all.reserve(size());
    backend_->for_each([&all](const OutPoint& op, const TxOutput& out) {
        all.emplace_back(op, out);
    });
    return all;
}

Amount UtxoSet::check_transaction(const Transaction& tx) const {
    if (tx.is_coinbase()) return 0;
    if (tx.kind != TxKind::kTransfer)
        return 0; // account-family txs do not touch the UTXO set
    if (tx.inputs.empty()) throw ValidationError("transfer with no inputs");

    Amount in_value = 0;
    std::vector<OutPoint> seen;
    for (const auto& in : tx.inputs) {
        for (const auto& prior : seen)
            if (prior == in.prevout)
                throw ValidationError("duplicate input within transaction");
        seen.push_back(in.prevout);

        const auto out = lookup(in.prevout);
        if (!out) throw ValidationError("input spends unknown or spent output");
        in_value += out->value;
    }

    Amount out_value = 0;
    for (const auto& out : tx.outputs) {
        if (!money_range(out.value)) throw ValidationError("output value out of range");
        out_value += out.value;
    }
    if (!money_range(in_value) || !money_range(out_value))
        throw ValidationError("value overflow");
    if (out_value > in_value) throw ValidationError("outputs exceed inputs");
    return in_value - out_value;
}

void UtxoSet::apply_transaction(const Transaction& tx, UtxoUndo& undo) {
    if (tx.kind == TxKind::kTransfer) {
        for (const auto& in : tx.inputs) {
            const auto removed = backend_->erase(in.prevout);
            DLT_INVARIANT(removed.has_value()); // caller checked
            undo.spent.emplace_back(in.prevout, *removed);
            index_remove(in.prevout, *removed);
            total_value_ -= removed->value;
        }
    }
    if (tx.kind == TxKind::kTransfer || tx.is_coinbase()) {
        const Hash256 id = tx.txid();
        for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
            const OutPoint op{id, i};
            // Undo erases only what this block inserted: an output refused as
            // already present belongs to an earlier block.
            if (backend_->insert_if_absent(op, tx.outputs[i])) {
                index_add(op, tx.outputs[i]);
                total_value_ += tx.outputs[i].value;
                undo.created.push_back(op);
            }
        }
    }
}

Amount UtxoSet::check_and_apply(const Transaction& tx, UtxoUndo& undo) {
    const Amount fee = check_transaction(tx); // throws without mutating
    apply_transaction(tx, undo);
    return fee;
}

UtxoUndo UtxoSet::apply_block(const Block& block) {
    UtxoUndo undo;
    try {
        for (const auto& tx : block.txs) check_and_apply(tx, undo);
    } catch (...) {
        undo_block(undo); // roll back the partial application
        throw;
    }
    return undo;
}

void UtxoSet::undo_block(const UtxoUndo& undo) {
    // Remove created outputs (reverse order), then restore spent ones.
    for (auto it = undo.created.rbegin(); it != undo.created.rend(); ++it) {
        const auto removed = backend_->erase(*it);
        DLT_INVARIANT(removed.has_value());
        index_remove(*it, *removed);
        total_value_ -= removed->value;
    }
    for (auto it = undo.spent.rbegin(); it != undo.spent.rend(); ++it)
        if (backend_->insert_if_absent(it->first, it->second)) {
            index_add(it->first, it->second);
            total_value_ += it->second.value;
        }
}

} // namespace dlt::ledger
