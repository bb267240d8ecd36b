// Transaction-graph taint analysis (paper §5.3: "it is still possible to trace
// users based on their activity, which is fully exposed since every transaction
// is recorded"; "some coins might be linked to addresses known to be used for
// fraudulent activities"). Walks UTXO ancestry to compute the plausible-origin
// set of any output — the quantity mixers exist to inflate (E12).
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ledger/block.hpp"
#include "ledger/outpoint_hash.hpp"
#include "ledger/transaction.hpp"

namespace dlt::privacy {

/// Shared strengthened hash (was a third copy of the weak xor-fold functor).
using OutPointHash = ledger::OutPointHash;

using OutPointSet = std::unordered_set<ledger::OutPoint, OutPointHash>;

class TaintAnalyzer {
public:
    /// Index a confirmed transaction (call in chain order).
    void add_transaction(const ledger::Transaction& tx);
    void add_block(const ledger::Block& block);

    /// All coinbase/root outputs from which value could have flowed into `op`
    /// (the output's plausible-origin set). An output of a multi-input
    /// transaction inherits every input's origins — exactly why CoinJoin mixing
    /// grows this set.
    OutPointSet origins_of(const ledger::OutPoint& op) const;

    /// |origins_of(op)| — the anonymity-set size E12 reports.
    std::size_t anonymity_set_size(const ledger::OutPoint& op) const;

    /// Fraction of `op`'s origins that appear in `tainted_roots` (e.g. outputs
    /// of known-fraudulent coinbases). 0 = provably clean lineage, 1 = fully
    /// tainted — the paper's fungibility concern quantified.
    double taint_fraction(const ledger::OutPoint& op,
                          const OutPointSet& tainted_roots) const;

    /// True when `op` descends only from a single origin (perfectly traceable).
    bool fully_traceable(const ledger::OutPoint& op) const;

private:
    // txid -> the outpoints its inputs spent (empty for coinbase roots).
    std::unordered_map<Hash256, std::vector<ledger::OutPoint>> tx_inputs_;
};

} // namespace dlt::privacy
