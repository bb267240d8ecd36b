// Consensus-agnostic block validation rules (the "System layer" checks every
// peer runs before accepting a block, §2.2/§2.4): structural limits, Merkle
// root integrity, coinbase policy, and signature checking policy; plus the
// block builder every engine produces its blocks with.
#pragma once

#include <cstdint>
#include <optional>

#include "ledger/block.hpp"
#include "ledger/mempool.hpp"
#include "ledger/utxo.hpp"

namespace dlt::ledger {

/// How thoroughly to check signatures. Full ECDSA on every input reproduces
/// real node behaviour; kSkip lets throughput experiments isolate consensus
/// costs from our (intentionally unoptimized) bignum arithmetic — DESIGN.md
/// records this as a measurement knob, not a protocol change.
enum class SigCheckMode { kFull, kSkip };

struct ValidationRules {
    std::size_t max_block_bytes = 1'000'000; // the 1 MB limit behind "7 tps"
    std::size_t max_txs_per_block = 50'000;
    SigCheckMode sig_mode = SigCheckMode::kFull;
    bool require_coinbase = true;
};

/// Structural checks that need no chain context: size, Merkle root, coinbase
/// placement, signatures (per `rules.sig_mode`). Throws ValidationError.
/// With kFull and a non-serial global thread pool, all signature checks in
/// the block are verified as one CheckQueue batch: the coordinating thread
/// gathers per-input jobs (overlapping with the workers already verifying)
/// and joins at the end. The accept/reject outcome is identical to the serial
/// loop; only which defect is *reported first* can differ on a block with
/// several independent defects.
void check_block_structure(const Block& block, const ValidationRules& rules);

/// Verify the signatures of every transaction as one parallel batch — the
/// conjunction of tx.verify_signatures() over `txs`, computed on the global
/// pool when it has workers. Used by ordering services that pre-verify client
/// batches before sequencing them.
bool verify_batch_signatures(const std::vector<Transaction>& txs);

/// Full contextual check against the parent-chain UTXO set: applies every
/// transaction, enforces the subsidy ceiling (subsidy + fees), and returns the
/// undo data. Throws ValidationError; the UTXO set is unchanged on failure.
UtxoUndo connect_block(const Block& block, UtxoSet& utxo,
                       const ValidationRules& rules);

/// Block production for every engine (§2.2, Fig. 2). `header` is the
/// engine's (parents, height, timestamp, bits, nonce, proposer). Expires the
/// pool at the header's timestamp, takes its template within `max_txs` and
/// `max_bytes` less 512 (room for header and coinbase), and keeps each
/// candidate that still applies in order on `state`, skipping stale ones.
/// The coinbase pays the proposer the subsidy plus the kept fees, its nonce
/// set to `coinbase_nonce` when given. The walk reads `state` only through
/// UtxoSet::fetch_inputs, so the live state is never copied.
Block build_block(const BlockHeader& header, Mempool& mempool, const UtxoSet& state,
                  std::size_t max_bytes, std::size_t max_txs,
                  std::optional<std::uint64_t> coinbase_nonce = std::nullopt);

} // namespace dlt::ledger
