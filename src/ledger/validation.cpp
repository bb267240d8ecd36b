#include "ledger/validation.hpp"

#include <optional>

#include "common/checkqueue.hpp"
#include "common/error.hpp"
#include "crypto/sigcache.hpp"
#include "obs/metrics.hpp"

namespace dlt::ledger {

namespace {

// CheckQueue lives in src/common (which obs depends on), so the queue is
// instrumented here at its call sites rather than inside the template.
struct ValidationMetrics {
    obs::Histogram& batch_jobs;     // signature jobs per CheckQueue batch
    obs::Histogram& verify_seconds; // wall-clock per parallel verification
    obs::Counter& blocks_checked;

    static ValidationMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static ValidationMetrics m{
            registry.histogram("validation_batch_jobs",
                               "Signature-check jobs queued per batch",
                               {1.0, 2.0, 16}),
            registry.histogram("validation_verify_seconds",
                               "Wall-clock latency of parallel batch verification"),
            registry.counter("validation_blocks_checked_total",
                             "Blocks run through structural validation")};
        return m;
    }
};

} // namespace

void check_block_structure(const Block& block, const ValidationRules& rules) {
    if (block.serialized_size() > rules.max_block_bytes)
        throw ValidationError("block exceeds size limit");
    if (block.txs.size() > rules.max_txs_per_block)
        throw ValidationError("block exceeds transaction count limit");
    if (block.header.merkle_root != block.compute_merkle_root())
        throw ValidationError("merkle root mismatch");

    if (rules.require_coinbase && block.header.height > 0) {
        if (block.txs.empty() || !block.txs.front().is_coinbase())
            throw ValidationError("first transaction must be coinbase");
    }

    const bool check_sigs = rules.sig_mode == SigCheckMode::kFull;
    // One queue for the whole block: workers verify earlier transactions'
    // signatures while this thread is still gathering jobs from later ones
    // (Bitcoin's CCheckQueue shape). Structural defects (missing signature)
    // still throw at their position; EC outcomes join at complete().
    const bool parallel = check_sigs && ThreadPool::global().worker_count() > 0;
    CheckQueue<crypto::SigCheckJob> queue;
    ValidationMetrics& metrics = ValidationMetrics::get();
    metrics.blocks_checked.inc();
    std::optional<obs::ScopedTimer> timer;
    if (parallel) timer.emplace(metrics.verify_seconds);

    std::uint64_t queued_jobs = 0;
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        const auto& tx = block.txs[i];
        if (tx.is_coinbase() && i != 0)
            throw ValidationError("coinbase beyond first position");
        if (!check_sigs || tx.is_coinbase()) continue;
        if (parallel) {
            std::vector<crypto::SigCheckJob> jobs;
            if (!tx.collect_signature_checks(jobs))
                throw ValidationError("bad transaction signature");
            queued_jobs += jobs.size();
            queue.add(std::move(jobs));
        } else if (!tx.verify_signatures()) {
            throw ValidationError("bad transaction signature");
        }
    }
    if (parallel) {
        metrics.batch_jobs.record(static_cast<double>(queued_jobs));
        if (!queue.complete()) throw ValidationError("bad transaction signature");
    }
}

bool verify_batch_signatures(const std::vector<Transaction>& txs) {
    ThreadPool& pool = ThreadPool::global();
    if (pool.worker_count() == 0) {
        for (const auto& tx : txs)
            if (!tx.verify_signatures()) return false;
        return true;
    }
    CheckQueue<crypto::SigCheckJob> queue(pool);
    ValidationMetrics& metrics = ValidationMetrics::get();
    obs::ScopedTimer timer(metrics.verify_seconds);
    bool structurally_ok = true;
    std::uint64_t queued_jobs = 0;
    for (const auto& tx : txs) {
        std::vector<crypto::SigCheckJob> jobs;
        if (!tx.collect_signature_checks(jobs)) {
            structurally_ok = false;
            break; // the batch already fails; stop gathering
        }
        queued_jobs += jobs.size();
        queue.add(std::move(jobs));
    }
    metrics.batch_jobs.record(static_cast<double>(queued_jobs));
    // Always join, even on structural failure, so in-flight checks drain.
    const bool sigs_ok = queue.complete();
    return structurally_ok && sigs_ok;
}

UtxoUndo connect_block(const Block& block, UtxoSet& utxo,
                       const ValidationRules& rules) {
    check_block_structure(block, rules);

    UtxoUndo undo;
    Amount total_fees = 0;
    try {
        for (const auto& tx : block.txs) total_fees += utxo.check_and_apply(tx, undo);

        if (rules.require_coinbase && block.header.height > 0 && !block.txs.empty() &&
            block.txs.front().is_coinbase()) {
            Amount claimed = 0;
            for (const auto& out : block.txs.front().outputs) claimed += out.value;
            const Amount ceiling = block_subsidy(block.header.height) + total_fees;
            if (claimed > ceiling)
                throw ValidationError("coinbase claims more than subsidy plus fees");
        }
    } catch (...) {
        utxo.undo_block(undo);
        throw;
    }
    return undo;
}

Block build_block(const BlockHeader& header, Mempool& mempool, const UtxoSet& state,
                  std::size_t max_bytes, std::size_t max_txs,
                  std::optional<std::uint64_t> coinbase_nonce) {
    mempool.expire(header.timestamp);
    const std::size_t budget = max_bytes > 512 ? max_bytes - 512 : max_bytes;
    const auto candidates = mempool.build_template(budget, max_txs);
    UtxoSet coins;
    for (const auto& entry : candidates) coins.fetch_inputs(state, *entry.tx);

    Block block;
    block.header = header;
    block.txs.emplace_back(); // the coinbase, once the fees are known
    UtxoUndo undo;
    Amount fees = 0;
    for (const auto& entry : candidates) {
        try {
            fees += coins.check_and_apply(*entry.tx, undo);
            block.txs.push_back(*entry.tx);
        } catch (const ValidationError&) {
            // Stale on this branch; skip it.
        }
    }
    Transaction& coinbase = block.txs.front();
    coinbase = make_coinbase(header.proposer, block_subsidy(header.height) + fees,
                             header.height);
    if (coinbase_nonce) coinbase.nonce = *coinbase_nonce;
    block.header.merkle_root = block.compute_merkle_root();
    return block;
}

} // namespace dlt::ledger
