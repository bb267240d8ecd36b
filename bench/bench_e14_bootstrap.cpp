// E14 — §5.4 (bootstrap): joining peers should not need the full chain.
// Compares full initial block download vs checkpoint sync (headers + UTXO
// snapshot + recent blocks) across chain lengths.

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "consensus/nakamoto.hpp"
#include "scaling/bootstrap.hpp"
#include "storage/file.hpp"
#include "storage/snapshot.hpp"

using namespace dlt;
using namespace dlt::scaling;

int main() {
    bench::Run bench_run("E14");
    bench::ObsEnv obs_env;
    bench::title("E14: new-peer bootstrap (§5.4)",
                 "Claim: checkpoint sync downloads a fraction of the full chain "
                 "and fully validates only the recent suffix.");

    bench::Table table({"chain-blocks", "full-bytes", "ckpt-bytes", "ratio",
                        "full-validated-blocks", "ckpt-validated-blocks"});

    for (const int target_blocks : {100, 400, 1200}) {
        consensus::NakamotoParams params;
        params.node_count = 4;
        params.block_interval = 10.0;
        params.validation.sig_mode = ledger::SigCheckMode::kSkip;
        consensus::NakamotoNetwork net(params, 1400 + target_blocks);
        net.start();
        // Carry a real transaction load (~20 txs/block) so blocks have body:
        // bootstrap cost is about data, not bare headers.
        Rng workload(9 + target_blocks);
        const double duration = 10.0 * target_blocks;
        std::uint64_t seq = 0;
        double next = workload.exponential(2.0);
        while (next < duration) {
            net.run_for(next - net.now());
            ledger::Transaction tx;
            tx.kind = ledger::TxKind::kRecord;
            tx.nonce = seq++;
            tx.data = Bytes(200, 0xCD);
            tx.declared_fee = 10;
            net.submit_transaction(tx, static_cast<net::NodeId>(workload.uniform(4)));
            next += workload.exponential(2.0);
        }
        net.run_for(duration - net.now());

        const auto& chain = net.chain_of(0);
        const Hash256 tip = net.tip_of(0);
        const auto path = chain.path_from_genesis(tip);
        const std::uint64_t cp_height =
            path.size() > 20 ? path.size() - 11 : path.size() / 2;
        const Checkpoint cp = make_checkpoint(chain, tip, cp_height, net.utxo_of(0));

        const BootstrapCost full = full_sync_cost(chain, tip);
        const BootstrapCost fast = checkpoint_sync_cost(chain, tip, cp);

        // Persistency integration (E21): round-trip the checkpoint through an
        // on-disk snapshot; serving it from disk must cost exactly the same.
        {
            const storage::TempDir snap_dir("bench-e14-" + std::to_string(target_blocks));
            storage::SnapshotManager snapshots(snap_dir.path);
            storage::Snapshot snap;
            snap.height = cp.height;
            snap.block_hash = cp.block_hash;
            snap.digest = cp.snapshot_digest;
            snap.utxo_snapshot = cp.utxo_snapshot;
            snapshots.save(snap);
            const Checkpoint from_disk = snapshots.load_latest()->to_checkpoint();
            const BootstrapCost disk_cost = checkpoint_sync_cost(chain, tip, from_disk);
            if (disk_cost.bytes_downloaded != fast.bytes_downloaded ||
                disk_cost.blocks_processed != fast.blocks_processed ||
                disk_cost.headers_processed != fast.headers_processed)
                std::printf("!! disk-snapshot checkpoint cost diverges at %d blocks\n",
                            target_blocks);
        }

        table.row({bench::fmt_int(path.size()),
                   bench::fmt_int(full.bytes_downloaded),
                   bench::fmt_int(fast.bytes_downloaded),
                   bench::fmt(static_cast<double>(fast.bytes_downloaded) /
                                  static_cast<double>(full.bytes_downloaded),
                              3),
                   bench::fmt_int(full.blocks_processed),
                   bench::fmt_int(fast.blocks_processed)});
    }
    table.print();

    std::printf("\nExpected shape: the checkpoint ratio falls as the chain grows "
                "(the snapshot amortizes history); validated blocks stay constant "
                "(~10 recent) versus the whole chain for full sync.\n");
    return 0;
}
