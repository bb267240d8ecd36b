// In-process stage replay (traced runs of the cluster workloads): one
// replica's per-block pipeline on the same seeded state and trace, each call
// into a layer timed on its own. It is the single-node baseline for the
// cluster's consensus numbers and names the stage that dominates a block.
//
// Per request:  frame decode + Transaction decode (the RPC path),
//               Mempool::admit, encode_message_frame (the relay).
// Per block:    build_template -> UtxoSet copy -> check_and_apply ->
//               check_block_structure -> PersistentNode::connect_block ->
//               remove_confirmed, mirroring Replica::assemble_block and the
//               PBFT execute path; then BlockStore::append, Wal::append and
//               UtxoSet::commit on scratch instances.
#include "common.hpp"
#include "common/serialize.hpp"
#include "core/persistent_node.hpp"
#include "core/replica.hpp"
#include "crypto/keys.hpp"
#include "ledger/amount.hpp"
#include "ledger/mempool.hpp"
#include "ledger/validation.hpp"
#include "net/transport/frame.hpp"
#include "obs/export.hpp"
#include "storage/blockstore.hpp"
#include "storage/lsm_backend.hpp"
#include "storage/wal.hpp"

namespace perfbench {

using namespace dlt;

namespace {

/// Track id of replay spans in the trace (the cluster uses 0..n).
constexpr std::uint32_t kReplayTrack = 100;

/// Time one call, record its seconds in `into`, and emit a span.
template <typename Fn>
auto timed(const char* name, std::vector<double>& into, Fn&& fn) {
    const double begin = now_s();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
        fn();
        const double end = now_s();
        into.push_back(end - begin);
        span(name, begin, end, kReplayTrack);
    } else {
        auto result = fn();
        const double end = now_s();
        into.push_back(end - begin);
        span(name, begin, end, kReplayTrack);
        return result;
    }
}

} // namespace

std::string replay_pipeline(const fs::path& seed_dir, const fs::path& scratch,
                            const std::vector<TraceEntry>& trace) {
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    copy_dir(seed_dir, scratch / "node");
    copy_dir(seed_dir / "state", scratch / "commit-state");

    // The daemon's configuration: LSM state, no fsync, signatures skipped.
    core::PersistentNodeOptions node_options;
    node_options.state_engine = core::StateEngine::kPersistent;
    node_options.fsync = storage::FsyncMode::kNever;
    core::PersistentNode node(scratch / "node", ledger::make_genesis(kChainTag, kGenesisBits),
                              node_options);
    const core::ReplicaConfig replica_defaults;
    ledger::ValidationRules rules;
    rules.max_block_bytes = replica_defaults.max_block_bytes;
    rules.max_txs_per_block = replica_defaults.max_block_txs;
    rules.sig_mode = replica_defaults.sig_mode;
    ledger::Mempool mempool(replica_defaults.mempool);

    storage::BlockStoreOptions store_options;
    store_options.fsync = storage::FsyncMode::kNever;
    storage::BlockStore store(scratch / "store", store_options);
    storage::WalOptions wal_options;
    wal_options.fsync = storage::FsyncMode::kNever;
    storage::Wal wal(scratch / "wal.log", wal_options);
    storage::LsmOptions lsm_options;
    lsm_options.fsync = storage::FsyncMode::kNever;
    auto backend = std::make_unique<storage::LsmBackend>(scratch / "commit-state", lsm_options);
    std::uint64_t commit_tag = backend->committed_tag();
    ledger::UtxoSet commit_state(std::move(backend));

    std::vector<double> decode_s, admit_s, encode_s;
    std::vector<double> select_s, copy_s, apply_s, check_s, connect_s, remove_s;
    std::vector<double> store_s, wal_s, commit_s;
    std::uint64_t block_txs = 0;
    const crypto::Address proposer =
        crypto::PrivateKey::from_seed(std::string(kChainTag) + "/miner/0").address();

    // Returns the number of transactions the block confirmed.
    const auto cut_block = [&]() -> std::size_t {
        const std::size_t budget = rules.max_block_bytes - 512;
        const auto candidates = timed("replay.build_template", select_s, [&] {
            return mempool.build_template(budget, rules.max_txs_per_block);
        });
        ledger::UtxoSet applied =
            timed("replay.utxo_copy", copy_s, [&] { return ledger::UtxoSet(node.utxo()); });
        ledger::UtxoUndo undo;
        ledger::Block block;
        timed("replay.check_and_apply", apply_s, [&] {
            ledger::Amount fees = 0;
            std::vector<ledger::Transaction> chosen;
            for (const auto& entry : candidates) {
                try {
                    fees += applied.check_and_apply(*entry.tx, undo);
                    chosen.push_back(*entry.tx);
                } catch (const ValidationError&) {
                }
            }
            block.header.prev_hash = node.tip();
            block.header.height = node.height() + 1;
            block.header.bits = kGenesisBits;
            block.header.proposer = proposer;
            block.txs.push_back(ledger::make_coinbase(
                proposer, ledger::block_subsidy(block.header.height) + fees,
                block.header.height));
            for (auto& tx : chosen) block.txs.push_back(std::move(tx));
            block.header.merkle_root = block.compute_merkle_root();
        });
        timed("replay.check_block_structure", check_s,
              [&] { ledger::check_block_structure(block, rules); });
        timed("replay.connect_block", connect_s, [&] { node.connect_block(block); });
        std::vector<Hash256> ids;
        for (const auto& tx : block.txs)
            if (!tx.is_coinbase()) ids.push_back(tx.txid());
        block_txs += ids.size();
        timed("replay.remove_confirmed", remove_s, [&] { mempool.remove_confirmed(ids); });

        timed("replay.blockstore_append", store_s, [&] { store.append(block, undo); });
        Writer record;
        record.fixed(block.hash());
        timed("replay.wal_append", wal_s, [&] { wal.append(1, ByteView(record.data())); });
        commit_state.apply_block(block);
        Writer meta;
        meta.fixed(block.hash());
        meta.u64(block.header.height);
        timed("replay.state_commit", commit_s,
              [&] { commit_state.commit(++commit_tag, ByteView(meta.data())); });
        return ids.size();
    };

    double next_cut = kBlockInterval;
    for (const TraceEntry& e : trace) {
        while (e.at >= next_cut) {
            if (!mempool.empty()) cut_block();
            next_cut += kBlockInterval;
        }
        const Bytes wire =
            net::transport::encode_message_frame("submit", ByteView(encode_to_bytes(e.tx)));
        auto tx = timed("replay.rpc_decode", decode_s, [&] {
            net::transport::FrameDecoder decoder;
            decoder.feed(ByteView(wire));
            const auto frame = decoder.next();
            if (!frame) throw Error("perfbench: replay frame did not decode");
            const auto msg = net::transport::decode_message_payload(ByteView(frame->payload));
            return decode_from_bytes<ledger::Transaction>(ByteView(msg.body));
        });
        const Bytes body = encode_to_bytes(tx);
        timed("replay.mempool_admit", admit_s, [&] { return mempool.admit(tx, e.at); });
        timed("replay.frame_encode", encode_s, [&] {
            return net::transport::encode_message_frame("tx", ByteView(body));
        });
    }
    while (!mempool.empty())
        if (cut_block() == 0) throw Error("perfbench: replay mempool holds unminable txs");

    obs::JsonObjectWriter j;
    j.field_uint("requests", trace.size());
    j.field_uint("blocks", select_s.size());
    j.field_uint("block_txs", block_txs);
    const std::pair<const char*, const std::vector<double>*> stages[] = {
        {"rpc_decode_s", &decode_s},         {"mempool_admit_s", &admit_s},
        {"frame_encode_s", &encode_s},       {"template_select_s", &select_s},
        {"utxo_copy_s", &copy_s},            {"template_apply_s", &apply_s},
        {"block_check_s", &check_s},         {"connect_block_s", &connect_s},
        {"remove_confirmed_s", &remove_s},   {"blockstore_append_s", &store_s},
        {"wal_append_s", &wal_s},            {"state_commit_s", &commit_s}};
    for (const auto& [name, samples] : stages) j.field_raw(name, json_list(*samples));
    return j.str();
}

} // namespace perfbench
