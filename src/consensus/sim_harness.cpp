#include "consensus/sim_harness.hpp"

#include "common/assert.hpp"
#include "common/serialize.hpp"
#include "obs/trace.hpp"

namespace dlt::consensus {

using net::NodeId;
using net::transport::PeerId;

SimHarness::SimHarness(std::uint64_t seed, std::size_t node_count,
                       std::size_t overlay_degree, const net::LinkParams& link,
                       const ledger::MempoolConfig& mempool, std::uint64_t finality_depth,
                       const std::string& chain_tag)
    : rng_(seed),
      network_(std::make_unique<net::Network>(scheduler_, rng_.fork(0xA))),
      hub_(std::make_unique<net::transport::SimTransportHub>(*network_, node_count)),
      lifecycle_(finality_depth, &obs::Tracer::global()) {
    DLT_EXPECTS(node_count >= 2);
    network_->build_unstructured_overlay(overlay_degree, link);
    hub_->set_send_filter([this](PeerId from, PeerId to, const std::string& topic) {
        return !relay_filter_ || (topic != "tx" && topic != "blk") ||
               relay_filter_(from, to, topic);
    });
    for (NodeId id = 0; id < node_count; ++id) {
        txs_.emplace_back(hub_->endpoint(id), mempool, &lifecycle_);
        miners_.push_back(
            crypto::PrivateKey::from_seed(chain_tag + "/miner/" + std::to_string(id))
                .address());
    }
    // Peer 0 is the observed replica: its mempool drops become explicit
    // lifecycle terminal events (reasons share the enumeration order).
    txs_.front().mempool().set_drop_observer(
        [this](const Hash256& txid, ledger::MempoolDropReason reason, SimTime at) {
            lifecycle_.on_dropped(
                txid, 0, at,
                static_cast<obs::TxDropReason>(static_cast<std::uint8_t>(reason)));
        });
}

void SimHarness::run_for(SimDuration duration) {
    scheduler_.run_until(scheduler_.now() + duration);
}

void SimHarness::submit_transaction(const ledger::Transaction& tx, NodeId origin) {
    lifecycle_.on_submitted(tx.txid(), scheduler_.now(), origin);
    txs_.at(origin).submit(tx);
}

const ledger::Mempool& SimHarness::mempool_of(NodeId node) const {
    return txs_.at(node).mempool();
}

void SimHarness::push_block(NodeId from, NodeId to, const ledger::Block& block) {
    hub_->endpoint(from).send(to, "blkreply", ByteView(encode_to_bytes(block)));
}

} // namespace dlt::consensus
