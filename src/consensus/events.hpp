// Per-peer chain observer hooks, shared by every block-organized consensus
// family (the Nakamoto engine, the DAG ledger).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "ledger/block.hpp"

namespace dlt::consensus {

/// Pure-observer callbacks fired on one peer's chain events. The analytics
/// layer's ReorgMonitor feeds from these instead of re-walking the chain
/// store per query. Callbacks must not mutate consensus state — the
/// determinism contract of src/obs applies.
///
/// For the DAG ledger the same hooks observe the *linearized* order: `height`
/// is the block's position in the GHOSTDAG total order, and a "reorg" is a
/// re-linearization (late-arriving parallel blocks reshuffling the suffix).
struct ChainEvents {
    /// A block entered the observed peer's store (any branch), at virtual time `at`.
    std::function<void(const ledger::Block&, SimTime at)> on_block_inserted;
    /// The observed peer's tip moved: `disconnected` (tip-first) left the
    /// active chain, `connected` (oldest-first) joined it. Fires on every tip
    /// change; an empty `disconnected` is an extension.
    std::function<void(const std::vector<Hash256>& disconnected,
                       const std::vector<Hash256>& connected, SimTime at)>
        on_reorg;
    /// The observed peer's active tip after every successful update.
    std::function<void(const Hash256& tip, std::uint64_t height, SimTime at)>
        on_tip_changed;
};

} // namespace dlt::consensus
