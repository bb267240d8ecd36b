// Proof-of-work difficulty machinery: Bitcoin's compact "nBits" target encoding,
// target <-> work conversion, the hash-under-target check, and the periodic
// retargeting rule that holds the block interval constant as hash power grows —
// the mechanism behind the paper's observation (§2.7) that Bitcoin's throughput
// stays flat no matter how much mining power joins.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/uint256.hpp"

namespace dlt::ledger {

/// Decode Bitcoin compact form (exponent byte + 23-bit mantissa) to a target.
crypto::U256 compact_to_target(std::uint32_t bits);

/// Encode a target into compact form (lossy: mantissa truncation, as in Bitcoin).
std::uint32_t target_to_compact(const crypto::U256& target);

/// True when `hash` interpreted as a big-endian 256-bit integer is <= target.
bool hash_meets_target(const Hash256& hash, const crypto::U256& target);

/// Expected work to find one block at `target`: 2^256 / (target+1).
crypto::U256 work_from_target(const crypto::U256& target);

/// The work a block with compact difficulty `bits` adds to its chain; every
/// chain index weighs blocks by it.
crypto::U256 work_from_bits(std::uint32_t bits);

/// Retargeting parameters.
struct RetargetParams {
    std::uint64_t interval_blocks = 2016;     // blocks between adjustments
    double target_spacing = 600.0;            // desired seconds per block
    double max_adjustment = 4.0;              // clamp factor per retarget
    /// Easiest permitted target (the chain's "pow limit"): max >> this.
    unsigned min_difficulty_bits = 1;
};

/// Compute the next compact target given the actual time the last interval took.
std::uint32_t retarget(std::uint32_t current_bits, double actual_interval_seconds,
                       const RetargetParams& params);

/// A permissive target for tests and low-difficulty mining demos: roughly one
/// valid nonce per 2^difficulty_bits hashes.
std::uint32_t easy_bits(unsigned difficulty_bits);

} // namespace dlt::ledger
