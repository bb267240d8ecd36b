#include "ledger/difficulty.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace dlt::ledger {

using crypto::U256;

U256 compact_to_target(std::uint32_t bits) {
    const std::uint32_t exponent = bits >> 24;
    const std::uint32_t mantissa = bits & 0x007FFFFF;
    U256 target(mantissa);
    if (exponent <= 3) {
        target = target >> (8 * (3 - exponent));
    } else {
        const unsigned shift = 8 * (exponent - 3);
        if (shift >= 256) return U256::zero();
        target = target << shift;
    }
    return target;
}

std::uint32_t target_to_compact(const U256& target) {
    if (target.is_zero()) return 0;
    int bits = target.highest_bit() + 1;
    int exponent = (bits + 7) / 8;
    std::uint32_t mantissa;
    if (exponent <= 3) {
        mantissa = static_cast<std::uint32_t>(target.low64() << (8 * (3 - exponent)));
    } else {
        mantissa = static_cast<std::uint32_t>(
            (target >> static_cast<unsigned>(8 * (exponent - 3))).low64());
    }
    // Avoid a set sign bit (Bitcoin quirk): bump the exponent instead.
    if (mantissa & 0x00800000) {
        mantissa >>= 8;
        ++exponent;
    }
    return (static_cast<std::uint32_t>(exponent) << 24) | (mantissa & 0x007FFFFF);
}

bool hash_meets_target(const Hash256& hash, const U256& target) {
    return U256::from_hash(hash) <= target;
}

U256 work_from_target(const U256& target) {
    // work = 2^256 / (target+1) computed as ((~target)/(target+1)) + 1 to stay
    // within 256 bits (same identity Bitcoin Core uses).
    bool carry = false;
    const U256 tplus1 = target.add(U256::one(), &carry);
    if (carry) return U256::one(); // target == 2^256-1: one unit of work
    const U256 not_target = U256::max() - target;
    return (not_target / tplus1) + U256::one();
}

U256 work_from_bits(std::uint32_t bits) { return work_from_target(compact_to_target(bits)); }

std::uint32_t retarget(std::uint32_t current_bits, double actual_interval_seconds,
                       const RetargetParams& params) {
    DLT_EXPECTS(actual_interval_seconds > 0);
    const double expected =
        params.target_spacing * static_cast<double>(params.interval_blocks);
    double ratio = actual_interval_seconds / expected;
    ratio = std::min(std::max(ratio, 1.0 / params.max_adjustment), params.max_adjustment);

    // new_target = old_target * ratio, via a 32.32 fixed-point multiplier.
    const U256 old_target = compact_to_target(current_bits);
    std::uint64_t carry = 0;
    const U256 low =
        old_target.mul_u64(static_cast<std::uint64_t>(ratio * 4294967296.0), &carry);
    const U256 pow_limit = U256::max() >> params.min_difficulty_bits;
    U256 new_target;
    if ((carry >> 32) != 0) {
        // True result >= 2^256: saturate at the easiest permitted target.
        new_target = pow_limit;
    } else {
        new_target = (low >> 32) | (U256(carry) << (256 - 32));
    }
    if (new_target.is_zero()) new_target = U256::one();
    if (new_target > pow_limit) new_target = pow_limit; // never easier than limit
    return target_to_compact(new_target);
}

std::uint32_t easy_bits(unsigned difficulty_bits) {
    DLT_EXPECTS(difficulty_bits < 250);
    const U256 target = U256::max() >> difficulty_bits;
    return target_to_compact(target);
}

} // namespace dlt::ledger
