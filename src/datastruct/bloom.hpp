// Bloom filter for lightweight-client transaction filtering (the mechanism SPV
// wallets use to subscribe to relevant transactions without revealing exact
// addresses). k hash functions are derived from SHA-256 with distinct seeds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace dlt::datastruct {

class BloomFilter {
public:
    /// Create a filter with `bits` bits (rounded up to a byte) and `hashes`
    /// hash functions; both must be positive.
    BloomFilter(std::size_t bits, std::size_t hashes);

    /// Size the filter for an expected element count and target false-positive
    /// rate using the standard optimal formulas.
    static BloomFilter optimal(std::size_t expected_items, double fp_rate);

    void insert(ByteView item);
    /// No false negatives; false positives at roughly the configured rate.
    bool maybe_contains(ByteView item) const;

    /// Fraction of bits set; >0.5 means the filter is overloaded.
    double fill_ratio() const;

private:
    std::size_t bit_index(ByteView item, std::uint32_t seed) const;

    std::size_t bit_count_;
    std::size_t hash_count_;
    std::vector<std::uint8_t> bits_;
};

} // namespace dlt::datastruct
