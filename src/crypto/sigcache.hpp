// Bounded signature-verification cache, modeled on Bitcoin Core's sigcache: a
// process-wide memo of ECDSA verification outcomes keyed by a salted hash of
// (pubkey, message hash, signature). In the simulator every one of the N
// simulated nodes validates the same gossiped block, so without this cache the
// host pays for the same expensive verification N times; with it, the first
// node pays and the rest hit the cache. Negative outcomes (bad signatures,
// malformed keys) are cached too, so a block full of garbage is cheap to reject
// repeatedly. Observable behaviour is unchanged: verification is a pure
// function of (pubkey, msg_hash, sig).
//
// The cache is thread-safe and striped: the key space is split across
// kStripes independent (mutex, map, FIFO) shards selected by the low bits of
// the entry hash, so parallel validation workers hitting the cache contend
// only when they land on the same stripe. Hit/miss counters are atomics and
// never take a lock.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"

namespace dlt::crypto {

/// By-value snapshot of the counters. Taken with relaxed atomics, so under
/// concurrent use the fields are individually exact but not mutually atomic.
struct SigCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
};

/// Fixed-capacity map from entry key to verification outcome, split into
/// kStripes lock stripes. Each stripe evicts FIFO (oldest insertion first)
/// within its own share of the capacity; the entry key is a salted hash, so
/// keys spread uniformly across stripes.
class SigCache {
public:
    static constexpr std::size_t kDefaultCapacity = 1 << 16;
    static constexpr std::size_t kStripes = 16;

    /// When `registry` is given, the hit/miss/insert/evict tallies are the
    /// registry's sigcache_* counters (shared process-wide handles); otherwise
    /// the instance owns its counters. The global() cache registers; test
    /// instances default to private counters so their stats stay isolated.
    explicit SigCache(std::size_t capacity = kDefaultCapacity,
                      obs::MetricsRegistry* registry = nullptr);

    /// Salted digest binding the full verification question. Using a hash as
    /// the key bounds entry size regardless of input sizes.
    static Hash256 entry_key(ByteView pubkey, const Hash256& msg_hash, ByteView sig);

    /// Stripe an entry key lands in (exposed for the eviction tests).
    static std::size_t stripe_index(const Hash256& key) {
        return key.data[0] & (kStripes - 1);
    }

    /// Cached outcome for a key; counts a hit or miss.
    std::optional<bool> lookup(const Hash256& key);

    /// Record an outcome. A key already present is left untouched (outcomes are
    /// deterministic, so the stored value is necessarily identical).
    void insert(const Hash256& key, bool valid);

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    /// Entries a single stripe holds before evicting: max(1, capacity/kStripes).
    std::size_t stripe_capacity() const { return stripe_capacity_; }

    /// Drop all entries and reset the FIFOs; optionally change capacity.
    void clear();
    void set_capacity(std::size_t capacity);

    SigCacheStats stats() const;
    void reset_stats();

    /// The process-wide instance used by transaction validation.
    static SigCache& global();

private:
    struct Stripe {
        mutable std::mutex m;
        std::unordered_map<Hash256, bool> map;
        std::vector<Hash256> fifo; // ring buffer of inserted keys, oldest at head
        std::size_t head = 0;
    };

    std::size_t capacity_;
    std::size_t stripe_capacity_;
    Stripe stripes_[kStripes];
    /// Instance-owned fallback counters (used when no registry was given).
    struct OwnCounters {
        obs::Counter hits, misses, insertions, evictions;
    };
    OwnCounters own_;
    obs::Counter* hits_ = &own_.hits;
    obs::Counter* misses_ = &own_.misses;
    obs::Counter* insertions_ = &own_.insertions;
    obs::Counter* evictions_ = &own_.evictions;
};

/// Verify `sig64` (64-byte r||s) by `pubkey33` (compressed SEC1) over
/// `msg_hash`, consulting the global SigCache first. On a hit nothing is
/// decoded — point decompression is itself a field exponentiation, so cache
/// hits skip that cost too. Malformed inputs and high-s signatures (s > n/2)
/// verify as false (and the negative outcome is cached) instead of throwing.
/// Safe to call from CheckQueue workers: the cache is striped and the pubkey
/// memo takes a shared lock.
bool verify_signature_cached(ByteView pubkey33, const Hash256& msg_hash,
                             ByteView sig64);

/// One deferred signature check: the unit of work a CheckQueue batch carries.
/// Views must outlive the batch (they point into the transaction being
/// validated); the sighash is precomputed on the coordinating thread so the
/// call operator is a pure function safe to run on any worker.
struct SigCheckJob {
    ByteView pubkey;
    Hash256 msg_hash;
    ByteView sig;

    bool operator()() const { return verify_signature_cached(pubkey, msg_hash, sig); }
};

} // namespace dlt::crypto
