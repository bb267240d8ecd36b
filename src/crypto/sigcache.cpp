#include "crypto/sigcache.hpp"

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/error.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace dlt::crypto {

SigCache::SigCache(std::size_t capacity, obs::MetricsRegistry* registry) {
    if (registry != nullptr) {
        hits_ = &registry->counter("sigcache_hits_total",
                                   "Signature-cache lookup hits");
        misses_ = &registry->counter("sigcache_misses_total",
                                     "Signature-cache lookup misses");
        insertions_ = &registry->counter("sigcache_insertions_total",
                                         "Signature-cache entries inserted");
        evictions_ = &registry->counter("sigcache_evictions_total",
                                        "Signature-cache FIFO evictions");
    }
    set_capacity(capacity);
}

Hash256 SigCache::entry_key(ByteView pubkey, const Hash256& msg_hash, ByteView sig) {
    Bytes preimage;
    preimage.reserve(pubkey.size() + msg_hash.size() + sig.size());
    preimage.insert(preimage.end(), pubkey.begin(), pubkey.end());
    preimage.insert(preimage.end(), msg_hash.data.begin(), msg_hash.data.end());
    preimage.insert(preimage.end(), sig.begin(), sig.end());
    return tagged_hash("dlt/sigcache", preimage);
}

std::optional<bool> SigCache::lookup(const Hash256& key) {
    Stripe& stripe = stripes_[stripe_index(key)];
    std::lock_guard lock(stripe.m);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) {
        misses_->inc();
        return std::nullopt;
    }
    hits_->inc();
    return it->second;
}

void SigCache::insert(const Hash256& key, bool valid) {
    Stripe& stripe = stripes_[stripe_index(key)];
    std::lock_guard lock(stripe.m);
    if (stripe.map.size() >= stripe_capacity_ &&
        stripe.map.find(key) == stripe.map.end()) {
        // Evict the stripe's oldest insertion to make room.
        stripe.map.erase(stripe.fifo[stripe.head]);
        stripe.fifo[stripe.head] = key; // reuse the ring slot for the newcomer
        stripe.head = (stripe.head + 1) % stripe.fifo.size();
        stripe.map.emplace(key, valid);
        evictions_->inc();
        insertions_->inc();
        return;
    }
    if (stripe.map.emplace(key, valid).second) {
        stripe.fifo.push_back(key);
        insertions_->inc();
    }
}

std::size_t SigCache::size() const {
    std::size_t total = 0;
    for (const Stripe& stripe : stripes_) {
        std::lock_guard lock(stripe.m);
        total += stripe.map.size();
    }
    return total;
}

void SigCache::clear() {
    for (Stripe& stripe : stripes_) {
        std::lock_guard lock(stripe.m);
        stripe.map.clear();
        stripe.fifo.clear();
        stripe.head = 0;
    }
}

void SigCache::set_capacity(std::size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    stripe_capacity_ = capacity_ / kStripes;
    if (stripe_capacity_ == 0) stripe_capacity_ = 1;
    clear();
    for (Stripe& stripe : stripes_) {
        std::lock_guard lock(stripe.m);
        stripe.map.reserve(stripe_capacity_);
        stripe.fifo.reserve(stripe_capacity_);
    }
}

SigCacheStats SigCache::stats() const {
    SigCacheStats s;
    s.hits = hits_->value();
    s.misses = misses_->value();
    s.insertions = insertions_->value();
    s.evictions = evictions_->value();
    return s;
}

void SigCache::reset_stats() {
    hits_->reset();
    misses_->reset();
    insertions_->reset();
    evictions_->reset();
}

SigCache& SigCache::global() {
    static SigCache cache(kDefaultCapacity, &obs::MetricsRegistry::global());
    return cache;
}

namespace {

// Decompressing a SEC1 key costs a field square root, and the simulator reuses
// a handful of signer keys across thousands of signatures — memoize the decode.
// Decoding is pure, so this is invisible apart from the saved work. Entries
// are shared_ptr so a caller's point stays alive across the rare full clear;
// reads take the shared lock and run concurrently.
std::shared_ptr<const secp256k1::Point> decode_pubkey_memoized(ByteView pubkey33) {
    static std::shared_mutex memo_mutex;
    static std::unordered_map<std::string, std::shared_ptr<const secp256k1::Point>> memo;
    constexpr std::size_t kMaxEntries = 1 << 12;

    std::string key(reinterpret_cast<const char*>(pubkey33.data()), pubkey33.size());
    {
        std::shared_lock lock(memo_mutex);
        if (const auto it = memo.find(key); it != memo.end()) return it->second;
    }
    // Decode outside any lock: several threads may race to decode the same
    // key, but decoding is pure and the first emplace wins.
    auto point = std::make_shared<const secp256k1::Point>(
        secp256k1::decode_compressed(pubkey33));
    std::unique_lock lock(memo_mutex);
    if (memo.size() >= kMaxEntries) memo.clear(); // rare; refills immediately
    return memo.emplace(std::move(key), std::move(point)).first->second;
}

} // namespace

bool verify_signature_cached(ByteView pubkey33, const Hash256& msg_hash,
                             ByteView sig64) {
    SigCache& cache = SigCache::global();
    const Hash256 key = SigCache::entry_key(pubkey33, msg_hash, sig64);
    if (const auto cached = cache.lookup(key)) return *cached;

    bool valid = false;
    try {
        const auto pubkey = decode_pubkey_memoized(pubkey33);
        const auto sig = secp256k1::Signature::decode(sig64);
        // Low s only (BIP-146 LOW_S): the twin (r, n - s) verifies too, and
        // since txids cover signatures it would give a spend a second id.
        valid = sig.s <= (secp256k1::group_order() >> 1) &&
                secp256k1::verify(*pubkey, msg_hash, sig);
    } catch (const CryptoError&) {
        valid = false; // malformed key or signature: definitively invalid
    }
    cache.insert(key, valid);
    return valid;
}

} // namespace dlt::crypto
