#include "crypto/sha256.hpp"

#include <array>
#include <atomic>
#include <cstring>

namespace dlt::crypto {

namespace {
constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// Padding block for a message of exactly 64 bytes: 0x80, zeros, then the
/// 512-bit length in big-endian — a compile-time constant, so the 64-byte
/// fast paths skip all padding bookkeeping.
constexpr std::array<std::uint8_t, 64> make_pad64() {
    std::array<std::uint8_t, 64> p{};
    p[0] = 0x80;
    p[62] = 0x02; // 512 = 0x0200 bits, big-endian in bytes 56..63
    return p;
}
constexpr std::array<std::uint8_t, 64> kPad64Array = make_pad64();
constexpr const std::uint8_t* kPad64 = kPad64Array.data();

void write_be32(std::uint8_t* out, std::uint32_t v) {
    out[0] = static_cast<std::uint8_t>(v >> 24);
    out[1] = static_cast<std::uint8_t>(v >> 16);
    out[2] = static_cast<std::uint8_t>(v >> 8);
    out[3] = static_cast<std::uint8_t>(v);
}

Hash256 digest_of(const std::uint32_t state[8]) {
    Hash256 digest;
    for (int i = 0; i < 8; ++i) write_be32(&digest[4 * static_cast<std::size_t>(i)], state[i]);
    return digest;
}

} // namespace

namespace detail {

void sha256_transform_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                             std::size_t nblocks) {
    for (std::size_t blk = 0; blk < nblocks; ++blk, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (std::uint32_t(blocks[4 * i]) << 24) |
                   (std::uint32_t(blocks[4 * i + 1]) << 16) |
                   (std::uint32_t(blocks[4 * i + 2]) << 8) |
                   std::uint32_t(blocks[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

namespace {

Sha256Transform pick_transform() {
    if (const Sha256Transform shani = sha256_transform_shani()) return shani;
    return &sha256_transform_scalar;
}

// The active transform. Relaxed ordering is fine: both candidates compute the
// same function, so readers that race a force_scalar() toggle still hash
// correctly — only the backend choice is approximate during the switch.
std::atomic<Sha256Transform>& active_slot() {
    static std::atomic<Sha256Transform> slot{pick_transform()};
    return slot;
}

} // namespace

Sha256Transform sha256_active_transform() {
    return active_slot().load(std::memory_order_relaxed);
}

} // namespace detail

const char* sha256_backend() {
    return detail::sha256_active_transform() == &detail::sha256_transform_scalar
               ? "scalar"
               : "sha-ni";
}

void sha256_force_scalar(bool force) {
    detail::active_slot().store(force ? &detail::sha256_transform_scalar
                                      : detail::pick_transform(),
                                std::memory_order_relaxed);
}

void Sha256::reset() {
    std::memcpy(state_, kInit, sizeof state_);
    total_len_ = 0;
    buffer_len_ = 0;
}

Sha256& Sha256::update(ByteView data) {
    if (data.empty()) return *this; // empty views may carry a null data()
    const detail::Sha256Transform transform = detail::sha256_active_transform();
    total_len_ += data.size();
    std::size_t offset = 0;

    if (buffer_len_ > 0) {
        const std::size_t need = 64 - buffer_len_;
        const std::size_t take = data.size() < need ? data.size() : need;
        std::memcpy(buffer_ + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset += take;
        if (buffer_len_ == 64) {
            transform(state_, buffer_, 1);
            buffer_len_ = 0;
        }
    }

    if (offset + 64 <= data.size()) {
        const std::size_t nblocks = (data.size() - offset) / 64;
        transform(state_, data.data() + offset, nblocks);
        offset += nblocks * 64;
    }

    if (offset < data.size()) {
        buffer_len_ = data.size() - offset;
        std::memcpy(buffer_, data.data() + offset, buffer_len_);
    }
    return *this;
}

Hash256 Sha256::finalize() {
    const std::uint64_t bit_len = total_len_ * 8;
    const detail::Sha256Transform transform = detail::sha256_active_transform();
    // Padding: 0x80, zeros until 8 bytes remain in a block, then the length.
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56) {
        std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
        transform(state_, buffer_, 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i)
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    transform(state_, buffer_, 1);
    buffer_len_ = 0;
    return digest_of(state_);
}

Hash256 sha256(ByteView data) { return Sha256().update(data).finalize(); }

Hash256 sha256_64(const std::uint8_t* data64) {
    const detail::Sha256Transform transform = detail::sha256_active_transform();
    std::uint32_t state[8];
    std::memcpy(state, kInit, sizeof state);
    transform(state, data64, 1);
    transform(state, kPad64, 1);
    return digest_of(state);
}

Hash256 sha256d_64(const std::uint8_t* data64) {
    const detail::Sha256Transform transform = detail::sha256_active_transform();
    std::uint32_t state[8];
    std::memcpy(state, kInit, sizeof state);
    transform(state, data64, 1);
    transform(state, kPad64, 1);

    // Second hash: the 32-byte digest padded to one block (length 256 bits),
    // serialized straight into a stack block — no intermediate Hash256.
    std::uint8_t block[64] = {};
    for (int i = 0; i < 8; ++i) write_be32(&block[4 * static_cast<std::size_t>(i)], state[i]);
    block[32] = 0x80;
    block[62] = 0x01; // 256 = 0x0100 bits, big-endian in bytes 56..63
    std::memcpy(state, kInit, sizeof state);
    transform(state, block, 1);
    return digest_of(state);
}

Hash256 sha256d(ByteView data) {
    if (data.size() == 64) return sha256d_64(data.data());
    // One context reused across both passes (the old free-function path built
    // two Sha256 objects and re-buffered the intermediate digest).
    Sha256 ctx;
    ctx.update(data);
    const Hash256 first = ctx.finalize();
    ctx.reset();
    ctx.update(first.view());
    return ctx.finalize();
}

Hash256 tagged_hash(std::string_view tag, ByteView data) {
    const Hash256 tag_hash =
        sha256(ByteView{reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()});
    Sha256 ctx;
    ctx.update(tag_hash.view()).update(tag_hash.view()).update(data);
    return ctx.finalize();
}

Hash256 hash_pair(const Hash256& left, const Hash256& right) {
    std::uint8_t buf[64];
    std::memcpy(buf, left.data.data(), 32);
    std::memcpy(buf + 32, right.data.data(), 32);
    return sha256_64(buf);
}

} // namespace dlt::crypto
