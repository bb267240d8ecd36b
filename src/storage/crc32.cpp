#include "storage/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define DLT_CRC32C_SSE42 1
#endif

namespace dlt::storage {

namespace {

// Reflected lookup table for polynomial 0x1EDC6F41 (bit-reversed: 0x82F63B78),
// built once at static-initialization time.
std::array<std::uint32_t, 256> build_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
        table[i] = crc;
    }
    return table;
}

const std::array<std::uint32_t, 256> kTable = build_table();

#ifdef DLT_CRC32C_SSE42
// The instruction computes the same reflected update as the table loop,
// without the pre- and post-inversion, so the wrapper applies both.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(ByteView data,
                                                             std::uint32_t seed) {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint64_t crc = ~seed;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, 8);
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = static_cast<std::uint32_t>(crc);
    for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
    return ~crc32;
}
#endif

} // namespace

std::uint32_t crc32c_table(ByteView data, std::uint32_t seed) {
    std::uint32_t crc = ~seed;
    for (const std::uint8_t byte : data)
        crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFFu];
    return ~crc;
}

bool crc32c_hardware() {
#ifdef DLT_CRC32C_SSE42
    static const bool supported = [] {
        __builtin_cpu_init(); // may run before libgcc's own CPUID probe
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return supported;
#else
    return false;
#endif
}

std::uint32_t crc32c(ByteView data, std::uint32_t seed) {
#ifdef DLT_CRC32C_SSE42
    if (crc32c_hardware()) return crc32c_sse42(data, seed);
#endif
    return crc32c_table(data, seed);
}

} // namespace dlt::storage
