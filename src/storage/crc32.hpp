// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum every on-disk
// record in the storage layer and every TCP frame carries. Chosen over
// CRC-32 (IEEE) for its better burst-error detection. On x86-64 CPUs whose
// CPUID reports SSE4.2, crc32c() runs the `crc32` instruction eight bytes at
// a time (about 20× the table loop's speed); everywhere else it runs the
// standard reflected table-driven loop, which stays as the portable
// reference. Both produce the same checksum for every input, so nothing on
// disk or on the wire depends on which path a process took.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace dlt::storage {

/// CRC-32C over `data`, starting from `seed` (pass a previous result to
/// checksum a logical record spread over several buffers).
std::uint32_t crc32c(ByteView data, std::uint32_t seed = 0);

/// The table-driven loop: crc32c()'s fallback and its test reference.
std::uint32_t crc32c_table(ByteView data, std::uint32_t seed = 0);

/// True when crc32c() runs the SSE4.2 instruction on this CPU.
bool crc32c_hardware();

} // namespace dlt::storage
