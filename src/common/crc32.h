#ifndef EDGESHED_COMMON_CRC32_H_
#define EDGESHED_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace edgeshed {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320), the integrity
/// checksum shared by the net wire protocol (net/wire.h frame payloads) and
/// the v3 graph snapshot's header and per-chunk CRCs
/// (graph/snapshot_format.h). It lives in common/ so both can use one
/// implementation without a dependency cycle.
///
/// Crc32Update picks its kernel once per process: on x86-64 CPUs with
/// PCLMULQDQ, inputs of 64 bytes or more fold four 128-bit lanes with
/// carry-less multiplies and finish with a Barrett reduction; shorter
/// inputs, the last 0-15 bytes, and CPUs or architectures without it use
/// slicing-by-8 tables. Both kernels return the same values.
///
/// One-shot:
///   uint32_t crc = Crc32(payload);
///
/// Incremental (streaming writers/readers):
///   uint32_t state = kCrc32Init;
///   state = Crc32Update(state, chunk1, len1);
///   state = Crc32Update(state, chunk2, len2);
///   uint32_t crc = Crc32Finalize(state);

/// Initial state for incremental computation.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;

/// Folds `len` bytes at `data` into `state`. Associative with itself only in
/// sequence: feed the bytes in stream order.
uint32_t Crc32Update(uint32_t state, const void* data, size_t len);

/// Final xor; after this the value is the standard CRC-32 of the stream.
inline constexpr uint32_t Crc32Finalize(uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of `data`.
inline uint32_t Crc32(std::string_view data) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data.data(), data.size()));
}

namespace crc32_internal {

/// The slicing-by-8 kernel alone, whatever the CPU supports (tests compare
/// the dispatched kernel against it).
uint32_t UpdateTable(uint32_t state, const void* data, size_t len);

/// The folding kernel's constants in the bit-reflected domain, with x^e
/// mod P written K(e) = reflect32(x^e mod P) << 1: fold-by-4 (K(544),
/// K(480)), fold-by-1 (K(160), K(96)), 64-bit reduction K(64), and the
/// Barrett pair reflect33(P) and reflect33(floor(x^64 / P)). The test
/// derives each from the polynomial.
struct FoldConstants {
  uint64_t k1, k2, k3, k4, k5, poly, mu;
};
inline constexpr FoldConstants kFold = {
    0x154442bd4, 0x1c6e41596, 0x1751997d0, 0x0ccaa009e,
    0x163cd6124, 0x1db710641, 0x1f7011641,
};

}  // namespace crc32_internal
}  // namespace edgeshed

#endif  // EDGESHED_COMMON_CRC32_H_
