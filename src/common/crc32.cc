#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace edgeshed {
namespace {

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built once
/// at static-init time. table[0] is the classic byte-at-a-time table; the
/// other seven fold 8 input bytes per iteration.
std::array<std::array<uint32_t, 256>, 8> BuildTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = tables[0][i];
    for (size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

const std::array<std::array<uint32_t, 256>, 8>& Tables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = BuildTables();
  return tables;
}

#if defined(__x86_64__)

#define EDGESHED_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

EDGESHED_CLMUL_TARGET inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Multiplies a lane's two halves by the pair in `k` and adds `next`: the
/// lane moves forward by the distance `k` encodes.
EDGESHED_CLMUL_TARGET inline __m128i Fold128(__m128i lane, __m128i k,
                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Folds `len` bytes (len >= 64, a multiple of 16) into `state` with
/// PCLMULQDQ: four 128-bit lanes advance 64 bytes per step, fold into one
/// lane, take the remaining 16-byte blocks, and the 128-bit remainder is
/// reduced to 64 and then, by Barrett reduction, to 32 bits ("Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
/// 2009; constants in crc32_internal::kFold).
EDGESHED_CLMUL_TARGET uint32_t UpdateClmul(uint32_t state,
                                           const unsigned char* bytes,
                                           size_t len) {
  using crc32_internal::kFold;
  __m128i x1 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  bytes += 64;
  len -= 64;

  const __m128i k1k2 = _mm_set_epi64x(static_cast<long long>(kFold.k2),
                                      static_cast<long long>(kFold.k1));
  for (; len >= 64; bytes += 64, len -= 64) {
    x1 = Fold128(x1, k1k2, Load128(bytes));
    x2 = Fold128(x2, k1k2, Load128(bytes + 16));
    x3 = Fold128(x3, k1k2, Load128(bytes + 32));
    x4 = Fold128(x4, k1k2, Load128(bytes + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(static_cast<long long>(kFold.k4),
                                      static_cast<long long>(kFold.k3));
  x1 = Fold128(x1, k3k4, x2);
  x1 = Fold128(x1, k3k4, x3);
  x1 = Fold128(x1, k3k4, x4);
  for (; len >= 16; bytes += 16, len -= 16) {
    x1 = Fold128(x1, k3k4, Load128(bytes));
  }

  // 128 -> 64 bits: the low half times K(96) joins the high half ...
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  // ... and its low 32 bits times K(64) join the upper 32.
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kFold.k5));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kFold.mu),
                                      static_cast<long long>(kFold.poly));
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

// Read before main(); a CRC taken during static initialization, before
// this is set, uses the tables and gets the same value.
const bool kHasClmul = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

#endif  // defined(__x86_64__)

}  // namespace

namespace crc32_internal {

uint32_t UpdateTable(uint32_t state, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = Tables();
  // Align to 8 bytes, then fold two 32-bit words per iteration.
  while (len > 0 && (reinterpret_cast<uintptr_t>(bytes) & 7u) != 0) {
    state = t[0][(state ^ *bytes++) & 0xFFu] ^ (state >> 8);
    --len;
  }
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= state;
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    bytes += 8;
    len -= 8;
  }
  while (len-- > 0) {
    state = t[0][(state ^ *bytes++) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace crc32_internal

uint32_t Crc32Update(uint32_t state, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (len >= 64 && kHasClmul) {
    const size_t folded = len & ~size_t{15};
    state = UpdateClmul(state, bytes, folded);
    bytes += folded;
    len -= folded;
  }
#endif
  return crc32_internal::UpdateTable(state, bytes, len);
}

}  // namespace edgeshed
