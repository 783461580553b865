#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace edgeshed {
namespace {

/// Bit-at-a-time CRC-32 state update: the definition, with nothing to get
/// wrong but the polynomial.
uint32_t BitwiseUpdate(uint32_t state, const unsigned char* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    state ^= data[i];
    for (int k = 0; k < 8; ++k) {
      state = (state & 1u) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
    }
  }
  return state;
}

std::vector<unsigned char> RandomBytes(size_t len, Rng& rng) {
  std::vector<unsigned char> bytes(len);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

// The CRC-32 generator polynomial in normal bit order, x^32 included.
constexpr uint64_t kPoly = (uint64_t{1} << 32) | 0x04C11DB7u;

/// x^e mod P(x), bit i the coefficient of x^i.
uint64_t XPowMod(int e) {
  uint64_t r = 1;
  for (int i = 0; i < e; ++i) {
    r <<= 1;
    if ((r >> 32) != 0) r ^= kPoly;
  }
  return r;
}

uint64_t Reflect(uint64_t v, int bits) {
  uint64_t out = 0;
  for (int i = 0; i < bits; ++i) {
    if ((v >> i) & 1) out |= uint64_t{1} << (bits - 1 - i);
  }
  return out;
}

/// The folding kernel's K(e) = reflect32(x^e mod P) << 1.
uint64_t FoldConstant(int e) { return Reflect(XPowMod(e), 32) << 1; }

TEST(Crc32Test, CheckValueAndEmptyInput) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Update(0x12345678u, nullptr, 0), 0x12345678u);
  // Long enough for the folding kernel where the CPU has it.
  const std::string zeros(4096, '\0');
  EXPECT_EQ(Crc32(zeros),
            Crc32Finalize(BitwiseUpdate(
                kCrc32Init, reinterpret_cast<const unsigned char*>(zeros.data()),
                zeros.size())));
}

TEST(Crc32Test, SplitUpdatesEqualOneShot) {
  Rng rng(17);
  const std::vector<unsigned char> bytes = RandomBytes(10000, rng);
  const uint32_t whole = Crc32Update(kCrc32Init, bytes.data(), bytes.size());
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{15}, size_t{63},
                           size_t{64}, size_t{65}, size_t{4095}, size_t{9999},
                           size_t{10000}}) {
    uint32_t state = Crc32Update(kCrc32Init, bytes.data(), cut);
    state = Crc32Update(state, bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(state, whole) << "cut " << cut;
  }
  // Many small pieces of random sizes.
  uint32_t state = kCrc32Init;
  for (size_t pos = 0; pos < bytes.size();) {
    const size_t len =
        std::min<size_t>(rng.Next() % 300, bytes.size() - pos);
    state = Crc32Update(state, bytes.data() + pos, len);
    pos += len;
  }
  EXPECT_EQ(state, whole);
}

TEST(Crc32Test, EveryShortLengthMatchesBitwiseReference) {
  Rng rng(3);
  const std::vector<unsigned char> bytes = RandomBytes(300 + 16, rng);
  for (size_t offset = 0; offset < 16; offset += 5) {
    for (size_t len = 0; len <= 300; ++len) {
      for (const uint32_t state : {kCrc32Init, 0u, 0x9E3779B9u}) {
        const unsigned char* data = bytes.data() + offset;
        const uint32_t want = BitwiseUpdate(state, data, len);
        ASSERT_EQ(Crc32Update(state, data, len), want)
            << "len " << len << " offset " << offset;
        ASSERT_EQ(crc32_internal::UpdateTable(state, data, len), want)
            << "len " << len << " offset " << offset;
      }
    }
  }
}

TEST(Crc32Test, RandomStatesAlignmentsAndLengthsMatchTheTables) {
  Rng rng(99);
  const std::vector<unsigned char> bytes = RandomBytes((size_t{1} << 20) + 64,
                                                       rng);
  for (int trial = 0; trial < 400; ++trial) {
    const uint32_t state = static_cast<uint32_t>(rng.Next());
    const size_t offset = rng.Next() % 64;
    // Mostly short-to-medium lengths, with a tail of up to 1 MiB.
    const size_t len = trial % 8 == 0 ? rng.Next() % ((size_t{1} << 20) + 1)
                                      : rng.Next() % 20000;
    const unsigned char* data = bytes.data() + offset;
    ASSERT_EQ(Crc32Update(state, data, len),
              crc32_internal::UpdateTable(state, data, len))
        << "trial " << trial << " offset " << offset << " len " << len;
  }
  // The bitwise reference once on a long, odd-sized, misaligned input.
  const unsigned char* data = bytes.data() + 7;
  const size_t len = 100003;
  EXPECT_EQ(Crc32Update(kCrc32Init, data, len),
            BitwiseUpdate(kCrc32Init, data, len));
}

TEST(Crc32Test, FoldingConstantsDeriveFromThePolynomial) {
  using crc32_internal::kFold;
  EXPECT_EQ(kFold.k1, FoldConstant(4 * 128 + 32));
  EXPECT_EQ(kFold.k2, FoldConstant(4 * 128 - 32));
  EXPECT_EQ(kFold.k3, FoldConstant(128 + 32));
  EXPECT_EQ(kFold.k4, FoldConstant(128 - 32));
  EXPECT_EQ(kFold.k5, FoldConstant(64));
  EXPECT_EQ(kFold.poly, Reflect(kPoly, 33));
  // Barrett's mu: the quotient floor(x^64 / P(x)), long division in GF(2).
  uint64_t remainder_hi = 1;  // x^64, with the x^64 bit held apart
  uint64_t remainder = 0;
  uint64_t quotient = 0;
  for (int d = 64; d >= 32; --d) {
    const bool bit = d == 64 ? remainder_hi != 0 : ((remainder >> d) & 1) != 0;
    if (!bit) continue;
    quotient |= uint64_t{1} << (d - 32);
    if (d == 64) {
      remainder_hi = 0;
      remainder ^= kPoly << 32;  // x^64 cancels against the held-apart bit
    } else {
      remainder ^= kPoly << (d - 32);
    }
  }
  EXPECT_EQ(kFold.mu, Reflect(quotient, 33));
}

}  // namespace
}  // namespace edgeshed
