// Kernel contract for runtime/simd.hpp (DESIGN.md §15): every helper
// matches a naive reference bit-for-bit on the boundary lengths (0, 1,
// around every vector width, around the 256-byte scan block) and on
// unaligned slices — the cases where vectorized head/tail handling goes
// wrong — and never writes past `n`.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/simd.hpp"
#include "util/rng.hpp"

namespace lps {
namespace {

// Cover every boundary around the vector widths the compiler may pick
// (up to 64 bytes, 8 f64 lanes), a zero, a one, and the edges of the
// byte scans' 256-byte blocks: one block, one block plus a tail, two
// blocks, and lengths spanning several.
const std::vector<std::size_t> kLengths = {
    0,  1,  3,  4,  5,   7,   8,   15,  16,  17,  31,  32,  33,
    63, 64, 65, 255, 256, 257, 511, 512, 513, 1027};

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng,
                                       std::uint8_t values) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(values));
  return out;
}

// ---- naive references ----

bool ref_any_eq(const std::uint8_t* p, std::size_t n, std::uint8_t v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] == v) return true;
  }
  return false;
}

bool ref_any_ne(const std::uint8_t* p, std::size_t n, std::uint8_t v) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != v) return true;
  }
  return false;
}

std::size_t ref_argmax(const double* w, const std::uint32_t* id,
                       const std::uint8_t* alive, std::size_t n) {
  std::size_t best = simd::npos;
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    if (best == simd::npos || w[i] > w[best] ||
        (w[i] == w[best] && id[i] < id[best])) {
      best = i;
    }
  }
  return best;
}

TEST(SimdTest, ByteKernelsMatchReference) {
  Rng rng(2024);
  for (const std::size_t n : kLengths) {
    // Margin of 3 so the same buffer serves unaligned slices p+1..p+3.
    std::vector<std::uint8_t> buf = random_bytes(n + 3, rng, 3);
    for (std::size_t shift = 0; shift < 3; ++shift) {
      const std::uint8_t* p = buf.data() + shift;
      for (std::uint8_t v = 0; v < 3; ++v) {
        const std::string label = "n=" + std::to_string(n) +
                                  " shift=" + std::to_string(shift) +
                                  " v=" + std::to_string(v);
        EXPECT_EQ(simd::any_eq_u8(p, n, v), ref_any_eq(p, n, v)) << label;
        EXPECT_EQ(simd::any_ne_u8(p, n, v), ref_any_ne(p, n, v)) << label;
      }
    }
  }
}

TEST(SimdTest, ByteScansFindALoneHitAtBlockEdges) {
  // One differing byte in an otherwise uniform buffer, placed where the
  // blocked scan changes loops: the last byte of a full 256-byte block,
  // the first byte after it, and the last byte of the tail after the
  // last full block.
  for (const std::size_t n : {256u, 257u, 512u, 513u, 700u}) {
    for (std::size_t shift = 0; shift < 2; ++shift) {
      std::vector<std::size_t> spots = {255, n - 1};
      if (n > 256) spots.push_back(256);
      if (n > 512) spots.push_back(511);
      for (const std::size_t hit : spots) {
        const std::string label = "n=" + std::to_string(n) +
                                  " shift=" + std::to_string(shift) +
                                  " hit=" + std::to_string(hit);
        std::vector<std::uint8_t> buf(n + shift, 1);
        std::uint8_t* p = buf.data() + shift;
        p[hit] = 2;
        EXPECT_TRUE(simd::any_eq_u8(p, n, 2)) << label;
        EXPECT_TRUE(simd::any_ne_u8(p, n, 1)) << label;
        // Just short of the hit: nothing to find.
        EXPECT_FALSE(simd::any_eq_u8(p, hit, 2)) << label;
        EXPECT_FALSE(simd::any_ne_u8(p, hit, 1)) << label;
      }
    }
  }
}

TEST(SimdTest, MaskPositiveMatchesReference) {
  Rng rng(77);
  for (const std::size_t n : kLengths) {
    std::vector<double> x(n + 2);
    for (auto& d : x) {
      // Mix of signs, exact zeros, and negative zero.
      const std::uint64_t r = rng.below(6);
      d = r == 0 ? 0.0
          : r == 1 ? -0.0
                   : (rng.uniform01() - 0.5);
    }
    for (std::size_t shift = 0; shift < 2; ++shift) {
      const double* p = x.data() + shift;
      std::size_t ref_cnt = 0;
      std::vector<std::uint8_t> ref_mask(n);
      for (std::size_t i = 0; i < n; ++i) {
        ref_mask[i] = p[i] > 0.0 ? 1 : 0;
        ref_cnt += ref_mask[i];
      }
      std::vector<std::uint8_t> mask(n + 1, 0xee);
      EXPECT_EQ(simd::mask_positive_f64(p, n, mask.data()), ref_cnt);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(mask[i], ref_mask[i]) << "n=" << n << " i=" << i;
      }
      EXPECT_EQ(mask[n], 0xee) << "n=" << n << " (overwrote past end)";
    }
  }
}

TEST(SimdTest, ArgmaxMatchesReference) {
  Rng rng(99);
  for (const std::size_t n : kLengths) {
    std::vector<double> w(n + 2);
    std::vector<std::uint32_t> id(n + 2);
    std::vector<std::uint8_t> alive(n + 2);
    // Duplicate weights on purpose (drawn from 8 values) so the id
    // tiebreak is exercised; ids distinct as the contract requires.
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<double>(rng.below(8)) * 0.25 - 1.0;
      id[i] = static_cast<std::uint32_t>(i * 2 + 1);
      alive[i] = rng.coin() ? 1 : 0;
    }
    for (std::size_t shift = 0; shift < 2; ++shift) {
      const std::size_t ref =
          ref_argmax(w.data() + shift, id.data() + shift,
                     alive.data() + shift, n);
      EXPECT_EQ(simd::argmax_masked_f64(w.data() + shift, id.data() + shift,
                                        alive.data() + shift, n),
                ref)
          << "n=" << n << " shift=" << shift;
    }
    // All-dead mask => npos.
    std::vector<std::uint8_t> dead(n, 0);
    EXPECT_EQ(simd::argmax_masked_f64(w.data(), id.data(), dead.data(), n),
              simd::npos);
  }
}

}  // namespace
}  // namespace lps
