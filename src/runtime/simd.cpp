#include "runtime/simd.hpp"

namespace lps::simd {

namespace {

// The byte scans OR-reduce fixed blocks and test for a hit only between
// blocks: GCC does not vectorize a loop that can exit mid-loop, while a
// branch-free block reduces at full vector width. 256 bytes is a few
// vectors at any width, so a hit still stops the scan early.
constexpr std::size_t kScanBlock = 256;

template <typename Hit>
bool any_blocked(const std::uint8_t* p, std::size_t n, Hit hit) {
  std::size_t i = 0;
  for (; i + kScanBlock <= n; i += kScanBlock) {
    std::uint8_t found = 0;
    for (std::size_t j = i; j < i + kScanBlock; ++j) found |= hit(p[j]);
    if (found != 0) return true;
  }
  std::uint8_t found = 0;
  for (; i < n; ++i) found |= hit(p[i]);
  return found != 0;
}

}  // namespace

bool any_eq_u8(const std::uint8_t* p, std::size_t n, std::uint8_t v) {
  return any_blocked(p, n, [v](std::uint8_t b) { return b == v; });
}

bool any_ne_u8(const std::uint8_t* p, std::size_t n, std::uint8_t v) {
  return any_blocked(p, n, [v](std::uint8_t b) { return b != v; });
}

std::size_t mask_positive_f64(const double* x, std::size_t n,
                              std::uint8_t* out) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t keep = x[i] > 0.0 ? 1 : 0;
    out[i] = keep;
    total += keep;
  }
  return total;
}

std::size_t argmax_masked_f64(const double* w, const std::uint32_t* id,
                              const std::uint8_t* alive, std::size_t n) {
  std::size_t best = npos;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] == 0) continue;
    if (best == npos || w[i] > w[best] ||
        (w[i] == w[best] && id[i] < id[best])) {
      best = i;
    }
  }
  return best;
}

}  // namespace lps::simd
