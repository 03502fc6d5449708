// Arbitrary-precision unsigned counter.
//
// Algorithm 3 of the paper counts augmenting paths per edge; Lemma 3.6
// bounds the counts by Delta^{ceil(d/2)}, which overflows any fixed-width
// integer for even modest Delta and path length. The paper's CONGEST
// implementation (Lemma 3.7) transmits these counts as a pipeline of
// O(log Delta)-bit chunks, most significant first. `BigCounter` is the
// in-memory representation plus exactly that chunked wire format.
//
// Supported operations are the ones the algorithms need: addition,
// subtraction (for weighted-bucket sampling), comparison, chunked
// (de)serialization, logarithms (for order-statistics sampling of the
// token values in the MIS emulation), and uniform sampling below a bound.
//
// Storage: one limb lives inline, so a counter that stays below 2^64 —
// nearly every count the algorithms see — is a 16-byte value that never
// touches the heap; a longer value spills to a heap array that the
// counter keeps (and reuses) across later assignments. Copying, zeroing and moving counts
// through the round engine's message columns is therefore malloc-free
// in steady state.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lps {

class BigCounter {
 public:
  /// Zero.
  BigCounter() = default;

  /// From a 64-bit value.
  BigCounter(std::uint64_t v)  // NOLINT(google-explicit-constructor)
      : inline_(v), size_(v != 0 ? 1 : 0) {}

  BigCounter(const BigCounter& other);
  BigCounter(BigCounter&& other) noexcept;
  BigCounter& operator=(const BigCounter& other);
  BigCounter& operator=(BigCounter&& other) noexcept;
  ~BigCounter() { release(); }

  BigCounter& operator+=(const BigCounter& rhs);
  friend BigCounter operator+(BigCounter lhs, const BigCounter& rhs) {
    lhs += rhs;
    return lhs;
  }

  /// Subtraction; requires *this >= rhs (checked).
  BigCounter& operator-=(const BigCounter& rhs);
  friend BigCounter operator-(BigCounter lhs, const BigCounter& rhs) {
    lhs -= rhs;
    return lhs;
  }

  /// Shift left by `bits` in [0, 63].
  BigCounter& shift_left(int bits);

  std::strong_ordering operator<=>(const BigCounter& rhs) const;
  bool operator==(const BigCounter& rhs) const;

  bool is_zero() const { return size_ == 0; }

  /// Number of significant bits (0 for zero).
  std::size_t bit_size() const;

  /// log2 of the value; returns -infinity for zero.
  double log2() const;

  /// Nearest double (may be +inf for huge values).
  double to_double() const;

  /// True iff the value fits in uint64_t.
  bool fits_u64() const { return size_ <= 1; }

  /// Value as uint64_t; requires fits_u64() (checked).
  std::uint64_t to_u64() const;

  /// Decimal string.
  std::string to_string() const;

  /// Serialize to exactly `num_chunks` chunks of `chunk_bits` bits each,
  /// most significant chunk first (the paper's pipelined wire order).
  /// Requires num_chunks * chunk_bits >= bit_size(). chunk_bits in [1,32].
  std::vector<std::uint32_t> to_chunks(int chunk_bits,
                                       std::size_t num_chunks) const;

  /// Inverse of to_chunks.
  static BigCounter from_chunks(const std::vector<std::uint32_t>& chunks,
                                int chunk_bits);

  /// Uniform random value in [0, bound); requires bound > 0 (checked).
  static BigCounter sample_below(const BigCounter& bound, Rng& rng);

 private:
  std::uint64_t* limbs() { return cap_ == 0 ? &inline_ : heap_; }
  const std::uint64_t* limbs() const { return cap_ == 0 ? &inline_ : heap_; }
  std::uint32_t capacity() const { return cap_ == 0 ? 1 : cap_; }
  /// Set the limb count to `n`, zero-filling new limbs; grows the
  /// storage (keeping the value) when `n` exceeds capacity().
  void resize(std::uint32_t n);
  void release() noexcept {
    if (cap_ != 0) delete[] heap_;
  }
  void normalize();
  /// Extract `count` (<= 32) bits starting at bit `pos` (LSB order).
  std::uint32_t get_bits(std::size_t pos, int count) const;

  // Little-endian limbs: the inline one while cap_ == 0, else heap_[0,
  // cap_). Normalized: size_ counts limbs up to the highest nonzero one,
  // so size_ == 0 is zero.
  union {
    std::uint64_t inline_ = 0;
    std::uint64_t* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

static_assert(sizeof(BigCounter) == 16);

}  // namespace lps
