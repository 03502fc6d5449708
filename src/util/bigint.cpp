#include "util/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lps {

BigCounter::BigCounter(const BigCounter& other) : size_(other.size_) {
  if (size_ <= 1) {
    inline_ = size_ != 0 ? other.limbs()[0] : 0;
    return;
  }
  heap_ = new std::uint64_t[size_];
  cap_ = size_;
  std::copy_n(other.heap_, size_, heap_);
}

BigCounter::BigCounter(BigCounter&& other) noexcept
    : size_(other.size_), cap_(other.cap_) {
  if (cap_ != 0) {
    heap_ = other.heap_;
  } else {
    inline_ = other.inline_;
  }
  other.inline_ = 0;
  other.size_ = 0;
  other.cap_ = 0;
}

BigCounter& BigCounter::operator=(const BigCounter& other) {
  if (this == &other) return *this;
  if (other.size_ > capacity()) {
    auto* grown = new std::uint64_t[other.size_];
    release();
    heap_ = grown;
    cap_ = other.size_;
  }
  std::copy_n(other.limbs(), other.size_, limbs());
  size_ = other.size_;
  return *this;
}

BigCounter& BigCounter::operator=(BigCounter&& other) noexcept {
  if (this == &other) return *this;
  if (other.cap_ != 0) {
    release();
    heap_ = other.heap_;
    cap_ = other.cap_;
    other.inline_ = 0;
    other.cap_ = 0;
  } else {
    limbs()[0] = other.inline_;
  }
  size_ = other.size_;
  other.size_ = 0;
  return *this;
}

void BigCounter::resize(std::uint32_t n) {
  if (n > capacity()) {
    const std::uint32_t cap = std::max(n, 2 * capacity());
    auto* grown = new std::uint64_t[cap];
    std::copy_n(limbs(), size_, grown);
    release();
    heap_ = grown;
    cap_ = cap;
  }
  std::uint64_t* d = limbs();
  for (std::uint32_t i = size_; i < n; ++i) d[i] = 0;
  size_ = n;
}

void BigCounter::normalize() {
  const std::uint64_t* d = limbs();
  while (size_ > 0 && d[size_ - 1] == 0) --size_;
}

bool BigCounter::operator==(const BigCounter& rhs) const {
  return size_ == rhs.size_ && std::equal(limbs(), limbs() + size_, rhs.limbs());
}

BigCounter& BigCounter::operator+=(const BigCounter& rhs) {
  if (this == &rhs) {
    const BigCounter copy(rhs);
    return *this += copy;
  }
  const std::uint32_t n = std::max(size_, rhs.size_);
  resize(n);
  std::uint64_t* d = limbs();
  const std::uint64_t* r = rhs.limbs();
  unsigned __int128 carry = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    unsigned __int128 sum = carry + d[i];
    if (i < rhs.size_) sum += r[i];
    d[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) {
    resize(n + 1);
    limbs()[n] = static_cast<std::uint64_t>(carry);
  }
  return *this;
}

BigCounter& BigCounter::operator-=(const BigCounter& rhs) {
  if (*this < rhs) {
    throw std::invalid_argument("BigCounter subtraction would underflow");
  }
  std::uint64_t* d = limbs();
  const std::uint64_t* r = rhs.limbs();
  unsigned __int128 borrow = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    const unsigned __int128 sub = borrow + (i < rhs.size_ ? r[i] : 0);
    if (d[i] >= sub) {
      d[i] -= static_cast<std::uint64_t>(sub);
      borrow = 0;
    } else {
      d[i] = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) + d[i] - sub);
      borrow = 1;
    }
  }
  normalize();
  return *this;
}

std::strong_ordering BigCounter::operator<=>(const BigCounter& rhs) const {
  if (size_ != rhs.size_) return size_ <=> rhs.size_;
  const std::uint64_t* d = limbs();
  const std::uint64_t* r = rhs.limbs();
  for (std::uint32_t i = size_; i-- > 0;) {
    if (d[i] != r[i]) return d[i] <=> r[i];
  }
  return std::strong_ordering::equal;
}

BigCounter& BigCounter::shift_left(int bits) {
  assert(bits >= 0 && bits < 64);
  if (bits == 0 || size_ == 0) return *this;
  std::uint64_t* d = limbs();
  std::uint64_t carry = 0;
  for (std::uint32_t i = 0; i < size_; ++i) {
    const std::uint64_t next_carry = d[i] >> (64 - bits);
    d[i] = (d[i] << bits) | carry;
    carry = next_carry;
  }
  if (carry != 0) {
    resize(size_ + 1);
    limbs()[size_ - 1] = carry;
  }
  return *this;
}

std::size_t BigCounter::bit_size() const {
  if (size_ == 0) return 0;
  return 64 * (static_cast<std::size_t>(size_) - 1) +
         static_cast<std::size_t>(std::bit_width(limbs()[size_ - 1]));
}

double BigCounter::log2() const {
  if (size_ == 0) return -std::numeric_limits<double>::infinity();
  // Use the top two limbs for ~128 bits of mantissa information.
  const std::uint64_t* d = limbs();
  const std::size_t k = size_;
  long double top = static_cast<long double>(d[k - 1]);
  if (k >= 2) {
    top = top * 18446744073709551616.0L +  // 2^64
          static_cast<long double>(d[k - 2]);
    return static_cast<double>(std::log2(top)) +
           64.0 * static_cast<double>(k - 2);
  }
  return static_cast<double>(std::log2(top));
}

double BigCounter::to_double() const {
  const std::uint64_t* d = limbs();
  double out = 0.0;
  for (std::uint32_t i = size_; i-- > 0;) {
    out = out * 18446744073709551616.0 + static_cast<double>(d[i]);
    if (std::isinf(out)) return out;
  }
  return out;
}

std::uint64_t BigCounter::to_u64() const {
  if (!fits_u64()) {
    throw std::overflow_error("BigCounter does not fit in uint64_t");
  }
  return size_ == 0 ? 0 : limbs()[0];
}

std::string BigCounter::to_string() const {
  if (size_ == 0) return "0";
  // Repeated division by 10^9.
  std::vector<std::uint64_t> work(limbs(), limbs() + size_);
  std::string out;
  while (!work.empty()) {
    std::uint64_t rem = 0;
    for (std::size_t i = work.size(); i-- > 0;) {
      const unsigned __int128 cur =
          (static_cast<unsigned __int128>(rem) << 64) | work[i];
      work[i] = static_cast<std::uint64_t>(cur / 1000000000u);
      rem = static_cast<std::uint64_t>(cur % 1000000000u);
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    // The chunk is 9 decimal digits unless it is the most significant one.
    std::string digits = std::to_string(rem);
    if (!work.empty()) digits.insert(0, 9 - digits.size(), '0');
    out.insert(0, digits);
  }
  return out;
}

std::uint32_t BigCounter::get_bits(std::size_t pos, int count) const {
  assert(count >= 1 && count <= 32);
  std::uint64_t result = 0;
  const std::uint64_t* d = limbs();
  const std::size_t limb = pos / 64;
  const int offset = static_cast<int>(pos % 64);
  if (limb < size_) {
    result = d[limb] >> offset;
    if (offset + count > 64 && limb + 1 < size_) {
      result |= d[limb + 1] << (64 - offset);
    }
  }
  const std::uint64_t mask =
      (count == 64) ? ~0ULL : ((std::uint64_t{1} << count) - 1);
  return static_cast<std::uint32_t>(result & mask);
}

std::vector<std::uint32_t> BigCounter::to_chunks(
    int chunk_bits, std::size_t num_chunks) const {
  assert(chunk_bits >= 1 && chunk_bits <= 32);
  if (num_chunks * static_cast<std::size_t>(chunk_bits) < bit_size()) {
    throw std::invalid_argument("BigCounter::to_chunks: too few chunks");
  }
  std::vector<std::uint32_t> chunks(num_chunks);
  // chunks[0] is most significant.
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t pos = (num_chunks - 1 - c) *
                            static_cast<std::size_t>(chunk_bits);
    chunks[c] = get_bits(pos, chunk_bits);
  }
  return chunks;
}

BigCounter BigCounter::from_chunks(const std::vector<std::uint32_t>& chunks,
                                   int chunk_bits) {
  assert(chunk_bits >= 1 && chunk_bits <= 32);
  BigCounter result;
  for (const std::uint32_t chunk : chunks) {
    result.shift_left(chunk_bits);
    result += BigCounter(chunk);
  }
  return result;
}

BigCounter BigCounter::sample_below(const BigCounter& bound, Rng& rng) {
  if (bound.is_zero()) {
    throw std::invalid_argument("BigCounter::sample_below: zero bound");
  }
  const std::size_t bits = bound.bit_size();
  const std::size_t full_limbs = bits / 64;
  const int top_bits = static_cast<int>(bits % 64);
  BigCounter candidate;
  for (;;) {
    candidate.size_ = 0;
    candidate.resize(static_cast<std::uint32_t>(full_limbs + (top_bits ? 1 : 0)));
    std::uint64_t* d = candidate.limbs();
    for (std::size_t i = 0; i < full_limbs; ++i) d[i] = rng();
    if (top_bits != 0) d[full_limbs] = rng() >> (64 - top_bits);
    candidate.normalize();
    if (candidate < bound) return candidate;
  }
}

}  // namespace lps
