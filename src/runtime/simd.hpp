// Fixed-width vector helpers for the dense per-shard solver sweeps
// (DESIGN.md §15).
//
// Each kernel is one portable C++ loop, written so the compiler
// autovectorizes it under the build's target flags (`-march=native` by
// default). There are no intrinsics, no runtime dispatch and no knob:
// every platform and build type runs the same source.
//
// Exactness rule: a kernel may only be added here if its result does
// not depend on how the compiler vectorizes it. OR and integer
// reductions and per-element compares are order-independent; the
// argmax reduces under a strict total order (weight desc, id asc —
// callers must pass distinct ids and non-NaN weights). Order-dependent
// floating-point reductions (sums, dot products) stay out of this
// header.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lps::simd {

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

// ---- byte-predicate kernels (solver state scans) ----

/// Any p[i] == v?
bool any_eq_u8(const std::uint8_t* p, std::size_t n, std::uint8_t v);

/// Any p[i] != v?
bool any_ne_u8(const std::uint8_t* p, std::size_t n, std::uint8_t v);

// ---- f64 kernels (gain comparison / argmax) ----

/// out[i] = (x[i] > 0.0) ? 1 : 0; returns the number of positives.
/// `out` must not alias `x`.
std::size_t mask_positive_f64(const double* x, std::size_t n,
                              std::uint8_t* out);

/// Index of the best slot under (w desc, id asc) among slots with
/// alive[i] != 0; npos when none is alive. Callers guarantee distinct
/// ids among alive slots and non-NaN weights, so the comparator is a
/// strict total order and the winner is unique.
std::size_t argmax_masked_f64(const double* w, const std::uint32_t* id,
                              const std::uint8_t* alive, std::size_t n);

}  // namespace lps::simd
