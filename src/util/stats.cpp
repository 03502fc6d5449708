#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace lps {

void StreamingStats::add(double x) noexcept {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StreamingStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

void StreamingStats::merge(const StreamingStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  const double new_mean =
      mean_ + delta * static_cast<double>(other.count_) / total;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = new_mean;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(data_.begin(), data_.end());
    sorted_ = true;
  }
}

double Samples::mean() const noexcept {
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (double x : data_) s += x;
  return s / static_cast<double>(data_.size());
}

double Samples::min() const noexcept {
  ensure_sorted();
  return data_.empty() ? 0.0 : data_.front();
}

double Samples::max() const noexcept {
  ensure_sorted();
  return data_.empty() ? 0.0 : data_.back();
}

double Samples::quantile(double q) const {
  if (data_.empty()) throw std::logic_error("quantile of empty sample set");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile out of range");
  ensure_sorted();
  const double pos = q * static_cast<double>(data_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, data_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return data_[lo] * (1.0 - frac) + data_[hi] * frac;
}

}  // namespace lps
