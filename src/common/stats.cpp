#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dfsim {

void RunningStat::merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  count_ += other.count_;
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double width, std::size_t num_buckets)
    : width_(width), buckets_(num_buckets + 1, 0) {}

void Histogram::add(double x) {
  std::size_t idx = buckets_.size() - 1;  // overflow by default
  if (x >= 0.0) {
    const auto raw = static_cast<std::size_t>(x / width_);
    if (raw < buckets_.size() - 1) idx = raw;
  }
  ++buckets_[idx];
  ++total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total_);
  std::uint64_t seen = 0;
  const std::size_t num_real = buckets_.size() - 1;
  for (std::size_t i = 0; i < num_real; ++i) {
    const std::uint64_t in_bucket = buckets_[i];
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Interpolate within the bucket, treating its samples as spread
      // uniformly: the k-th of c samples sits at lower + width*(k-0.5)/c.
      // (The old code returned the bucket's upper edge, biasing every
      // percentile upward by up to one bucket width.)
      const double rank = std::max(1.0, std::ceil(target));
      const double k = rank - static_cast<double>(seen);
      return width_ * (static_cast<double>(i) +
                       (k - 0.5) / static_cast<double>(in_bucket));
    }
    seen += in_bucket;
  }
  // The requested rank lands in the overflow bucket: its samples have no
  // upper bound, so report the range's end rather than pretending the
  // last real bucket (or one past it) contained them.
  return width_ * static_cast<double>(num_real);
}

}  // namespace dfsim
