// Streaming statistics helpers used by the metrics collector and tests.
#pragma once

#include <cstdint>
#include <vector>

namespace dfsim {

/// Welford running mean/variance; O(1) memory, numerically stable.
class RunningStat {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  void merge(const RunningStat& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;

  /// Checkpoint fields (see common/serialize.hpp). The Welford accumulator
  /// is order-sensitive in floating point, so a resumed run must continue
  /// from the bit-exact (count, mean, m2) triple rather than re-deriving it.
  template <class Ar>
  void transfer(Ar& ar, const char* what) {
    ar.u64(count_, what);
    ar.f64(mean_, what);
    ar.f64(m2_, what);
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-width histogram with overflow bucket; used for latency
/// distributions (percentiles of packet latency).
class Histogram {
 public:
  /// Buckets of `width` covering [0, width*num_buckets); one extra
  /// overflow bucket beyond that.
  Histogram(double width, std::size_t num_buckets);

  void add(double x);
  std::uint64_t count() const { return total_; }

  /// Inclusive percentile (0 < p <= 100), interpolated within the bucket
  /// containing the target rank (samples assumed uniformly spread inside
  /// it); returns 0 when empty. Ranks landing in the overflow bucket
  /// report the end of the covered range, width*num_buckets, since their
  /// true magnitude is unknown.
  double percentile(double p) const;

  double bucket_width() const { return width_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// Checkpoint fields. The stream's bucket count must match this
  /// histogram's geometry; the Reader checks it before reading a bucket.
  template <class Ar>
  void transfer(Ar& ar, const char* what) {
    ar.expect(buckets_.size(), what);
    for (std::uint64_t& b : buckets_) ar.u64(b, what);
    ar.u64(total_, what);
  }

 private:
  double width_;
  std::vector<std::uint64_t> buckets_;  // last bucket = overflow
  std::uint64_t total_ = 0;
};

}  // namespace dfsim
