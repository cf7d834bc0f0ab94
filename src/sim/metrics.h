#ifndef MDBS_SIM_METRICS_H_
#define MDBS_SIM_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mdbs::sim {

/// Fixed-bucket log-linear histogram (HDR-style) over non-negative integer
/// values. Each power-of-two octave [2^m, 2^(m+1)) is split into
/// kSubBucketCount linear sub-buckets, so values below kSubBucketCount*2
/// are counted exactly and larger values with relative error at most
/// 1/kSubBucketCount (~1.6%). Record() is allocation-free after the first
/// call and touches exactly one bucket.
class LogLinearHistogram {
 public:
  static constexpr int kSubBucketBits = 6;
  static constexpr int64_t kSubBucketCount = int64_t{1} << kSubBucketBits;
  /// Highest octave: positive int64 values have msb <= 62.
  static constexpr int kMaxOctave = 62;
  static constexpr size_t kBucketCount = static_cast<size_t>(
      kSubBucketCount + (kMaxOctave - kSubBucketBits + 1) * kSubBucketCount);

  /// Counts `value` (negatives clamp to 0). Allocation-free once the bucket
  /// array exists.
  void Record(int64_t value);

  int64_t total() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Value at (possibly fractional) rank `pos` in [0, total-1], linearly
  /// interpolated within the containing bucket. For values inside the exact
  /// region this reproduces sorted-vector interpolation exactly.
  double ValueAtRank(double pos) const;

  /// Bucket geometry (index space is identical for every instance).
  static size_t BucketIndex(int64_t value);
  static int64_t BucketLower(size_t index);
  /// Exclusive upper bound of the bucket.
  static int64_t BucketUpper(size_t index);

  /// Calls fn(lower, upper_exclusive, count) for every non-empty bucket in
  /// increasing value order.
  template <typename Fn>
  void ForEachNonEmpty(Fn&& fn) const {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] != 0) fn(BucketLower(i), BucketUpper(i), buckets_[i]);
    }
  }

 private:
  /// Lazily sized to kBucketCount on first Record; empty histograms stay
  /// cheap (registries hold many never-touched summaries).
  std::vector<int64_t> buckets_;
  int64_t total_ = 0;
};

/// Streaming summary of a scalar series: exact count/sum/min/max plus
/// quantiles from a LogLinearHistogram over the full series — every
/// observation is counted (no reservoir sampling), so count is exact and
/// quantile error is bounded by the histogram's bucket resolution
/// (exact below 2*kSubBucketCount, <=1/kSubBucketCount relative beyond,
/// p999 included). Fully deterministic: the same insertion multiset yields
/// identical buckets and report bytes regardless of order.
class Summary {
 public:
  void Add(double value);

  int64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  /// q in [0, 1]. Exact for integer-valued series below
  /// 2*LogLinearHistogram::kSubBucketCount; bounded-relative-error beyond.
  /// Results are clamped to [min(), max()], so single-sample and extreme
  /// quantiles stay exact.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }
  double P999() const { return Quantile(0.999); }

  const LogLinearHistogram& histogram() const { return hist_; }

  std::string ToString() const;

 private:
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  LogLinearHistogram hist_;
};

/// Named counters + summaries for one simulation run.
class MetricsRegistry {
 public:
  void Increment(const std::string& name, int64_t delta = 1);
  int64_t Counter(const std::string& name) const;

  void Observe(const std::string& name, double value);
  const Summary* GetSummary(const std::string& name) const;

  /// Installs a fully-populated summary wholesale (overwriting any existing
  /// one) — how run reports adopt summaries built elsewhere, e.g. the
  /// driver's response-time series.
  void Put(const std::string& name, const Summary& summary) {
    summaries_[name] = summary;
  }

  /// Multi-line human-readable dump, sorted by name.
  std::string Report() const;

  const std::map<std::string, int64_t>& counters() const { return counters_; }
  const std::map<std::string, Summary>& summaries() const {
    return summaries_;
  }

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Summary> summaries_;
};

}  // namespace mdbs::sim

#endif  // MDBS_SIM_METRICS_H_
