#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mdbs::sim {

namespace {

int MostSignificantBit(uint64_t value) {
  int msb = 0;
  while (value >>= 1) ++msb;
  return msb;
}

}  // namespace

size_t LogLinearHistogram::BucketIndex(int64_t value) {
  if (value < 0) value = 0;
  if (value < kSubBucketCount) return static_cast<size_t>(value);
  int msb = MostSignificantBit(static_cast<uint64_t>(value));
  // Octave [2^msb, 2^(msb+1)) split into kSubBucketCount equal sub-buckets
  // of width 2^(msb - kSubBucketBits).
  int64_t sub =
      (value >> (msb - kSubBucketBits)) - kSubBucketCount;  // in [0, 64)
  return static_cast<size_t>(kSubBucketCount +
                             int64_t{msb - kSubBucketBits} * kSubBucketCount +
                             sub);
}

int64_t LogLinearHistogram::BucketLower(size_t index) {
  if (index < static_cast<size_t>(kSubBucketCount)) {
    return static_cast<int64_t>(index);
  }
  size_t slot = index - static_cast<size_t>(kSubBucketCount);
  // The octave is msb - kSubBucketBits.
  int octave = static_cast<int>(slot >> kSubBucketBits);
  int64_t sub = static_cast<int64_t>(slot & (kSubBucketCount - 1));
  return (int64_t{1} << (kSubBucketBits + octave)) + (sub << octave);
}

int64_t LogLinearHistogram::BucketUpper(size_t index) {
  if (index < static_cast<size_t>(kSubBucketCount)) {
    return static_cast<int64_t>(index) + 1;
  }
  size_t slot = index - static_cast<size_t>(kSubBucketCount);
  int octave = static_cast<int>(slot >> kSubBucketBits);
  return BucketLower(index) + (int64_t{1} << octave);
}

void LogLinearHistogram::Record(int64_t value) {
  if (buckets_.empty()) buckets_.resize(kBucketCount, 0);
  ++buckets_[BucketIndex(value)];
  ++total_;
}

double LogLinearHistogram::ValueAtRank(double pos) const {
  if (total_ == 0) return 0.0;
  if (pos < 0) pos = 0;
  if (pos > static_cast<double>(total_ - 1)) {
    pos = static_cast<double>(total_ - 1);
  }
  int64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (static_cast<double>(cumulative + buckets_[i]) > pos) {
      // Rank `pos` lands inside this bucket; spread the bucket's samples
      // evenly over [lower, upper) and interpolate. For width-1 buckets
      // (the exact region) this reproduces sorted-vector interpolation.
      double frac = (pos - static_cast<double>(cumulative)) /
                    static_cast<double>(buckets_[i]);
      int64_t lower = BucketLower(i);
      int64_t width = BucketUpper(i) - lower;
      return static_cast<double>(lower) + frac * static_cast<double>(width);
    }
    cumulative += buckets_[i];
  }
  return static_cast<double>(BucketUpper(buckets_.size() - 1));
}

void Summary::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  hist_.Record(static_cast<int64_t>(std::floor(value)));
}

double Summary::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  double pos = q * static_cast<double>(count_ - 1);
  double value = hist_.ValueAtRank(pos);
  // The histogram floors fractional observations, so pin the result back
  // into the observed range; this also keeps extreme quantiles exact.
  return std::clamp(value, min_, max_);
}

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << mean() << " min=" << min()
     << " p50=" << Median() << " p95=" << P95() << " max=" << max();
  return os.str();
}

void MetricsRegistry::Increment(const std::string& name, int64_t delta) {
  counters_[name] += delta;
}

int64_t MetricsRegistry::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  summaries_[name].Add(value);
}

const Summary* MetricsRegistry::GetSummary(const std::string& name) const {
  auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::Report() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, summary] : summaries_) {
    os << name << ": " << summary.ToString() << "\n";
  }
  return os.str();
}

}  // namespace mdbs::sim
