#ifndef MDBS_OBS_REPORT_H_
#define MDBS_OBS_REPORT_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/metrics.h"

namespace mdbs::obs {

/// Ordered (key, value) pairs describing the run (scheme, engine, seed...).
using ReportInfo = std::vector<std::pair<std::string, std::string>>;

/// Optional run-report sections beyond the registry.
struct ReportExtras {
  /// Metrics-engine snapshot -> "metrics" section: exact per-phase tick
  /// totals and shares, the balance invariant, the windowed timeline and
  /// the bottleneck verdict. Null omits the section.
  const MetricsSnapshot* metrics = nullptr;
  /// Trace-sink integrity -> "trace" section (recorded vs dropped events,
  /// so a silently-truncated trace is visible in the report). Negative
  /// `trace_recorded` omits the section.
  int64_t trace_recorded = -1;
  int64_t trace_dropped = 0;
};

/// Writes the structured JSON run report:
///   {"info": {...},
///    "counters": {name: n, ...},
///    "summaries": {name: {count, mean, min, max,
///                         quantiles: {p50, p90, p95, p99, p999},
///                         histogram: [{le, count}, ...]}, ...},
///    "metrics": {...}?, "trace": {recorded, dropped}?}
/// Histograms are the summaries' log-linear buckets merged to power-of-two
/// resolution; every observation is counted (no sampling), so the bucket
/// counts sum to `count` exactly.
void WriteJsonReport(std::ostream& os, const ReportInfo& info,
                     const sim::MetricsRegistry& registry,
                     const ReportExtras& extras = {});

/// WriteJsonReport into `path`; fails on I/O errors.
Status WriteJsonReportFile(const std::string& path, const ReportInfo& info,
                           const sim::MetricsRegistry& registry,
                           const ReportExtras& extras = {});

}  // namespace mdbs::obs

#endif  // MDBS_OBS_REPORT_H_
