#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

#include "obs/json.h"

namespace mdbs::obs {
namespace {

/// Power-of-two histogram from the summary's log-linear buckets: bucket k
/// holds values in (2^(k-1), 2^k], bucket "0" holds values <= 1. Fine
/// buckets are merged by the octave of their lower bound, so counts sum to
/// the summary's exact count.
void WriteHistogram(JsonWriter& w, const sim::Summary& summary) {
  std::map<int, int64_t> buckets;
  summary.histogram().ForEachNonEmpty(
      [&buckets](int64_t lower, int64_t /*upper*/, int64_t count) {
        int exp = 0;
        if (lower > 1) exp = static_cast<int>(std::ceil(std::log2(lower)));
        buckets[exp] += count;
      });
  w.BeginArray();
  for (const auto& [exp, count] : buckets) {
    w.BeginObject();
    w.Key("le").Double(exp == 0 ? 1.0 : std::exp2(exp));
    w.Key("count").Int(count);
    w.EndObject();
  }
  w.EndArray();
}

void WriteSummaryObject(JsonWriter& w, const sim::Summary& summary) {
  w.BeginObject();
  w.Key("count").Int(summary.count());
  w.Key("mean").Double(summary.mean());
  w.Key("min").Double(summary.min());
  w.Key("max").Double(summary.max());
  w.Key("quantiles").BeginObject();
  w.Key("p50").Double(summary.Quantile(0.5));
  w.Key("p90").Double(summary.Quantile(0.9));
  w.Key("p95").Double(summary.Quantile(0.95));
  w.Key("p99").Double(summary.Quantile(0.99));
  w.Key("p999").Double(summary.Quantile(0.999));
  w.EndObject();
  w.Key("histogram");
  WriteHistogram(w, summary);
  w.EndObject();
}

void WriteMetricsSection(JsonWriter& w, const MetricsSnapshot& m) {
  w.BeginObject();
  w.Key("window_size").Int(m.window_size);
  w.Key("finished").Int(m.finished);
  w.Key("committed").Int(m.committed);
  w.Key("lifetime_ticks").Int(m.lifetime_ticks);
  w.Key("balance").BeginObject();
  w.Key("violations").Int(m.balance_violations);
  w.Key("max_error").Int(m.max_balance_error);
  w.EndObject();

  int64_t total_phase_ticks = 0;
  for (int64_t t : m.phase_ticks) total_phase_ticks += t;
  w.Key("phases").BeginObject();
  for (int i = 0; i < kTxnPhaseCount; ++i) {
    w.Key(TxnPhaseName(static_cast<TxnPhase>(i))).BeginObject();
    w.Key("ticks").Int(m.phase_ticks[static_cast<size_t>(i)]);
    w.Key("share").Double(
        total_phase_ticks == 0
            ? 0.0
            : static_cast<double>(m.phase_ticks[static_cast<size_t>(i)]) /
                  static_cast<double>(total_phase_ticks));
    w.EndObject();
  }
  w.EndObject();

  w.Key("bottleneck").BeginObject();
  w.Key("phase").String(TxnPhaseName(m.bottleneck));
  w.Key("share").Double(m.bottleneck_share);
  w.EndObject();

  w.Key("timeline").BeginArray(/*one_per_line=*/true);
  for (const TimelinePoint& p : m.timeline) {
    w.BeginObject();
    w.Key("window").Int(p.window);
    w.Key("start").Int(p.window * m.window_size);
    w.Key("submitted").Int(p.submitted);
    w.Key("committed").Int(p.committed);
    w.Key("failed").Int(p.failed);
    w.Key("attempt_aborts").Int(p.attempt_aborts);
    w.Key("max_queue_depth").Int(p.max_queue_depth);
    w.Key("max_wait_depth").Int(p.max_wait_depth);
    w.Key("max_parked").Int(p.max_parked);
    w.Key("site_down_events").Int(p.site_down_events);
    w.Key("p99_latency").Double(p.p99_latency);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteJsonReport(std::ostream& os, const ReportInfo& info,
                     const sim::MetricsRegistry& registry,
                     const ReportExtras& extras) {
  JsonWriter w(os);
  w.BeginObject();

  w.Key("info").BeginObject();
  for (const auto& [key, value] : info) w.Key(key).String(value);
  w.EndObject();

  w.Key("counters").BeginObject();
  for (const auto& [name, value] : registry.counters()) {
    w.Key(name).Int(value);
  }
  w.EndObject();

  w.Key("summaries").BeginObject();
  for (const auto& [name, summary] : registry.summaries()) {
    w.Key(name);
    WriteSummaryObject(w, summary);
  }
  w.EndObject();

  if (extras.metrics != nullptr && extras.metrics->enabled) {
    w.Key("metrics");
    WriteMetricsSection(w, *extras.metrics);
  }
  if (extras.trace_recorded >= 0) {
    w.Key("trace").BeginObject();
    w.Key("recorded").Int(extras.trace_recorded);
    w.Key("dropped").Int(extras.trace_dropped);
    w.EndObject();
  }

  w.EndObject();
  os << "\n";
}

Status WriteJsonReportFile(const std::string& path, const ReportInfo& info,
                           const sim::MetricsRegistry& registry,
                           const ReportExtras& extras) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open report output file: " + path);
  }
  WriteJsonReport(out, info, registry, extras);
  out.flush();
  if (!out) return Status::Internal("short write to report file: " + path);
  return Status::OK();
}

}  // namespace mdbs::obs
