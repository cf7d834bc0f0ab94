// E9 — Threaded-engine throughput scaling: committed global transactions
// per second against the closed-loop client count (the "threads" column),
// for each conservative scheme, on the heterogeneous 4-site MDBS. Unlike
// E3, nothing here is simulated — every site and the GTM run on their own
// strands, the clients are callback tasks on one more strand, and a tick
// is a real microsecond.
//
// Expected shape: throughput grows with the client count as long as
// clients spend most of their time waiting (think time, network delay,
// lock waits) rather than contending for the workers — the closed-loop
// system overlaps waits even on a single core. Schemes permitting more
// concurrency (Scheme 3) should hold their scaling longer than Scheme 0,
// whose one-global-transaction-at-a-time discipline turns extra clients
// into queueing.

// A second sweep measures the certified fast path (src/analysis): a
// statically robust template mix runs once under stock Scheme 3 (ser-op
// delays, ticket injection at the SGT site) and once downgraded to the
// delay-free fast path the analyzer certified. The gap is the price of
// ser-op control on a workload that never needed it.
//
// A third sweep (E14) A/Bs the always-on metrics engine: the same cell with
// config.metrics.enabled on vs off. The engine's budget is <2% throughput;
// the measured overhead lands in BENCH_threaded.json as mode=metrics_*.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "analysis/capability.h"
#include "analysis/robustness.h"
#include "analysis/template.h"
#include "bench_json.h"
#include "gtm/robust_fast_path.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "obs/metrics.h"

namespace {

using mdbs::DriverConfig;
using mdbs::DriverReport;
using mdbs::Mdbs;
using mdbs::MdbsConfig;
using mdbs::RunDriver;
using mdbs::gtm::SchemeKind;
using mdbs::lcc::ProtocolKind;
using mdbs::obs::MetricsSnapshot;
using mdbs::obs::TxnPhase;
using mdbs::obs::TxnPhaseName;

struct RunResult {
  DriverReport report;
  /// Engaged when the metrics engine ran (metrics_enabled).
  std::optional<MetricsSnapshot> snapshot;
};

RunResult RunOne(SchemeKind scheme, int clients, uint64_t seed,
                 bool metrics_enabled = true) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic},
      scheme);
  config.seed = seed;
  config.audit.enabled = false;  // Auditing is for correctness runs.
  config.threaded = true;
  config.metrics.enabled = metrics_enabled;
  // Cross-site blocking is resolved by the MDBS-level timeout; 30ms of
  // real time here, matching E3's 30k ticks.
  config.gtm.attempt_timeout = 30'000;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = clients;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 200;
  driver.global_think = 200;  // µs between a client's transactions.
  driver.global_workload.items_per_site = 200;
  driver.global_workload.dav_min = 2;
  driver.global_workload.dav_max = 3;
  driver.local_workload.items_per_site = 200;
  RunResult result;
  result.report = RunDriver(&system, driver, seed);
  if (system.metrics() != nullptr) {
    result.snapshot = system.metrics()->Snapshot();
  }
  return result;
}

/// Adds the snapshot's phase decomposition to a bench row: exact per-phase
/// tick totals and shares, lifetime tail quantiles, and the bottleneck
/// verdict — the data E14 uses to explain E9's scaling collapse.
void AddPhaseBreakdown(mdbs::bench::BenchReport::Row& row,
                       const MetricsSnapshot& snapshot) {
  int64_t total = 0;
  for (int64_t t : snapshot.phase_ticks) total += t;
  for (int i = 0; i < mdbs::obs::kTxnPhaseCount; ++i) {
    const std::string name = TxnPhaseName(static_cast<TxnPhase>(i));
    int64_t ticks = snapshot.phase_ticks[static_cast<size_t>(i)];
    row.Set("phase." + name + ".ticks", static_cast<double>(ticks));
    row.Set("phase." + name + ".share",
            total == 0 ? 0.0
                       : static_cast<double>(ticks) /
                             static_cast<double>(total));
  }
  row.Set("lifetime_p99", snapshot.lifetime.P99());
  row.Set("lifetime_p999", snapshot.lifetime.P999());
  row.Set("bottleneck", std::string(TxnPhaseName(snapshot.bottleneck)));
  row.Set("bottleneck_share", snapshot.bottleneck_share);
  row.Set("balance_violations",
          static_cast<double>(snapshot.balance_violations));
}

// The robust mix for the fast-path comparison: every write conflict is
// confined to the TO site s0, reads roam to s1/s2. The SGT site makes the
// stock run pay for tickets the mix never needed.
constexpr char kRobustMix[] =
    "mix keys_per_class=8 local_txns=0\n"
    "template hot_update weight=3 : r0@s0 w0@s0 r1@s1\n"
    "template hot_audit weight=2 : r0@s0 w0@s0 r2@s2\n"
    "template far_report weight=1 : r3@s1 r4@s2\n";

const ProtocolKind kFastPathSites[] = {ProtocolKind::kTimestampOrdering,
                                       ProtocolKind::kSerializationGraph,
                                       ProtocolKind::kTimestampOrdering};

DriverReport RunMix(const mdbs::analysis::TemplateMix& mix, bool fast_path,
                    int clients, uint64_t seed) {
  MdbsConfig config = MdbsConfig::Mixed(
      {kFastPathSites[0], kFastPathSites[1], kFastPathSites[2]},
      SchemeKind::kScheme3);
  config.seed = seed;
  config.audit.enabled = false;  // Auditing is for correctness runs.
  config.threaded = true;
  config.gtm.attempt_timeout = 30'000;
  if (fast_path) {
    config.gtm.certified_fast_path = true;
    config.gtm.scheme_factory = []() {
      return mdbs::gtm::MakeRobustFastPath(SchemeKind::kScheme3);
    };
  }
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = clients;
  driver.local_clients_per_site = 0;  // The certificate's local_txns=0.
  driver.target_global_commits = 200;
  driver.global_think = 200;
  driver.templates = mix;
  return RunDriver(&system, driver, seed);
}

}  // namespace

int main(int argc, char** argv) {
  mdbs::bench::BenchReport results("threaded");
  std::printf("E9 — threaded engine: committed global txns/sec vs client "
              "count\n");
  std::printf("4 heterogeneous sites (2PL, TO, SGT, OCC), clients on a "
              "client strand, 200 global commits per cell\n\n");
  std::printf("%-10s %8s %12s %10s %10s %10s %9s  %s\n", "scheme", "threads",
              "txns/sec", "resp_p50", "resp_p95", "duration", "scale_x1",
              "bottleneck");
  for (SchemeKind scheme :
       {SchemeKind::kScheme0, SchemeKind::kScheme1, SchemeKind::kScheme2,
        SchemeKind::kScheme3}) {
    double base = 0;
    for (int clients : {1, 2, 4, 8}) {
      RunResult run =
          RunOne(scheme, clients, static_cast<uint64_t>(clients * 11 + 3));
      const DriverReport& report = run.report;
      if (clients == 1) base = report.global_throughput;
      std::printf(
          "%-10s %8d %12.1f %10.0f %10.0f %9lldms %8.2fx  %s (%.0f%%)\n",
          mdbs::gtm::SchemeKindName(scheme), clients,
          report.global_throughput, report.global_response.Median(),
          report.global_response.P95(),
          static_cast<long long>(report.duration / 1000),
          base > 0 ? report.global_throughput / base : 0.0,
          run.snapshot ? TxnPhaseName(run.snapshot->bottleneck) : "?",
          run.snapshot ? run.snapshot->bottleneck_share * 100 : 0.0);
      mdbs::bench::BenchReport::Row& row =
          results.AddRow()
              .Set("scheme", mdbs::gtm::SchemeKindName(scheme))
              .Set("threads", static_cast<double>(clients))
              .Set("txns_per_sec", report.global_throughput)
              .Set("resp_p50", report.global_response.Median())
              .Set("resp_p95", report.global_response.P95())
              .Set("duration_us", static_cast<double>(report.duration))
              .Set("scale_x1",
                   base > 0 ? report.global_throughput / base : 0.0);
      if (run.snapshot) AddPhaseBreakdown(row, *run.snapshot);
    }
    std::printf("\n");
  }

  // Fast-path comparison on the certified robust mix.
  mdbs::StatusOr<mdbs::analysis::TemplateMix> mix =
      mdbs::analysis::ParseTemplateMix(kRobustMix);
  if (!mix.ok()) {
    std::fprintf(stderr, "robust mix did not parse: %s\n",
                 mix.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  std::vector<mdbs::site::SiteConfig> sites;
  for (size_t i = 0; i < 3; ++i) {
    mdbs::site::SiteConfig site;
    site.id = mdbs::SiteId(static_cast<int64_t>(i));
    site.protocol = kFastPathSites[i];
    sites.push_back(site);
  }
  mdbs::analysis::AnalysisReport verdict = mdbs::analysis::Analyze(
      *mix, mdbs::analysis::BuildCapabilityMatrix(sites));
  if (!verdict.fast_path_robust) {
    std::fprintf(stderr, "robust mix no longer certifies — fix the bench\n");
    return EXIT_FAILURE;
  }
  std::printf("certified fast path vs stock Scheme3 on a robust mix\n");
  std::printf("3 sites (TO, SGT, TO), certificate: %s\n\n",
              verdict.certificate.c_str());
  std::printf("%-10s %8s %12s %10s %10s %10s\n", "mode", "threads",
              "txns/sec", "resp_p50", "resp_p95", "ser_waits");
  for (int clients : {2, 4, 8}) {
    double stock_tput = 0;
    for (bool fast_path : {false, true}) {
      DriverReport report = RunMix(*mix, fast_path, clients,
                                   static_cast<uint64_t>(clients * 13 + 7));
      if (!fast_path) stock_tput = report.global_throughput;
      std::printf("%-10s %8d %12.1f %10.0f %10.0f %10lld\n",
                  fast_path ? "fast_path" : "stock", clients,
                  report.global_throughput, report.global_response.Median(),
                  report.global_response.P95(),
                  static_cast<long long>(report.gtm2.ser_wait_additions));
      results.AddRow()
          .Set("mode", fast_path ? "fast_path" : "stock")
          .Set("threads", static_cast<double>(clients))
          .Set("txns_per_sec", report.global_throughput)
          .Set("resp_p50", report.global_response.Median())
          .Set("resp_p95", report.global_response.P95())
          .Set("ser_waits",
               static_cast<double>(report.gtm2.ser_wait_additions))
          .Set("fast_path_attempts",
               static_cast<double>(report.gtm1.fast_path_attempts))
          .Set("speedup_vs_stock",
               fast_path && stock_tput > 0
                   ? report.global_throughput / stock_tput
                   : 1.0);
    }
  }

  // E14 — always-on metrics overhead A/B: the same Scheme 3 cells with the
  // metrics engine on vs off. Budget: <2% throughput loss with it on.
  std::printf("\nE14 — metrics engine overhead (Scheme3, on vs off)\n");
  std::printf("%-12s %8s %12s %10s\n", "mode", "threads", "txns/sec",
              "overhead");
  for (int clients : {2, 4, 8}) {
    double tput_off = 0;
    for (bool metrics_on : {false, true}) {
      RunResult run = RunOne(SchemeKind::kScheme3, clients,
                             static_cast<uint64_t>(clients * 17 + 1),
                             metrics_on);
      const DriverReport& report = run.report;
      if (!metrics_on) tput_off = report.global_throughput;
      double overhead =
          metrics_on && tput_off > 0
              ? 1.0 - report.global_throughput / tput_off
              : 0.0;
      std::printf("%-12s %8d %12.1f %9.1f%%\n",
                  metrics_on ? "metrics_on" : "metrics_off", clients,
                  report.global_throughput, overhead * 100);
      mdbs::bench::BenchReport::Row& row =
          results.AddRow()
              .Set("mode", metrics_on ? "metrics_on" : "metrics_off")
              .Set("threads", static_cast<double>(clients))
              .Set("txns_per_sec", report.global_throughput)
              .Set("resp_p50", report.global_response.Median())
              .Set("resp_p95", report.global_response.P95())
              .Set("metrics_overhead", overhead);
      if (run.snapshot) AddPhaseBreakdown(row, *run.snapshot);
    }
  }

  results.WriteFromArgs(argc, argv);
  return 0;
}
