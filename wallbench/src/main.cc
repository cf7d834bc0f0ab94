// wallbench: wall-clock benchmark of the threaded MDBS engine.
//
//   wallbench --workload hop|durable --seed N --seconds S --trace 0|1
//             [--probe-spin-us U] [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics of timed sub-runs on fresh MDBS
// instances (after a memory pass, with set-up measurements between them);
// --trace 1 reports per-layer numbers from traced sub-runs, each paired with
// a plain one of the same seed and length. Both check the program's outputs
// and end with an untimed audited pass. The result is one JSON object on
// stdout; run.py turns it into the benchmark's result line. NOTES.md explains
// the workloads and metrics.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "closed_loop.h"
#include "gtm/gtm2.h"
#include "mdbs/mdbs.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "probes.h"
#include "seams.h"
#include "storage/recovery.h"
#include "workloads.h"

namespace wallbench {
namespace {

// Set-up is measured this many times before each --trace 0 sub-run, so its
// samples spread over the run rather than one moment of the machine.
constexpr int kSetupsPerSubRun = 15;
constexpr double kWarmupSeconds = 0.5;
// --trace 0 splits --seconds into sub-runs of about this length, each on a
// fresh MDBS, and pools them: a stall that sets off the health monitor's
// false site-down feedback lasts at most one sub-run, and state the program
// never trims grows for 4 s, not for the whole run.
constexpr double kSubRunSeconds = 4.0;
constexpr int64_t kPoolTxns = 32'768;
constexpr int64_t kAuditedSubmits = 400;
constexpr size_t kSpanCapacity = size_t{1} << 17;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int64_t probe_spin_us = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--probe-spin-us") {
      args->probe_spin_us = std::atoll(value.c_str());
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && args->probe_spin_us >= 0;
}

// Named pass/fail checks of the program's outputs; any failure makes the
// run incorrect.
class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    ok_ = ok_ && ok;
    if (!ok) problems_.push_back(name + ": " + detail);
    results_[name] = results_.count(name) == 0 ? ok : results_[name] && ok;
  }
  bool ok() const { return ok_; }
  const std::map<std::string, bool>& results() const { return results_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  bool ok_ = true;
  std::map<std::string, bool> results_;
  std::vector<std::string> problems_;
};

std::string Num(int64_t v) { return std::to_string(v); }

// Counts reconcile, the GTM agrees with the generator, nothing is left in
// flight, and the metrics engine's phase accounting balances.
void CheckCounts(const std::string& run, mdbs::Mdbs& system,
                 const LoopResult& loop, Checks* checks) {
  checks->Expect("counts_reconcile",
                 loop.submitted == loop.committed + loop.failed,
                 run + " submitted " + Num(loop.submitted) + " != committed " +
                     Num(loop.committed) + " + failed " + Num(loop.failed));
  checks->Expect("callbacks_once",
                 loop.callbacks == loop.submitted &&
                     loop.duplicate_callbacks == 0,
                 run + " callbacks " + Num(loop.callbacks) + ", duplicates " +
                     Num(loop.duplicate_callbacks) + ", submitted " +
                     Num(loop.submitted));
  checks->Expect("nothing_in_flight",
                 loop.left_in_flight == 0 && system.gtm().InFlight() == 0,
                 run + " generator " + Num(loop.left_in_flight) + ", GTM " +
                     Num(system.gtm().InFlight()));
  const mdbs::gtm::Gtm1Stats& stats = system.gtm().stats();
  checks->Expect("gtm_agrees",
                 stats.submitted == loop.submitted &&
                     stats.committed == loop.committed &&
                     stats.failed == loop.failed,
                 run + " GTM submitted/committed/failed " +
                     Num(stats.submitted) + "/" + Num(stats.committed) + "/" +
                     Num(stats.failed));
  if (system.metrics() != nullptr) {
    const mdbs::obs::MetricsSnapshot snapshot = system.metrics()->Snapshot();
    checks->Expect("balance_violations_zero", snapshot.balance_violations == 0,
                   run + " " + Num(snapshot.balance_violations));
  }
}

// Every site's WAL image recovers to exactly the live store: every
// acknowledged commit is durable and nothing else is.
void CheckDurable(const std::string& run, mdbs::Mdbs& system,
                  const InputPool& pool, Checks* checks) {
  std::map<int64_t, std::set<int64_t>> written;  // site -> items
  for (const std::vector<CompactTxn>& stream : pool.per_client) {
    for (const CompactTxn& txn : stream) {
      for (const CompactOp& op : txn.ops) {
        if (op.write) written[op.site].insert(op.item);
      }
    }
  }
  const std::vector<mdbs::SiteId> mv_sites = system.MultiversionSites();
  for (mdbs::SiteId id : system.site_ids()) {
    mdbs::site::LocalDbms& site = system.site(id);
    mdbs::storage::RecoveredState recovered;
    const bool multiversion =
        std::find(mv_sites.begin(), mv_sites.end(), id) != mv_sites.end();
    const mdbs::Status status =
        mdbs::storage::RecoverWal(*site.wal_device(), multiversion, &recovered);
    int64_t mismatches = 0;
    for (const auto& [item, value] : recovered.store) {
      if (site.UnsafePeek(mdbs::DataItemId(item)) != value) ++mismatches;
    }
    for (int64_t item : written[id.value()]) {
      auto it = recovered.store.find(item);
      const int64_t expect = it == recovered.store.end() ? 0 : it->second;
      if (site.UnsafePeek(mdbs::DataItemId(item)) != expect) ++mismatches;
    }
    checks->Expect("wal_recovers_live_store",
                   status.ok() && !recovered.torn_tail && mismatches == 0,
                   run + " site " + mdbs::ToString(id) + ": " +
                       status.ToString() + ", " + Num(mismatches) +
                       " mismatched items");
  }
}

// Peak RSS of a fresh process through a fixed number of transactions: the
// first MDBS the process builds, so no earlier instance's freed heap is in
// it, and a fixed count, so it does not follow the run's throughput. The
// count is about one timed sub-run's commits, so state that grows with every
// transaction is in the peak as it is in a sub-run.
double MemoryPass(const Workload& workload, uint64_t seed,
                  const InputPool& pool, Checks* checks) {
  mdbs::Mdbs system(MakeConfig(workload, seed));
  LoopOptions options;
  options.max_submits = workload.memory_txns;
  const LoopResult loop = RunClosedLoop(&system, pool, options);
  system.FinishThreadedRun();
  const double peak = PeakRssMb();
  CheckCounts("memory", system, loop, checks);
  return peak;
}

// Untimed pass with the invariant auditor on: its hooks stay silent and the
// end-of-run oracle (local CSR, serialization keys, strictness, global CSR)
// passes.
void AuditedPass(const Workload& workload, uint64_t seed,
                 const InputPool& pool, Checks* checks) {
  mdbs::MdbsConfig config = MakeConfig(workload, seed + 7);
  config.audit.enabled = true;
  config.audit.fail_fast = false;
  mdbs::Mdbs system(config);
  LoopOptions options;
  options.max_submits = kAuditedSubmits;
  const LoopResult loop = RunClosedLoop(&system, pool, options);
  system.FinishThreadedRun();
  CheckCounts("audited", system, loop, checks);
  const mdbs::Status oracle = system.RunAuditOracle();
  checks->Expect("audit_oracle", oracle.ok() && system.auditor().clean(),
                 oracle.ToString() + ", " +
                     Num(system.auditor().total_reported()) + " violations");
}

double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  rank = std::min(rank, values.size() - 1);
  return static_cast<double>(values[rank]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Minimal JSON emitter. Unlike obs::JsonWriter (six significant digits) it
// prints doubles with all their digits, as measured.
class JsonOut {
 public:
  explicit JsonOut(std::ostream& os) : os_(os) {}
  JsonOut& BeginObject() { return Open('{'); }
  JsonOut& EndObject() { return Close('}'); }
  JsonOut& BeginArray() { return Open('['); }
  JsonOut& EndArray() { return Close(']'); }
  JsonOut& Key(const std::string& name) {
    Separate();
    os_ << '"' << mdbs::obs::EscapeJson(name) << "\":";
    after_key_ = true;
    return *this;
  }
  JsonOut& String(const std::string& v) {
    Separate();
    os_ << '"' << mdbs::obs::EscapeJson(v) << '"';
    return *this;
  }
  JsonOut& Int(int64_t v) {
    Separate();
    os_ << v;
    return *this;
  }
  JsonOut& Double(double v) {
    Separate();
    if (!std::isfinite(v)) {
      os_ << "null";
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      os_ << buf;
    }
    return *this;
  }
  JsonOut& Bool(bool v) {
    Separate();
    os_ << (v ? "true" : "false");
    return *this;
  }

 private:
  JsonOut& Open(char c) {
    Separate();
    os_ << c;
    first_.push_back(true);
    return *this;
  }
  JsonOut& Close(char c) {
    os_ << c;
    first_.pop_back();
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
  }
  std::ostream& os_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// One timed run on `config`, checked; `inspect` reads the quiescent system
// before it is torn down.
LoopResult TimedRun(const Workload& workload, const Args& args,
                    const InputPool& pool, const mdbs::MdbsConfig& config,
                    double measure_s, SpanLog* spans, const std::string& name,
                    Checks* checks,
                    const std::function<void(mdbs::Mdbs&, const LoopResult&)>&
                        inspect) {
  mdbs::Mdbs system(config);
  LoopOptions options;
  options.warmup_s = kWarmupSeconds;
  options.measure_s = measure_s;
  options.probe_spin_ns = args.probe_spin_us * 1000;
  options.spans = spans;
  const LoopResult loop = RunClosedLoop(&system, pool, options);
  system.FinishThreadedRun();
  checks->Expect("interval_complete", loop.interval_complete,
                 name + " interval never ended");
  CheckCounts(name, system, loop, checks);
  if (workload.durable) CheckDurable(name, system, pool, checks);
  inspect(system, loop);
  return loop;
}

// The run without seams: the numbers users see.
struct PlainRun {
  LoopResult loop;
  mdbs::gtm::Gtm1Stats gtm1;
  mdbs::gtm::Gtm2Stats gtm2;
};

PlainRun RunPlain(const Workload& workload, const Args& args,
                  const InputPool& pool, uint64_t seed, double measure_s,
                  Checks* checks) {
  PlainRun run;
  run.loop = TimedRun(workload, args, pool, MakeConfig(workload, seed),
                      measure_s, nullptr, "plain", checks,
                      [&run](mdbs::Mdbs& system, const LoopResult&) {
                        run.gtm1 = system.gtm().stats();
                        run.gtm2 = system.gtm().gtm2().stats();
                      });
  return run;
}

// Process user+sys CPU per 1,000 commits, pooled over the runs' intervals.
double CpuMsPerKtxn(const std::vector<PlainRun>& runs) {
  double commits = 0;
  double cpu_s = 0;
  for (const PlainRun& run : runs) {
    commits += static_cast<double>(run.loop.interval_committed);
    cpu_s += run.loop.process_cpu_s;
  }
  return Ratio(cpu_s * 1e6, commits);
}

// The sub-runs pooled: commits summed over their intervals, the p50 over
// all their samples. The p99 is the median of the sub-runs' p99s: a pooled
// p99 is set by the worst sub-run alone.
std::vector<Metric> EndToEndMetrics(const std::vector<PlainRun>& runs,
                                    const std::vector<double>& setup_samples,
                                    double max_rss_mb) {
  std::vector<int64_t> latencies;
  std::vector<double> p99s;
  double commits = 0;
  double seconds = 0;
  for (const PlainRun& run : runs) {
    latencies.insert(latencies.end(), run.loop.latencies_ns.begin(),
                     run.loop.latencies_ns.end());
    p99s.push_back(Percentile(run.loop.latencies_ns, 0.99) / 1e3);
    commits += static_cast<double>(run.loop.interval_committed);
    seconds += run.loop.interval_s;
  }
  return {
      {"goodput_tps", Ratio(commits, seconds), "1/s"},
      {"latency_p50_us", Percentile(latencies, 0.5) / 1e3, "us"},
      {"latency_p99_us", Median(p99s), "us"},
      {"setup_s", Median(setup_samples), "s"},
      {"max_rss_mb", max_rss_mb, "MiB"},
  };
}

// Counters of the traced sub-runs, summed over their MDBS instances (each
// read while quiescent, before it is torn down).
struct LayerCounts {
  int64_t committed = 0;  // whole runs: warm-up, interval and drain
  int64_t finished = 0;
  double run_wall_s = 0;
  int64_t timeouts = 0;
  int64_t attempts = 0;
  int64_t partial_commits = 0;
  int64_t site_down_aborts = 0;
  int64_t cond_evaluations = 0;
  int64_t failed_rescan_steps = 0;
  int64_t ser_wait_additions = 0;
  int64_t wait_depth_max = 0;
  int64_t site_blocked = 0;
  int64_t site_aborts = 0;
  int64_t phase_committed = 0;
  std::array<int64_t, mdbs::obs::kTxnPhaseCount> phase_ticks{};
  int64_t wal_appends = 0;
  int64_t wal_bytes = 0;
  int64_t wal_syncs = 0;
  int64_t gtm_wal_bytes = 0;
};

void AddLayerCounts(
    mdbs::Mdbs& system, const LoopResult& loop,
    const std::vector<std::shared_ptr<TimedLogDevice>>& site_wals,
    const TimedLogDevice* gtm_wal, LayerCounts* c) {
  c->committed += loop.committed;
  c->finished += loop.committed + loop.failed;
  c->run_wall_s += loop.run_wall_s;
  const mdbs::gtm::Gtm1Stats& g1 = system.gtm().stats();
  const mdbs::gtm::Gtm2Stats& g2 = system.gtm().gtm2().stats();
  c->timeouts += g1.timeouts;
  c->attempts += g1.attempts;
  c->partial_commits += g1.partial_commits;
  c->site_down_aborts += g1.site_down_aborts;
  c->cond_evaluations += g2.cond_evaluations;
  c->failed_rescan_steps += g2.failed_rescan_steps;
  c->ser_wait_additions += g2.ser_wait_additions;
  const mdbs::obs::MetricsSnapshot snapshot = system.metrics()->Snapshot();
  for (const mdbs::obs::TimelinePoint& point : snapshot.timeline) {
    c->wait_depth_max = std::max(c->wait_depth_max, point.max_wait_depth);
  }
  c->phase_committed += snapshot.committed;
  for (size_t i = 0; i < c->phase_ticks.size(); ++i) {
    c->phase_ticks[i] += snapshot.phase_ticks[i];
  }
  for (mdbs::SiteId id : system.site_ids()) {
    c->site_blocked += system.site(id).blocked_count();
    c->site_aborts += system.site(id).abort_count();
  }
  for (const auto& device : site_wals) {
    c->wal_appends += device->appends();
    c->wal_bytes += device->bytes();
    c->wal_syncs += device->syncs();
  }
  if (gtm_wal != nullptr) c->gtm_wal_bytes += gtm_wal->bytes();
}

// Per-layer numbers of the traced sub-runs, from their summed counters, the
// span totals and the timed log devices.
std::vector<Metric> LayerMetrics(const LayerCounts& c, const SpanLog& spans) {
  std::vector<Metric> metrics;
  const double commits = static_cast<double>(c.committed);
  const double finished = static_cast<double>(c.finished);
  auto per_commit = [&](int64_t v) {
    return Ratio(static_cast<double>(v), commits);
  };
  auto per_ktxn = [&](int64_t v) {
    return Ratio(static_cast<double>(v) * 1e3, finished);
  };

  const SpanLog::Totals cond = spans.totals(SpanName::kSchemeCond);
  const SpanLog::Totals act = spans.totals(SpanName::kSchemeAct);
  const SpanLog::Totals cleanup = spans.totals(SpanName::kSchemeCleanup);
  const SpanLog::Totals state = spans.totals(SpanName::kSchemeState);
  const int64_t scheme_ns =
      cond.total_ns + act.total_ns + cleanup.total_ns + state.total_ns;
  metrics.push_back(
      {"gtm.scheme.calls_per_txn",
       per_commit(cond.count + act.count + cleanup.count + state.count),
       "count"});
  metrics.push_back({"gtm.scheme.busy_us_per_txn",
                     per_commit(scheme_ns) / 1e3, "us"});
  metrics.push_back({"gtm.scheme.cond_ns",
                     Ratio(static_cast<double>(cond.total_ns),
                           static_cast<double>(cond.count)),
                     "ns"});
  metrics.push_back({"gtm.scheme.act_ns",
                     Ratio(static_cast<double>(act.total_ns),
                           static_cast<double>(act.count)),
                     "ns"});
  metrics.push_back({"gtm.scheme.busy_share",
                     Ratio(static_cast<double>(scheme_ns), c.run_wall_s * 1e9),
                     "ratio"});

  metrics.push_back({"gtm.cond_evals_per_commit",
                     per_commit(c.cond_evaluations), "count"});
  metrics.push_back({"gtm.failed_rescan_steps_per_commit",
                     per_commit(c.failed_rescan_steps), "count"});
  metrics.push_back({"gtm.ser_waits_per_commit",
                     per_commit(c.ser_wait_additions), "count"});
  metrics.push_back({"gtm.wait_depth_max",
                     static_cast<double>(c.wait_depth_max), "count"});
  metrics.push_back(
      {"gtm.timeouts_per_ktxn", per_ktxn(c.timeouts), "count"});
  metrics.push_back(
      {"gtm.attempts_per_commit", per_commit(c.attempts), "count"});
  metrics.push_back({"gtm.partial_commits_per_ktxn",
                     per_ktxn(c.partial_commits), "count"});
  metrics.push_back({"mdbs.health.false_down_aborts",
                     static_cast<double>(c.site_down_aborts), "count"});
  metrics.push_back(
      {"site.blocked_per_ktxn", per_ktxn(c.site_blocked), "count"});
  metrics.push_back(
      {"site.aborts_per_ktxn", per_ktxn(c.site_aborts), "count"});

  for (int i = 0; i < mdbs::obs::kTxnPhaseCount; ++i) {
    const auto phase = static_cast<mdbs::obs::TxnPhase>(i);
    metrics.push_back(
        {std::string("phase.") + mdbs::obs::TxnPhaseName(phase) + "_us",
         Ratio(static_cast<double>(c.phase_ticks[static_cast<size_t>(i)]),
               static_cast<double>(c.phase_committed)),
         "us"});
  }

  metrics.push_back(
      {"storage.wal.appends_per_txn", per_commit(c.wal_appends), "count"});
  metrics.push_back(
      {"storage.wal.bytes_per_txn", per_commit(c.wal_bytes), "B"});
  metrics.push_back(
      {"storage.gtm_wal.bytes_per_txn", per_commit(c.gtm_wal_bytes), "B"});
  metrics.push_back(
      {"storage.wal.append_us_per_txn",
       per_commit(spans.totals(SpanName::kSiteWalAppend).total_ns) / 1e3,
       "us"});
  metrics.push_back(
      {"storage.wal.syncs_per_txn", per_commit(c.wal_syncs), "count"});
  return metrics;
}

// One traced sub-run: seams installed, same seed, inputs and length as the
// plain sub-run it is paired with. Its counters are added to `counts`.
LoopResult RunTraced(const Workload& workload, const Args& args,
                     const InputPool& pool, uint64_t seed, double measure_s,
                     SpanLog* spans, LayerCounts* counts, Checks* checks) {
  mdbs::MdbsConfig config = MakeConfig(workload, seed);
  config.gtm.scheme_factory = [spans]() {
    return std::make_unique<TimedScheme>(
        mdbs::gtm::MakeScheme(mdbs::gtm::SchemeKind::kScheme3), spans);
  };
  std::vector<std::shared_ptr<TimedLogDevice>> site_wals;
  std::shared_ptr<TimedLogDevice> gtm_wal;
  if (workload.durable) {
    for (mdbs::site::SiteConfig& site : config.sites) {
      site_wals.push_back(std::make_shared<TimedLogDevice>(
          spans, SpanName::kSiteWalAppend, SpanName::kSiteWalSync));
      site.wal_device = site_wals.back();
    }
    gtm_wal = std::make_shared<TimedLogDevice>(
        spans, SpanName::kGtmWalAppend, SpanName::kGtmWalSync);
    config.gtm.wal_device = gtm_wal;
  }
  return TimedRun(workload, args, pool, config, measure_s, spans, "traced",
                  checks, [&](mdbs::Mdbs& system, const LoopResult& loop) {
                    AddLayerCounts(system, loop, site_wals, gtm_wal.get(),
                                   counts);
                  });
}

// --trace 1: plain and traced sub-runs alternate in pairs on the same seeds,
// half of --seconds each, so the trace overhead compares runs of the same
// moments and inputs; then the standalone probes and the validity numbers.
std::vector<Metric> RunLayers(const Workload& workload, const Args& args,
                              const InputPool& pool, int pairs,
                              std::vector<PlainRun>* plain,
                              std::vector<LoopResult>* traced,
                              Checks* checks) {
  SpanLog spans(kSpanCapacity);
  LayerCounts counts;
  const double measure_s = args.seconds / (2 * pairs);
  for (int r = 0; r < pairs; ++r) {
    const uint64_t seed = args.seed + static_cast<uint64_t>(r);
    plain->push_back(RunPlain(workload, args, pool, seed, measure_s, checks));
    traced->push_back(RunTraced(workload, args, pool, seed, measure_s, &spans,
                                &counts, checks));
  }
  std::vector<Metric> metrics = LayerMetrics(counts, spans);

  // Pooled over the sub-runs' timed intervals: commits and seconds for
  // goodput, generator and process CPU for the generator's share.
  double plain_commits = 0;
  double plain_s = 0;
  double generator_cpu_s = 0;
  double process_cpu_s = 0;
  for (const PlainRun& run : *plain) {
    plain_commits += static_cast<double>(run.loop.interval_committed);
    plain_s += run.loop.interval_s;
    generator_cpu_s += run.loop.generator_cpu_s;
    process_cpu_s += run.loop.process_cpu_s;
  }
  double traced_commits = 0;
  double traced_s = 0;
  std::vector<int64_t> latencies;
  for (const LoopResult& loop : *traced) {
    traced_commits += static_cast<double>(loop.interval_committed);
    traced_s += loop.interval_s;
    latencies.insert(latencies.end(), loop.latencies_ns.begin(),
                     loop.latencies_ns.end());
  }

  const ProbeResults probes = RunProbes(pool, args.seed, latencies);
  metrics.push_back({"sim.strand.handoff_us", probes.strand_handoff_us, "us"});
  metrics.push_back(
      {"sim.strand.timer_late_us", probes.strand_timer_late_us, "us"});
  metrics.push_back(
      {"gtm.harness.s3_us_per_txn", probes.harness_s3_us_per_txn, "us"});
  metrics.push_back(
      {"lcc.lock.acquire_release_ns", probes.lock_acquire_release_ns, "ns"});
  metrics.push_back({"storage.frame.append_ns", probes.frame_append_ns, "ns"});
  metrics.push_back(
      {"obs.histogram.record_ns", probes.histogram_record_ns, "ns"});

  // CPU per commit is host-bound (see NOTES.md), so it is reported here,
  // ungated, from the plain sub-runs.
  metrics.push_back({"process.cpu_ms_per_ktxn",
                     Ratio(process_cpu_s * 1e6, plain_commits), "ms"});
  metrics.push_back(
      {"bench.trace_overhead",
       1.0 - Ratio(Ratio(traced_commits, traced_s),
                   Ratio(plain_commits, plain_s)),
       "ratio"});
  metrics.push_back({"bench.generator_cpu_share",
                     Ratio(generator_cpu_s, process_cpu_s), "ratio"});

  if (!args.spans_out.empty()) {
    checks->Expect("spans_written", spans.WriteCsv(args.spans_out),
                   "cannot write " + args.spans_out);
  }
  std::fprintf(stderr, "wallbench: %lld spans kept, %lld dropped\n",
               static_cast<long long>(spans.kept()),
               static_cast<long long>(spans.dropped()));
  return metrics;
}

void WriteMetrics(JsonOut& json, const std::vector<Metric>& list) {
  json.BeginObject();
  for (const Metric& m : list) {
    json.Key(m.name).BeginObject();
    json.Key("value").Double(m.value);
    json.Key("unit").String(m.unit);
    json.EndObject();
  }
  json.EndObject();
}

void WriteLoop(JsonOut& json, const LoopResult& loop) {
  json.BeginObject();
  json.Key("submitted").Int(loop.submitted);
  json.Key("committed").Int(loop.committed);
  json.Key("failed").Int(loop.failed);
  json.Key("partial_failed").Int(loop.partial_failed);
  json.Key("pool_wraps").Int(loop.pool_wraps);
  json.Key("run_wall_s").Double(loop.run_wall_s);
  json.Key("interval_s").Double(loop.interval_s);
  json.Key("interval_committed").Int(loop.interval_committed);
  json.Key("interval_failed").Int(loop.interval_failed);
  json.Key("latency_samples").Int(static_cast<int64_t>(loop.latencies_ns.size()));
  json.Key("latency_p50_us").Double(Percentile(loop.latencies_ns, 0.5) / 1e3);
  json.Key("latency_p99_us").Double(Percentile(loop.latencies_ns, 0.99) / 1e3);
  json.Key("latency_p999_us").Double(Percentile(loop.latencies_ns, 0.999) / 1e3);
  json.Key("process_cpu_s").Double(loop.process_cpu_s);
  json.Key("generator_cpu_s").Double(loop.generator_cpu_s);
  json.Key("window_commits").BeginArray();
  for (int64_t c : loop.window_commits) json.Int(c);
  json.EndArray();
  json.EndObject();
}

void WriteGtmStats(JsonOut& json, const PlainRun& run) {
  json.BeginObject();
  json.Key("attempts").Int(run.gtm1.attempts);
  json.Key("aborted_attempts").Int(run.gtm1.aborted_attempts);
  json.Key("timeouts").Int(run.gtm1.timeouts);
  json.Key("partial_commits").Int(run.gtm1.partial_commits);
  json.Key("site_down_aborts").Int(run.gtm1.site_down_aborts);
  json.Key("parked").Int(run.gtm1.parked);
  json.Key("cond_evaluations").Int(run.gtm2.cond_evaluations);
  json.Key("failed_rescan_steps").Int(run.gtm2.failed_rescan_steps);
  json.Key("ser_wait_additions").Int(run.gtm2.ser_wait_additions);
  json.EndObject();
}

void WriteWorkload(JsonOut& json, const Workload& w) {
  json.BeginObject();
  json.Key("name").String(w.name);
  json.Key("protocols").BeginArray();
  for (mdbs::lcc::ProtocolKind p : w.protocols) {
    json.String(mdbs::lcc::ProtocolKindName(p));
  }
  json.EndArray();
  json.Key("scheme").String("Scheme3");
  json.Key("clients").Int(w.clients);
  json.Key("loop").String("closed, no think time");
  json.Key("items_per_site").Int(w.items_per_site);
  json.Key("disjoint_keys").Bool(w.disjoint_keys);
  json.Key("keys_per_client").Int(w.keys_per_client);
  json.Key("dav").String(std::to_string(kDavMin) + "-" +
                         std::to_string(kDavMax));
  json.Key("ops_per_site").String(std::to_string(kOpsPerSiteMin) + "-" +
                                  std::to_string(kOpsPerSiteMax));
  json.Key("read_ratio").Double(w.read_ratio);
  json.Key("net_delay_us").Int(mdbs::MdbsConfig{}.net_delay);
  json.Key("op_service_time_us")
      .Int(mdbs::site::SiteConfig{}.op_service_time);
  json.Key("commit_service_time_us")
      .Int(mdbs::site::SiteConfig{}.commit_service_time);
  json.Key("durable").Bool(w.durable);
  json.Key("memory_txns").Int(w.memory_txns);
  json.EndObject();
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "wallbench: refusing to report from a build without "
               "NDEBUG\n");
  return 2;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "wallbench: refusing to report from a sanitizer "
               "build\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: wallbench --workload hop|durable "
                 "--seed N --seconds S --trace 0|1 "
                 "[--probe-spin-us U] [--spans-out PATH]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "wallbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Before any thread exists, so every strand inherits the binding.
  const int bound_cpus = BindCpus(kBoundCpus);

  // Inputs first, untimed.
  const int64_t gen_start = NowNs();
  const InputPool pool = GenerateInputs(
      *workload, args.seed,
      std::max<int64_t>(256, kPoolTxns / workload->clients));
  const double generation_s = static_cast<double>(NowNs() - gen_start) * 1e-9;

  Checks checks;
  std::vector<Metric> metrics;
  // In the record and read by the self-test, but not a reported metric.
  std::vector<Metric> diagnostics;
  std::vector<double> setup_samples;
  std::vector<PlainRun> plain;
  std::vector<LoopResult> traced;
  // --trace 0: sub-runs of about kSubRunSeconds; --trace 1: pairs of a
  // plain and a traced sub-run of about that length each.
  const int subruns = std::max(
      1, static_cast<int>(std::lround(args.seconds / kSubRunSeconds /
                                      (args.trace == 0 ? 1 : 2))));

  if (args.trace == 0) {
    const double max_rss_mb = MemoryPass(*workload, args.seed, pool, &checks);
    for (int r = 0; r < subruns; ++r) {
      for (int k = 0; k < kSetupsPerSubRun; ++k) {
        const int rep = static_cast<int>(setup_samples.size());
        const uint64_t seed = args.seed + 1000 + static_cast<uint64_t>(rep);
        setup_samples.push_back(
            MeasureSetup(MakeConfig(*workload, seed), pool, rep));
      }
      plain.push_back(RunPlain(*workload, args, pool,
                               args.seed + static_cast<uint64_t>(r),
                               args.seconds / subruns, &checks));
    }
    metrics = EndToEndMetrics(plain, setup_samples, max_rss_mb);
    diagnostics.push_back({"cpu_ms_per_ktxn", CpuMsPerKtxn(plain), "ms"});
  } else {
    metrics =
        RunLayers(*workload, args, pool, subruns, &plain, &traced, &checks);
  }

  AuditedPass(*workload, args.seed, pool, &checks);

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const PlainRun& run : plain) {
    attempted += run.loop.submitted;
    failed += run.loop.failed;
  }
  for (const LoopResult& loop : traced) {
    attempted += loop.submitted;
    failed += loop.failed;
  }

  JsonOut json(std::cout);
  json.BeginObject();
  json.Key("correct").Bool(checks.ok());
  json.Key("attempted").Int(attempted);
  json.Key("failed").Int(failed);
  json.Key("metrics");
  WriteMetrics(json, metrics);
  json.Key("diagnostics");
  WriteMetrics(json, diagnostics);
  json.Key("checks").BeginObject();
  for (const auto& [name, ok] : checks.results()) json.Key(name).Bool(ok);
  json.EndObject();
  json.Key("problems").BeginArray();
  for (const std::string& p : checks.problems()) json.String(p);
  json.EndArray();
  json.Key("build").BeginObject();
  json.Key("compiler").String(__VERSION__);
  json.Key("build_type").String(WALLBENCH_BUILD_TYPE);
  json.Key("cxx_flags").String(WALLBENCH_CXX_FLAGS);
  json.Key("bound_cpus").Int(bound_cpus);
  json.Key("handoff_probe_cpus").Int(kHandoffProbeCpus);
  json.Key("hardware_threads")
      .Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.EndObject();
  json.Key("params").BeginObject();
  json.Key("seed").Int(static_cast<int64_t>(args.seed));
  json.Key("seconds").Double(args.seconds);
  json.Key("warmup_s").Double(kWarmupSeconds);
  json.Key("trace").Int(args.trace);
  json.Key("probe_spin_us").Int(args.probe_spin_us);
  json.Key("setup_repetitions")
      .Int(static_cast<int64_t>(setup_samples.size()));
  json.Key("plain_runs").Int(static_cast<int64_t>(plain.size()));
  json.Key("audited_submits").Int(kAuditedSubmits);
  json.Key("memory_pass_submits")
      .Int(args.trace == 0 ? workload->memory_txns : 0);
  json.Key("pool_txns").Int(pool.total_txns);
  json.Key("pool_ops").Int(pool.total_ops);
  json.Key("input_generation_s").Double(generation_s);
  json.Key("workload");
  WriteWorkload(json, *workload);
  json.EndObject();
  json.Key("raw").BeginObject();
  json.Key("setup_s_samples").BeginArray();
  for (double s : setup_samples) json.Double(s);
  json.EndArray();
  json.Key("plain").BeginArray();
  for (const PlainRun& run : plain) {
    json.BeginObject();
    json.Key("loop");
    WriteLoop(json, run.loop);
    json.Key("gtm");
    WriteGtmStats(json, run);
    json.EndObject();
  }
  json.EndArray();
  json.Key("traced").BeginArray();
  for (const LoopResult& loop : traced) WriteLoop(json, loop);
  json.EndArray();
  json.EndObject();
  json.EndObject();
  std::cout << std::endl;
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) { return wallbench::Main(argc, argv); }
