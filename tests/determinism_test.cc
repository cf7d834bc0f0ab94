// The discrete-event engine must stay bit-for-bit deterministic: the
// threaded engine deliberately gives up reproducibility,
// so the simulator is the only place a schedule can be replayed exactly —
// any nondeterminism creeping in (iteration-order dependence, shared
// mutable state, wall-clock reads) breaks differential debugging.
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/template.h"
#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace_export.h"
#include "sim/metrics.h"
#include "storage/log_device.h"
#include "storage/recovery.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

MdbsConfig SystemConfig(uint64_t seed) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic},
      SchemeKind::kScheme3);
  config.seed = seed;
  return config;
}

DriverConfig Workload() {
  DriverConfig config;
  config.global_clients = 6;
  config.local_clients_per_site = 2;
  config.target_global_commits = 50;
  config.global_workload.items_per_site = 25;
  config.local_workload.items_per_site = 25;
  return config;
}

std::string RunOnce(uint64_t system_seed, uint64_t driver_seed) {
  Mdbs system(SystemConfig(system_seed));
  return RunDriver(&system, Workload(), driver_seed).ToString();
}

TEST(DeterminismTest, SameSeedReproducesTheReportExactly) {
  std::string first = RunOnce(7, 13);
  std::string second = RunOnce(7, 13);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, DifferentDriverSeedChangesTheRun) {
  // Guards against the opposite failure: a report that ignores the seed
  // (e.g. counters frozen at config values) would pass the test above.
  std::string first = RunOnce(7, 13);
  std::string other = RunOnce(7, 14);
  EXPECT_NE(first, other);
}

TEST(DeterminismTest, CrashInjectionStaysDeterministic) {
  auto run = []() {
    MdbsConfig config = SystemConfig(21);
    config.fault_plan.periodic = fault::PeriodicCrashes{3000, 1500};
    Mdbs system(config);
    return RunDriver(&system, Workload(), 34).ToString();
  };
  std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first.find("plan_crashes=0"), std::string::npos) << first;
}

// Plan crashes, request/response loss, duplication and delay spikes,
// with a health monitor quick enough to park transactions on down sites.
MdbsConfig FaultPlanConfig() {
  MdbsConfig config = SystemConfig(9);
  fault::FaultPlan plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/3000, /*duration=*/1500);
  plan.request_loss = 0.03;
  plan.response_loss = 0.03;
  plan.duplicate = 0.03;
  plan.delay_spike = 0.05;
  plan.spike_ticks = 150;
  plan.seed = 123;
  config.fault_plan = plan;
  config.gtm.attempt_timeout = 10'000;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  return config;
}

// The whole fault pipeline — plan crashes, request/response loss,
// duplication, delay spikes, quarantine parking and the driver's retry
// layer — must replay byte-for-byte from the same plan and seeds.
TEST(DeterminismTest, FaultPlanReplaysByteForByte) {
  auto run = []() {
    DriverConfig workload = Workload();
    workload.retry.max_resubmissions = 2;
    Mdbs system(FaultPlanConfig());
    return RunDriver(&system, workload, 17).ToString();
  };
  EXPECT_EQ(run(), run());
}

// Durability must not cost determinism: the same seeded run with durable
// sites and a crash plan must reproduce the full JSON report — counters,
// latency summaries, and the recovery times the crash plan generates —
// byte for byte.
TEST(DeterminismTest, DurableRecoveryReplaysTheJsonReportByteForByte) {
  auto run = []() {
    MdbsConfig config = SystemConfig(11);
    config.fault_plan = fault::FaultPlan::CrashSweep(
        /*num_sites=*/4, /*first_at=*/2000, /*gap=*/3000,
        /*duration=*/1500);
    config.gtm.attempt_timeout = 10'000;
    config.health.probe_interval = 300;
    config.health.suspect_after = 600;
    config.health.down_after = 1200;
    for (site::SiteConfig& site : config.sites) {
      site.durable = true;
      site.checkpoint_interval = 48;
      site.recovery_time_per_record = 1;
    }
    DriverConfig workload = Workload();
    workload.retry.max_resubmissions = 2;
    Mdbs system(config);
    DriverReport report = RunDriver(&system, workload, 23);
    EXPECT_GT(report.durability.recoveries, 0)
        << "the crash plan never exercised recovery";

    sim::MetricsRegistry registry;
    report.AddToRegistry(&registry);
    obs::AddSnapshotToRegistry(system.metrics()->Snapshot(), &registry);
    std::ostringstream json;
    obs::WriteJsonReport(json, {{"test", "durable-determinism"}}, registry);
    std::string text = json.str();
    EXPECT_NE(text.find("recovery.time"), std::string::npos)
        << "no recovery time made it into the report";
    return text;
  };
  EXPECT_EQ(run(), run());
}

// A mid-run GTM crash — WAL replay, scheme-state reconstruction, aborted
// and forward-rolled attempts, buffered submissions — must also replay
// byte for byte from the same seeds: recovery is part of the simulated
// schedule, not an out-of-band event.
TEST(DeterminismTest, GtmCrashRecoveryReplaysByteForByte) {
  auto run = []() {
    MdbsConfig config = SystemConfig(13);
    config.gtm.durable = true;
    config.gtm.checkpoint_interval = 64;
    config.gtm.recovery_time_per_record = 2;
    config.gtm.attempt_timeout = 10'000;
    fault::FaultPlan plan;
    plan.gtm_crashes.push_back(fault::GtmCrashEvent{4000, 2500});
    plan.gtm_crashes.push_back(fault::GtmCrashEvent{20'000, 1500});
    config.fault_plan = plan;
    DriverConfig workload = Workload();
    Mdbs system(config);
    DriverReport report = RunDriver(&system, workload, 19);
    EXPECT_EQ(report.gtm_durability.crashes, 2);
    EXPECT_EQ(report.gtm_durability.recoveries, 2);
    EXPECT_GT(report.gtm_durability.replayed_records, 0);
    EXPECT_TRUE(system.CheckGloballySerializable().ok());
    return report.ToString();
  };
  EXPECT_EQ(run(), run());
}

// A warm-standby failover — WAL shipping across the modeled network, the
// shadow's continuous apply, the fenced promotion, and the post-promotion
// drain — must replay byte for byte from the same seeds, for every seed:
// the standby's strand is part of the simulated schedule like any other.
TEST(DeterminismTest, GtmFailoverReplaysByteForByte) {
  for (uint64_t seed : {3u, 17u, 41u}) {
    auto run = [seed]() {
      MdbsConfig config = SystemConfig(seed);
      config.gtm.durable = true;
      config.gtm.checkpoint_interval = 64;
      config.gtm.recovery_time_per_record = 2;
      config.gtm_standby = true;
      config.standby_lag = 40;
      fault::FaultPlan plan;
      plan.gtm_failovers.push_back(fault::GtmFailoverEvent{600'000, 1500});
      config.fault_plan = plan;
      DriverConfig workload = Workload();
      workload.retry.max_resubmissions = 2;
      Mdbs system(config);
      DriverReport report = RunDriver(&system, workload, seed + 100);
      EXPECT_EQ(report.gtm_standby.promotions, 1);
      EXPECT_EQ(report.gtm_standby.fencing_epoch, 1);
      EXPECT_TRUE(system.CheckGloballySerializable().ok());
      return report.ToString();
    };
    EXPECT_EQ(run(), run()) << "seed " << seed;
  }
}

// FNV-1a over a report's text: the digests below pin the exact bytes the
// simulator's closed-loop driver produced for these runs, so a change to
// the driver that is meant to leave simulator runs alone must keep them.
uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

TEST(DriverDigestTest, SimulatorReportsKeepTheirRecordedBytes) {
  struct Case {
    const char* name;
    MdbsConfig system;
    DriverConfig driver;
    uint64_t seed;
    uint64_t digest;
  };
  DriverConfig retries = Workload();
  retries.retry.max_resubmissions = 2;
  DriverConfig templates = Workload();
  StatusOr<analysis::TemplateMix> mix = analysis::ParseTemplateMix(
      "mix keys_per_class=8 local_txns=0\n"
      "template hot_update weight=3 : r0@s0 w0@s0 r1@s1\n"
      "template hot_audit weight=2 : r0@s0 w0@s0 r2@s2\n"
      "template far_report weight=1 : r3@s1 r4@s3\n");
  ASSERT_TRUE(mix.ok()) << mix.status().message();
  templates.templates = *mix;
  DriverConfig no_locals = Workload();
  no_locals.local_clients_per_site = 0;
  const std::vector<Case> cases = {
      {"plain", SystemConfig(7), Workload(), 13, 0x1f9801a637b8d965ull},
      {"fault-plan-retries", FaultPlanConfig(), retries, 17,
       0xd41c98e7ee9a339full},
      {"templates", SystemConfig(5), templates, 11, 0x5441f745d3538025ull},
      {"no-local-clients", SystemConfig(3), no_locals, 29,
       0x427764a4a700ecffull},
  };
  for (const Case& c : cases) {
    Mdbs system(c.system);
    std::string report = RunDriver(&system, c.driver, c.seed).ToString();
    EXPECT_EQ(Fnv1a64(report), c.digest)
        << c.name << " report digest is now " << Hex(Fnv1a64(report))
        << ":\n"
        << report;
  }
}

TEST(DriverDigestTest, SimulatorJsonReportKeepsItsRecordedBytes) {
  const uint64_t kRecordedDigest = 0x46d04c36ac2f45d1ull;
  DriverConfig workload = Workload();
  workload.retry.max_resubmissions = 2;
  Mdbs system(FaultPlanConfig());
  DriverReport report = RunDriver(&system, workload, 17);
  sim::MetricsRegistry registry;
  report.AddToRegistry(&registry);
  // The driver's counters beside the engine's WAIT dwell and GTM2 depth
  // series; ObsDigestTest pins the rest of the snapshot.
  sim::MetricsRegistry snapshot;
  obs::AddSnapshotToRegistry(system.metrics()->Snapshot(), &snapshot);
  for (const auto& [name, summary] : snapshot.summaries()) {
    if (name.starts_with("wait.dwell.") || name.starts_with("gtm2.")) {
      registry.Put(name, summary);
    }
  }
  std::ostringstream json;
  obs::WriteJsonReport(json, {{"test", "driver-digest"}}, registry);
  EXPECT_EQ(Fnv1a64(json.str()), kRecordedDigest)
      << "JSON report digest is now " << Hex(Fnv1a64(json.str())) << " over "
      << json.str().size() << " bytes";
}

// Both observability subscribers, pinned over runs that between them reach
// every event family: Scheme 1 edge marks, Scheme 2 dependencies,
// wound-wait 2PL and OCC validation failures, a fault plan that loses,
// duplicates and delays messages while a crash sweep parks jobs, a durable
// site crash, a GTM crash, and a failover whose standby must stay mute.
// Per run the test pins the Chrome export of the drained trace and the JSON
// report built from the metrics snapshot alone, so a change to how events
// reach either subscriber must keep both byte for byte.
TEST(ObsDigestTest, TraceAndMetricsKeepTheirRecordedBytes) {
  using obs::TraceEventKind;
  struct Case {
    const char* name;
    MdbsConfig system;
    DriverConfig driver;
    uint64_t seed;
    std::vector<TraceEventKind> must_see;
    uint64_t trace_digest;
    uint64_t metrics_digest;
  };
  DriverConfig retries = Workload();
  retries.retry.max_resubmissions = 2;

  MdbsConfig scheme1 = SystemConfig(5);
  scheme1.gtm.scheme = SchemeKind::kScheme1;
  MdbsConfig scheme2 = SystemConfig(6);
  scheme2.gtm.scheme = SchemeKind::kScheme2;

  MdbsConfig contention = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLockingWoundWait, ProtocolKind::kOptimistic,
       ProtocolKind::kTwoPhaseLockingWoundWait, ProtocolKind::kOptimistic},
      SchemeKind::kScheme3);
  contention.seed = 8;
  DriverConfig hot = Workload();
  hot.global_workload.items_per_site = 4;
  hot.local_workload.items_per_site = 4;

  MdbsConfig durable = FaultPlanConfig();
  durable.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/3000, /*duration=*/1500);
  for (site::SiteConfig& site : durable.sites) {
    site.durable = true;
    site.checkpoint_interval = 48;
    site.recovery_time_per_record = 1;
  }

  MdbsConfig gtm_crash = SystemConfig(13);
  gtm_crash.gtm.durable = true;
  gtm_crash.gtm.checkpoint_interval = 64;
  gtm_crash.gtm.recovery_time_per_record = 2;
  gtm_crash.gtm.attempt_timeout = 10'000;
  gtm_crash.fault_plan.gtm_crashes.push_back(fault::GtmCrashEvent{4000, 2500});
  gtm_crash.fault_plan.gtm_crashes.push_back(
      fault::GtmCrashEvent{20'000, 1500});

  MdbsConfig failover = SystemConfig(17);
  failover.gtm.durable = true;
  failover.gtm.checkpoint_interval = 64;
  failover.gtm.recovery_time_per_record = 2;
  failover.gtm_standby = true;
  failover.standby_lag = 40;
  failover.fault_plan.gtm_failovers.push_back(
      fault::GtmFailoverEvent{8000, 1500});

  const std::vector<Case> cases = {
      {"scheme1-edges", scheme1, Workload(), 11,
       {TraceEventKind::kEdgeMark, TraceEventKind::kEdgeUnmark},
       0x992c788c5e367984ull, 0x7efeb77f3e85fcd1ull},
      {"scheme2-deps", scheme2, Workload(), 12,
       {TraceEventKind::kDepAdd, TraceEventKind::kDepDrop},
       0xcfb09e50394bc991ull, 0xe610810ebd4f7925ull},
      {"woundwait-occ", contention, hot, 13,
       {TraceEventKind::kWound, TraceEventKind::kValidationFail},
       0xeefbc469bd9a83b7ull, 0xbe0942ce801e4a2full},
      {"fault-plan", FaultPlanConfig(), retries, 17,
       {TraceEventKind::kNetFault, TraceEventKind::kTxnParked,
        TraceEventKind::kSiteDown},
       0x72d96463f1efac64ull, 0xf54d2bfb1576e028ull},
      {"durable-site-crash", durable, retries, 23,
       {TraceEventKind::kRecoveryBegin, TraceEventKind::kRecover},
       0x2287adf56bb3b59cull, 0xe238967d0689c578ull},
      {"gtm-crash", gtm_crash, Workload(), 19,
       {TraceEventKind::kGtmCrash, TraceEventKind::kGtmRecover},
       0x49f863cf43763586ull, 0xd6fe3906fa5c1d2cull},
      {"gtm-failover", failover, retries, 117,
       {TraceEventKind::kGtmPromoteBegin, TraceEventKind::kGtmPromote},
       0xe8bf72264358b1f4ull, 0xd5aeeb8522b01e71ull},
  };
  for (Case c : cases) {
    c.system.trace.enabled = true;
    Mdbs system(c.system);
    RunDriver(&system, c.driver, c.seed);
    std::vector<obs::TraceEvent> events = system.trace_sink()->Drain();
    std::map<TraceEventKind, int64_t> seen;
    for (const obs::TraceEvent& event : events) ++seen[event.kind];
    for (TraceEventKind kind : c.must_see) {
      EXPECT_GT(seen[kind], 0)
          << c.name << " never records " << obs::TraceEventKindName(kind);
    }
    // A standby's shadow GTM2 replays every init the primary ran; only the
    // active GTM may put them in the trace.
    EXPECT_LE(seen[TraceEventKind::kInit], seen[TraceEventKind::kAttemptStart])
        << c.name;

    std::ostringstream trace;
    obs::WriteChromeTrace(trace, events, {});
    EXPECT_EQ(Fnv1a64(trace.str()), c.trace_digest)
        << c.name << " trace digest is now " << Hex(Fnv1a64(trace.str()))
        << " over " << trace.str().size() << " bytes";

    ASSERT_NE(system.metrics(), nullptr);
    obs::MetricsSnapshot snapshot = system.metrics()->Snapshot();
    EXPECT_EQ(snapshot.balance_violations, 0) << c.name;
    sim::MetricsRegistry registry;
    obs::AddSnapshotToRegistry(snapshot, &registry);
    obs::ReportExtras extras;
    extras.metrics = &snapshot;
    std::ostringstream json;
    obs::WriteJsonReport(json, {{"test", c.name}}, registry, extras);
    EXPECT_EQ(Fnv1a64(json.str()), c.metrics_digest)
        << c.name << " metrics digest is now " << Hex(Fnv1a64(json.str()))
        << " over " << json.str().size() << " bytes";
  }
}

// Replay itself must be a pure function of the log image: recovering the
// same device twice yields identical stores, tables, and statistics.
TEST(DeterminismTest, RecoveryFromTheSameLogIsIdentical) {
  auto device = std::make_shared<storage::MemLogDevice>();
  MdbsConfig config = SystemConfig(31);
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/3000, /*duration=*/1500);
  config.gtm.attempt_timeout = 10'000;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  for (site::SiteConfig& site : config.sites) {
    site.durable = true;
    site.checkpoint_interval = 32;
  }
  config.sites[3].wal_device = device;  // s3 is multiversion-adjacent OCC.
  DriverConfig workload = Workload();
  workload.retry.max_resubmissions = 2;
  Mdbs system(config);
  RunDriver(&system, workload, 29);
  ASSERT_GT(device->Size(), 0);

  storage::RecoveredState first, second;
  ASSERT_TRUE(storage::RecoverWal(*device, false, &first).ok());
  ASSERT_TRUE(storage::RecoverWal(*device, false, &second).ok());
  EXPECT_EQ(first.store, second.store);
  EXPECT_EQ(first.last_writer, second.last_writer);
  EXPECT_EQ(first.clock, second.clock);
  EXPECT_EQ(first.scanned_records, second.scanned_records);
  EXPECT_EQ(first.scanned_bytes, second.scanned_bytes);
  EXPECT_EQ(first.redo_writes, second.redo_writes);
  EXPECT_EQ(first.undone_writes, second.undone_writes);
  EXPECT_EQ(first.committed_txns, second.committed_txns);
  EXPECT_EQ(first.loser_txns, second.loser_txns);
  EXPECT_GT(first.scanned_records, 0);
}

}  // namespace
}  // namespace mdbs
