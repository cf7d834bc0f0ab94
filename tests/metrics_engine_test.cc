// Always-on metrics engine (src/obs/metrics): the per-transaction phase
// decomposition must partition each measured lifetime exactly (the balance
// invariant), in both engines and across schemes; the timeline and
// bottleneck must be deterministic per seed; durable-recovery stalls must
// be attributed to the recovery phase; and each site's site-exec summary,
// written only by that site's strand, must count every record.
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "sim/real_strand.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;
using obs::MetricsSnapshot;
using obs::TxnPhase;

const SiteId kS0{0};
const SiteId kS1{1};
const DataItemId kX{1};
const DataItemId kY{2};

int64_t PhaseTicks(const MetricsSnapshot& snapshot, TxnPhase phase) {
  return snapshot.phase_ticks[static_cast<size_t>(phase)];
}

int64_t TotalPhaseTicks(const MetricsSnapshot& snapshot) {
  int64_t total = 0;
  for (int64_t t : snapshot.phase_ticks) total += t;
  return total;
}

/// The core acceptance checks every snapshot must pass, regardless of
/// engine, scheme or fault plan.
void ExpectBalancedSnapshot(const MetricsSnapshot& snapshot) {
  EXPECT_TRUE(snapshot.enabled);
  EXPECT_EQ(snapshot.balance_violations, 0)
      << "phase decomposition failed to partition some lifetime (max error "
      << snapshot.max_balance_error << " ticks)";
  EXPECT_EQ(snapshot.max_balance_error, 0);
  EXPECT_EQ(TotalPhaseTicks(snapshot), snapshot.lifetime_ticks)
      << "aggregate phase ticks must equal aggregate lifetime ticks";
  EXPECT_EQ(snapshot.lifetime.count(), snapshot.finished);
  EXPECT_GE(snapshot.finished, snapshot.committed);
  // Every finished transaction contributes one observation (possibly zero)
  // to every phase, so the per-phase counts all equal `finished`.
  for (const sim::Summary& phase : snapshot.phases) {
    EXPECT_EQ(phase.count(), snapshot.finished);
  }
  // Timeline windows are strictly increasing and their counters reconcile
  // with the run totals.
  int64_t submitted = 0;
  int64_t committed = 0;
  for (size_t i = 0; i < snapshot.timeline.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(snapshot.timeline[i].window, snapshot.timeline[i - 1].window);
    }
    submitted += snapshot.timeline[i].submitted;
    committed += snapshot.timeline[i].committed;
  }
  EXPECT_EQ(submitted, snapshot.finished)
      << "every submitted job finishes by the end of a drained run";
  EXPECT_EQ(committed, snapshot.committed);
  if (snapshot.lifetime_ticks > 0) {
    EXPECT_GT(snapshot.bottleneck_share, 0.0);
    EXPECT_LE(snapshot.bottleneck_share, 1.0);
    for (int64_t t : snapshot.phase_ticks) {
      EXPECT_LE(t, PhaseTicks(snapshot, snapshot.bottleneck));
    }
  }
}

DriverConfig ContendedWorkload() {
  DriverConfig config;
  config.global_clients = 6;
  config.local_clients_per_site = 2;
  config.target_global_commits = 60;
  config.global_workload.items_per_site = 20;
  config.global_workload.dav_min = 2;
  config.global_workload.dav_max = 3;
  config.local_workload.items_per_site = 20;
  return config;
}

// --------------------------------------------------------------------------
// Balance invariant, simulation engine, all schemes
// --------------------------------------------------------------------------

class MetricsBalanceTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, MetricsBalanceTest,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3,
                      SchemeKind::kTicketOptimistic),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

TEST_P(MetricsBalanceTest, PhasesPartitionLifetimeExactly) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic},
      GetParam());
  config.seed = 17;
  Mdbs system(config);
  ASSERT_NE(system.metrics(), nullptr) << "metrics must be on by default";
  DriverReport report = RunDriver(&system, ContendedWorkload(), 17);
  MetricsSnapshot snapshot = system.metrics()->Snapshot();
  ExpectBalancedSnapshot(snapshot);
  EXPECT_EQ(snapshot.committed, report.global_committed);
  EXPECT_EQ(snapshot.finished,
            report.global_committed + report.global_failed);
  EXPECT_GT(snapshot.lifetime_ticks, 0);
  // Site-exec shards saw every data/commit round trip.
  EXPECT_EQ(snapshot.site_exec.size(), 4u);
  int64_t site_records = 0;
  for (const auto& [site, summary] : snapshot.site_exec) {
    site_records += summary.count();
  }
  EXPECT_GT(site_records, 0);
}

TEST(MetricsDisabledTest, OptOutLeavesNoEngine) {
  MdbsConfig config =
      MdbsConfig::Uniform(2, ProtocolKind::kTwoPhaseLocking,
                          SchemeKind::kScheme3);
  config.metrics.enabled = false;
  Mdbs system(config);
  EXPECT_EQ(system.metrics(), nullptr);
  DriverConfig driver = ContendedWorkload();
  driver.target_global_commits = 20;
  DriverReport report = RunDriver(&system, driver, 3);
  EXPECT_GE(report.global_committed, 20);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

// --------------------------------------------------------------------------
// Determinism: same seed, same timeline, same breakdown
// --------------------------------------------------------------------------

TEST(MetricsDeterminismTest, TimelineAndBottleneckAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    MdbsConfig config = MdbsConfig::Mixed(
        {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
         ProtocolKind::kSerializationGraph},
        SchemeKind::kScheme3);
    config.seed = seed;
    config.metrics.timeline_window = 2000;
    Mdbs system(config);
    DriverConfig driver = ContendedWorkload();
    driver.target_global_commits = 40;
    RunDriver(&system, driver, seed);
    return system.metrics()->Snapshot();
  };
  MetricsSnapshot a = run(23);
  MetricsSnapshot b = run(23);
  EXPECT_EQ(a.lifetime_ticks, b.lifetime_ticks);
  EXPECT_EQ(a.phase_ticks, b.phase_ticks);
  EXPECT_EQ(a.bottleneck, b.bottleneck);
  EXPECT_DOUBLE_EQ(a.bottleneck_share, b.bottleneck_share);
  EXPECT_EQ(a.BreakdownTable(), b.BreakdownTable());
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    const obs::TimelinePoint& pa = a.timeline[i];
    const obs::TimelinePoint& pb = b.timeline[i];
    EXPECT_EQ(pa.window, pb.window) << i;
    EXPECT_EQ(pa.submitted, pb.submitted) << i;
    EXPECT_EQ(pa.committed, pb.committed) << i;
    EXPECT_EQ(pa.failed, pb.failed) << i;
    EXPECT_EQ(pa.attempt_aborts, pb.attempt_aborts) << i;
    EXPECT_EQ(pa.max_queue_depth, pb.max_queue_depth) << i;
    EXPECT_EQ(pa.max_wait_depth, pb.max_wait_depth) << i;
    EXPECT_EQ(pa.max_parked, pb.max_parked) << i;
    EXPECT_EQ(pa.site_down_events, pb.site_down_events) << i;
    EXPECT_DOUBLE_EQ(pa.p99_latency, pb.p99_latency) << i;
  }
  // A different seed must (for this contended workload) produce a different
  // execution — guards against the snapshot being constant.
  MetricsSnapshot c = run(24);
  EXPECT_NE(a.lifetime_ticks, c.lifetime_ticks);
}

// --------------------------------------------------------------------------
// Threaded engine
// --------------------------------------------------------------------------

TEST(MetricsThreadedTest, BalanceHoldsUnderRealThreads) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      SchemeKind::kScheme3);
  config.seed = 31;
  config.threaded = true;
  Mdbs system(config);
  DriverConfig driver = ContendedWorkload();
  driver.target_global_commits = 40;
  DriverReport report = RunDriver(&system, driver, 31);
  MetricsSnapshot snapshot = system.metrics()->Snapshot();
  ExpectBalancedSnapshot(snapshot);
  EXPECT_EQ(snapshot.committed, report.global_committed);
  // Real threads make admission queueing (client strand -> GTM strand)
  // observable; it is part of the partition, never negative.
  EXPECT_GE(PhaseTicks(snapshot, TxnPhase::kAdmission), 0);
}

// Each site strand records its kSiteWork into the site's own summary with
// no lock; under real threads every emit must land in its site's summary.
TEST(MetricsThreadedTest, SiteExecCountsEverySiteWorkEmit) {
  const std::vector<SiteId> ids = {SiteId(0), SiteId(1), SiteId(2)};
  sim::RealTicker ticker;
  obs::MetricsEngine engine(obs::MetricsConfig{},
                            [&ticker] { return ticker.NowMicros(); }, ids);
  const obs::EventSink events(nullptr, &engine);
  const int kEmits = 2000;
  std::vector<std::unique_ptr<sim::RealStrand>> strands;
  std::atomic<size_t> done{0};
  // Site i emits busy times 1..kEmits*(i+1) in steps of i+1, each from its
  // own task on its own strand.
  std::function<void(size_t, int)> emit = [&](size_t i, int n) {
    if (n > kEmits) {
      done.fetch_add(1);
      return;
    }
    events.Emit({.kind = obs::TraceEventKind::kSiteWork,
                 .site = ids[i].value(),
                 .ticks = static_cast<sim::Time>(n * (i + 1))});
    strands[i]->Schedule(0, [&emit, i, n] { emit(i, n + 1); });
  };
  for (size_t i = 0; i < ids.size(); ++i) {
    strands.push_back(std::make_unique<sim::RealStrand>(
        &ticker, "site-" + std::to_string(i)));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    strands[i]->Schedule(0, [&emit, i] { emit(i, 1); });
  }
  while (done.load() < ids.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& strand : strands) strand->Stop();

  const MetricsSnapshot snapshot = engine.Snapshot();
  ASSERT_EQ(snapshot.site_exec.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto& [site, summary] = snapshot.site_exec[i];
    EXPECT_EQ(site, ids[i]);
    EXPECT_EQ(summary.count(), kEmits) << ToString(site);
    const double step = static_cast<double>(i + 1);
    EXPECT_DOUBLE_EQ(summary.sum(), step * kEmits * (kEmits + 1) / 2)
        << ToString(site);
    EXPECT_DOUBLE_EQ(summary.min(), step) << ToString(site);
    EXPECT_DOUBLE_EQ(summary.max(), step * kEmits) << ToString(site);
  }
}

// --------------------------------------------------------------------------
// Durable-crash recovery attribution
// --------------------------------------------------------------------------

TEST(MetricsRecoveryTest, DurableReplayStallIsAttributedToRecoveryPhase) {
  // A durable site crashes with a non-zero modeled replay cost while a
  // two-site global is in flight: the monitor quarantines the site, the job
  // parks, and the portion of the park overlapping the WAL replay window
  // must surface as kRecovery (not kParked) ticks.
  MdbsConfig config = MdbsConfig::Uniform(
      2, ProtocolKind::kTwoPhaseLocking, SchemeKind::kScheme3);
  config.gtm.attempt_timeout = 0;
  config.gtm.retry_backoff = 100;
  config.health.probe_interval = 100;
  config.health.suspect_after = 200;
  config.health.down_after = 400;
  config.fault_plan.crashes.push_back(fault::CrashEvent{kS0, 300, 2500});
  for (site::SiteConfig& site : config.sites) {
    site.durable = true;
    site.checkpoint_interval = 4;
    site.recovery_base_time = 1500;
    site.recovery_time_per_record = 10;
  }
  Mdbs system(config);

  // A local lock holder keeps the global blocked at s0 until the crash.
  StatusOr<TxnId> lock_holder = system.BeginLocal(kS0);
  ASSERT_TRUE(lock_holder.ok());
  system.site(kS0).Submit(*lock_holder, DataOp::Write(kX, 7),
                          [](const Status&, int64_t) {});

  gtm::GlobalTxnResult g1;
  gtm::GlobalTxnSpec spec;
  spec.ops.push_back(gtm::GlobalOp::Write(kS0, kX, 1));
  spec.ops.push_back(gtm::GlobalOp::Write(kS1, kY, 2));
  system.gtm().Submit(std::move(spec),
                      [&](const gtm::GlobalTxnResult& r) { g1 = r; });
  system.RunUntilIdle();

  ASSERT_TRUE(g1.status.ok()) << g1.status;
  MetricsSnapshot snapshot = system.metrics()->Snapshot();
  ExpectBalancedSnapshot(snapshot);
  EXPECT_GT(PhaseTicks(snapshot, TxnPhase::kRecovery), 0)
      << "the replay window the job parked through was not attributed";
  EXPECT_GT(PhaseTicks(snapshot, TxnPhase::kParked) +
                PhaseTicks(snapshot, TxnPhase::kRecovery),
            1000)
      << "the quarantine park barely registered";
  const site::SiteDurabilityStats stats = system.site(kS0).durability_stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_GT(stats.recovery_ticks, 0);
  // The recovery attribution can never exceed the modeled replay time
  // summed over recoveries (a job cannot stall on a window longer than the
  // window itself).
  EXPECT_LE(PhaseTicks(snapshot, TxnPhase::kRecovery), stats.recovery_ticks);
}

}  // namespace
}  // namespace mdbs
