// Failure-aware GTM paths: site-down declarations from the health monitor,
// quarantine parking/unparking, park timeouts, and full crash-sweep runs in
// both engines. The crash-during-WAIT tests disable the attempt timeout so
// that only the failure detector can rescue a stranded global transaction —
// RunUntilIdle returning at all is the no-hang proof.
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

const SiteId kS0{0};
const SiteId kS1{1};
const DataItemId kX{1};
const DataItemId kY{2};

class FailureRecoveryTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, FailureRecoveryTest,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

// A local transaction holds a write lock, so the first global blocks at the
// site and the second waits behind it in the GTM. The site then crashes for
// longer than the down threshold: the monitor declares it down, affected
// attempts abort, the jobs park on the quarantine, and recovery unparks
// them. With attempt_timeout disabled, nothing else can rescue them.
TEST_P(FailureRecoveryTest, CrashDuringWaitParksAndRecovers) {
  MdbsConfig config =
      MdbsConfig::Uniform(2, ProtocolKind::kTwoPhaseLocking, GetParam());
  config.gtm.attempt_timeout = 0;
  config.gtm.retry_backoff = 100;
  config.health.probe_interval = 100;
  config.health.suspect_after = 200;
  config.health.down_after = 400;
  ASSERT_TRUE(config.fault_plan.Empty());
  config.fault_plan.crashes.push_back(fault::CrashEvent{kS0, 300, 2500});
  Mdbs system(config);

  // The lock holder: a local write on X at site 0, never committed; the
  // crash aborts it.
  StatusOr<TxnId> lock_holder = system.BeginLocal(kS0);
  ASSERT_TRUE(lock_holder.ok());
  Status holder_status = Status::Internal("pending");
  system.site(kS0).Submit(
      *lock_holder, DataOp::Write(kX, 7),
      [&](const Status& s, int64_t) { holder_status = s; });

  auto two_site_spec = []() {
    gtm::GlobalTxnSpec spec;
    spec.ops.push_back(gtm::GlobalOp::Write(kS0, kX, 1));
    spec.ops.push_back(gtm::GlobalOp::Write(kS1, kY, 2));
    return spec;
  };
  gtm::GlobalTxnResult g1, g2, g3;
  system.gtm().Submit(two_site_spec(),
                      [&](const gtm::GlobalTxnResult& r) { g1 = r; });
  system.gtm().Submit(two_site_spec(),
                      [&](const gtm::GlobalTxnResult& r) { g2 = r; });
  // Submitted while site 0 is already quarantined: must park immediately
  // instead of burning attempts against a dead site.
  system.loop().Schedule(900, [&] {
    system.gtm().Submit(two_site_spec(),
                        [&](const gtm::GlobalTxnResult& r) { g3 = r; });
  });

  system.RunUntilIdle();  // Returning at all proves nothing hung.

  EXPECT_TRUE(g1.status.ok()) << g1.status;
  EXPECT_TRUE(g2.status.ok()) << g2.status;
  EXPECT_TRUE(g3.status.ok()) << g3.status;
  EXPECT_GT(g1.attempts, 1) << "the crash should have cost G1 an attempt";
  EXPECT_EQ(system.gtm().InFlight(), 0);
  EXPECT_EQ(system.gtm().ParkedJobs(), 0);
  EXPECT_FALSE(system.gtm().IsQuarantined(kS0));
  const gtm::Gtm1Stats stats = system.gtm().stats();
  EXPECT_GE(stats.parked, 3) << "all three globals should have parked";
  EXPECT_EQ(stats.unparked, stats.parked);
  EXPECT_EQ(stats.park_timeouts, 0);
  EXPECT_FALSE(holder_status.ok() && system.site(kS0).IsActive(*lock_holder))
      << "the crash should have aborted the local lock holder";
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

// The durable variant of the park-and-recover path: a committed write must
// survive the crash (volatile state demonstrably dies with the site — the
// store reads 0 mid-crash), and the first post-recovery readers — both a
// global transaction routed through the GTM and a direct peek — must
// observe it again. The parked-global bookkeeping must be untouched by
// replay.
TEST_P(FailureRecoveryTest, DurableCrashRestoresCommittedWritesForReaders) {
  const DataItemId kZ{9};  // Never touched by the global specs below.
  MdbsConfig config =
      MdbsConfig::Uniform(2, ProtocolKind::kTwoPhaseLocking, GetParam());
  config.gtm.attempt_timeout = 0;
  config.gtm.retry_backoff = 100;
  config.health.probe_interval = 100;
  config.health.suspect_after = 200;
  config.health.down_after = 400;
  config.fault_plan.crashes.push_back(fault::CrashEvent{kS0, 300, 2500});
  for (site::SiteConfig& site : config.sites) {
    site.durable = true;
    site.checkpoint_interval = 4;
  }
  Mdbs system(config);

  // Committed before the crash: must be durable.
  StatusOr<TxnId> writer = system.BeginLocal(kS0);
  ASSERT_TRUE(writer.ok());
  system.site(kS0).Submit(*writer, DataOp::Write(kZ, 99),
                          [](const Status&, int64_t) {});
  Status committed = Status::Internal("pending");
  system.site(kS0).Commit(*writer, [&](const Status& s) { committed = s; });

  // Uncommitted at the crash: the lock holder must be rolled back.
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

  // Mid-crash probe: the volatile store is gone until replay rebuilds it.
  bool probed_down = false;
  system.loop().Schedule(1000, [&] {
    probed_down = system.site(kS0).IsDown();
    EXPECT_TRUE(probed_down) << "probe landed outside the crash window";
    EXPECT_EQ(system.site(kS0).UnsafePeek(kZ), 0)
        << "the crash left volatile state behind";
  });
  system.RunUntilIdle();

  ASSERT_TRUE(committed.ok()) << committed;
  ASSERT_TRUE(probed_down);
  EXPECT_TRUE(g1.status.ok()) << g1.status;
  const site::SiteDurabilityStats stats =
      system.site(kS0).durability_stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_GT(stats.replay_records, 0);
  EXPECT_EQ(system.site(kS0).UnsafePeek(kZ), 99)
      << "recovery lost a pre-crash committed write";
  EXPECT_EQ(system.site(kS0).UnsafePeek(kX), 1)
      << "the parked global's write should land after recovery";
  EXPECT_FALSE(system.site(kS0).IsActive(*lock_holder));

  // A fresh global read — the first post-recovery transaction a client
  // would actually run — must observe the pre-crash committed value.
  gtm::GlobalTxnSpec read_spec;
  read_spec.ops.push_back(gtm::GlobalOp::Read(kS0, kZ));
  gtm::GlobalTxnResult reader;
  system.gtm().Submit(std::move(read_spec),
                      [&](const gtm::GlobalTxnResult& r) { reader = r; });
  system.RunUntilIdle();
  ASSERT_TRUE(reader.status.ok()) << reader.status;
  EXPECT_EQ(reader.reads.at({kS0, kZ}), 99);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

// A site that stays down past quarantine_park_timeout must fail the parked
// job back to the client (retry-safe, so a driver may resubmit) instead of
// holding it forever.
TEST(FailureRecoveryTimeoutTest, ParkTimeoutFailsJobBack) {
  MdbsConfig config = MdbsConfig::Uniform(
      1, ProtocolKind::kTwoPhaseLocking, SchemeKind::kScheme3);
  config.gtm.attempt_timeout = 0;
  config.gtm.retry_backoff = 100;
  config.gtm.quarantine_park_timeout = 300;
  config.health.probe_interval = 100;
  config.health.suspect_after = 200;
  config.health.down_after = 400;
  config.fault_plan.crashes.push_back(fault::CrashEvent{kS0, 50, 20'000});
  Mdbs system(config);

  gtm::GlobalTxnResult result;
  bool done = false;
  system.loop().Schedule(100, [&] {
    gtm::GlobalTxnSpec spec;
    spec.ops.push_back(gtm::GlobalOp::Write(kS0, kX, 1));
    system.gtm().Submit(std::move(spec), [&](const gtm::GlobalTxnResult& r) {
      result = r;
      done = true;
    });
  });
  system.RunUntilIdle();

  ASSERT_TRUE(done);
  EXPECT_TRUE(result.status.IsTransactionAborted()) << result.status;
  EXPECT_TRUE(result.retry_safe);
  const gtm::Gtm1Stats stats = system.gtm().stats();
  EXPECT_EQ(stats.park_timeouts, 1);
  EXPECT_EQ(stats.parked, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(system.gtm().InFlight(), 0);
  EXPECT_TRUE(system.gtm().IsQuarantined(kS0))
      << "nothing lifted the quarantine; the site never answered";
}

// Every site crashes mid-run (a full sweep) while the network loses,
// duplicates and delays messages; the driver's retry layer resubmits
// retry-safe failures. The run must finish, mostly commit, and stay
// globally serializable under every scheme.
TEST_P(FailureRecoveryTest, CrashSweepAllSitesFinishesSerializably) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      GetParam());
  config.seed = 11;
  config.gtm.retry_backoff = 200;
  config.gtm.attempt_timeout = 10'000;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  fault::FaultPlan plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/3, /*first_at=*/2000, /*gap=*/4000, /*duration=*/2500);
  plan.request_loss = 0.02;
  plan.response_loss = 0.02;
  plan.duplicate = 0.02;
  plan.delay_spike = 0.05;
  plan.spike_ticks = 100;
  plan.seed = 5;
  config.fault_plan = plan;
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 50;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  driver.retry.max_resubmissions = 3;
  driver.retry.backoff = 500;
  DriverReport report = RunDriver(&system, driver, 11);

  EXPECT_EQ(report.faults.plan_crashes, 3) << "every site must crash once";
  EXPECT_GE(report.global_committed, 30);
  EXPECT_GE(report.global_committed + report.global_failed, 50);
  EXPECT_EQ(system.gtm().InFlight(), 0);
  EXPECT_EQ(system.gtm().ParkedJobs(), 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  EXPECT_TRUE(system.CheckStrictness().ok());
}

// Same acceptance shape on the threaded engine: real strands, real clocks,
// plan crashes armed on the site strands. RunDriver returning (all
// clients done, strands quiesced) is the no-hang proof.
TEST_P(FailureRecoveryTest, ThreadedCrashSweepFinishesSerializably) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      GetParam());
  config.threaded = true;
  config.seed = 23;
  config.gtm.retry_backoff = 300;
  config.gtm.attempt_timeout = 50'000;
  config.health.probe_interval = 400;
  config.health.suspect_after = 1000;
  config.health.down_after = 2000;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/3, /*first_at=*/8000, /*gap=*/12'000,
      /*duration=*/5000);
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 30;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  driver.retry.max_resubmissions = 2;
  driver.retry.backoff = 500;
  DriverReport report = RunDriver(&system, driver, 23);

  EXPECT_GE(report.global_committed + report.global_failed, 30);
  EXPECT_GE(report.global_committed, 15);
  EXPECT_GE(report.faults.plan_crashes, 1)
      << "the run outlived no crash window at all";
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

// Duplicate delivery must be absorbed by the receiver-side dedup guard:
// every injected duplicate is suppressed, and the committed projection is
// unaffected.
TEST(FaultDeliveryTest, DuplicatesNeverDoubleApply) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering},
      SchemeKind::kScheme3);
  config.seed = 31;
  config.fault_plan.duplicate = 0.3;
  config.fault_plan.seed = 8;
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  DriverReport report = RunDriver(&system, driver, 31);

  EXPECT_GT(report.faults.duplicates_injected, 0);
  EXPECT_EQ(report.faults.duplicates_suppressed,
            report.faults.duplicates_injected);
  EXPECT_GE(report.global_committed, 40);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
  EXPECT_TRUE(system.CheckStrictness().ok());
}

// Request-side loss (the request never reaches the site) must be rescued by
// the attempt timeout exactly like the pre-existing response-side loss.
TEST(FaultDeliveryTest, RequestLossIsRescuedByTimeouts) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      SchemeKind::kScheme3);
  config.seed = 43;
  config.fault_plan.request_loss = 0.05;
  config.fault_plan.seed = 9;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 60;
  driver.global_workload.items_per_site = 50;
  driver.local_workload.items_per_site = 50;
  DriverReport report = RunDriver(&system, driver, 43);

  EXPECT_GT(report.faults.requests_lost, 0) << "no request was ever lost?";
  EXPECT_GT(report.gtm1.timeouts, 0);
  EXPECT_GE(report.global_committed, 40);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
  EXPECT_TRUE(system.CheckStrictness().ok());
}

}  // namespace
}  // namespace mdbs
