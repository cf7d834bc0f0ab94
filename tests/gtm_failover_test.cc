// Warm-standby GTM availability battery: WAL shipping, fenced failover.
//
// The headline claims under test (EXPERIMENTS E16):
//   (1) Failover unavailability is bounded by the shipping lag (the durable
//       tail the standby has not yet applied), NOT by the log length —
//       unlike PR 8's cold replay, which scans the whole log from the last
//       checkpoint.
//   (2) Zero committed-transaction loss: every commit acknowledged to a
//       client before the crash stays committed after the promotion.
//   (3) No split brain: every post-failover response carries the new
//       fencing epoch, the fenced old primary cannot recover, and frames
//       the dead primary shipped in its final strand turns are discarded
//       and counted.
//   (4) The serializability battery stays green across Schemes 0-3 in both
//       engines with a failover mid-run.
// And one lock-step differential: at every crash point of a run, cold
// recovery over the GTM's own log and a promotion with an empty tail
// install the same state.
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "gtm/gtm1.h"
#include "gtm/gtm_log.h"
#include "gtm_install_capture.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "storage/log_device.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

const std::vector<ProtocolKind> kProtocols = {
    ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
    ProtocolKind::kSerializationGraph};

MdbsConfig StandbyConfig(SchemeKind scheme, uint64_t seed, sim::Time at,
                         sim::Time detection, sim::Time lag) {
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, scheme);
  config.seed = seed;
  config.gtm.durable = true;
  config.gtm_standby = true;
  config.standby_lag = lag;
  fault::FaultPlan plan;
  plan.gtm_failovers.push_back(fault::GtmFailoverEvent{at, detection});
  config.fault_plan = plan;
  return config;
}

// Claim (2) + (3), simulated engine: clients submit across the failover;
// commits acknowledged before the crash stay committed, and every response
// produced after the promotion carries the bumped fencing epoch. The
// committed counter is continuous across the failover: Crash() wipes the
// primary's volatile stats, and Promote() restores them from the standby's
// log analysis — so the promoted GTM's tally covers pre-crash and
// post-promotion commits alike and must equal the client-observed total
// exactly.
TEST(GtmFailoverTest, NothingCommittedIsLostAndEpochBumpsOnEveryResponse) {
  constexpr sim::Time kCrashAt = 600000;  // mid-run: commits span ~1.5Mtk
  MdbsConfig config = StandbyConfig(SchemeKind::kScheme3, 11, kCrashAt,
                                    /*detection=*/1500, /*lag=*/25);
  Mdbs system(config);
  // Sample the primary's own commit tally one tick before it dies; Crash()
  // wipes it, so this is the only window where it is observable.
  int64_t committed_before_crash = -1;
  system.loop().Schedule(kCrashAt - 1, [&]() {
    committed_before_crash = system.gtm().stats().committed;
  });
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 60;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 3;
  DriverReport report = RunDriver(&system, driver, 11);

  gtm::GtmStandbyStats standby = system.gtm_standby_stats();
  ASSERT_EQ(standby.promotions, 1);
  EXPECT_EQ(standby.fencing_epoch, 1);
  // The promoted standby is the active GTM; the old primary stays down.
  EXPECT_TRUE(system.gtm_replica()->promoted());
  EXPECT_FALSE(system.gtm_replica()->IsDown());
  EXPECT_EQ(report.gtm_durability.recoveries, 0);

  // Zero committed loss: the continuous commit counter equals the
  // client-side tally — nothing acknowledged pre-crash was re-run or
  // undone, and nothing committed post-promotion went unacknowledged.
  EXPECT_EQ(report.global_committed, system.gtm().stats().committed);
  EXPECT_GT(committed_before_crash, 0)
      << "no commits before the crash: the crash point is too early to "
         "exercise loss";
  EXPECT_GT(system.gtm().stats().committed, committed_before_crash)
      << "no commits after the promotion: the run ended too early";
  EXPECT_TRUE(system.CheckGloballySerializable().ok());

  // Every result the promoted standby produces carries epoch 1. Submit one
  // more transaction directly to make the check airtight.
  gtm::GlobalTxnSpec spec;
  spec.ops.push_back(gtm::GlobalOp::Write(SiteId(0), DataItemId(1), 7));
  spec.ops.push_back(gtm::GlobalOp::Read(SiteId(1), DataItemId(2)));
  int done = 0;
  system.SubmitGlobal(spec, [&](const gtm::GlobalTxnResult& result) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.gtm_epoch, 1);
    ++done;
  });
  system.RunUntilIdle();
  EXPECT_EQ(done, 1);
}

// Claim (1), the E16 mechanism: with the same workload and crash point, a
// warm-standby promotion charges modeled recovery time proportional to the
// unshipped WAL tail, while PR 8's cold replay scans the entire log (no
// checkpoints here, to make the contrast exact). The promotion must be at
// least 5x cheaper.
TEST(GtmFailoverTest, UnavailabilityBoundedByShippingLagNotLogLength) {
  constexpr sim::Time kPerRecord = 5;
  constexpr sim::Time kBase = 100;
  constexpr sim::Time kCrashAt = 800000;  // mid-run: a long log exists
  constexpr sim::Time kDetection = 1000;
  auto drive = [](Mdbs* system) {
    DriverConfig driver;
    driver.global_clients = 6;
    driver.local_clients_per_site = 0;
    driver.target_global_commits = 80;
    driver.global_workload.items_per_site = 30;
    driver.retry.max_resubmissions = 3;
    return RunDriver(system, driver, 31);
  };

  // Cold replay: gtm_crash against a durable, checkpoint-free GTM.
  MdbsConfig cold_config = MdbsConfig::Mixed(kProtocols, SchemeKind::kScheme3);
  cold_config.seed = 31;
  cold_config.gtm.durable = true;
  cold_config.gtm.checkpoint_interval = 0;  // replay from the log head
  cold_config.gtm.recovery_base_time = kBase;
  cold_config.gtm.recovery_time_per_record = kPerRecord;
  fault::FaultPlan cold_plan;
  cold_plan.gtm_crashes.push_back(
      fault::GtmCrashEvent{kCrashAt, kDetection});
  cold_config.fault_plan = cold_plan;
  Mdbs cold(cold_config);
  drive(&cold);
  gtm::GtmDurabilityStats cold_stats = cold.gtm_durability_stats();
  ASSERT_EQ(cold_stats.recoveries, 1);
  ASSERT_GT(cold_stats.replayed_records, 0);

  // Warm standby: same workload, same crash point, same modeled costs.
  MdbsConfig warm_config =
      StandbyConfig(SchemeKind::kScheme3, 31, kCrashAt, kDetection,
                    /*lag=*/10);
  warm_config.gtm.checkpoint_interval = 0;
  warm_config.gtm.recovery_base_time = kBase;
  warm_config.gtm.recovery_time_per_record = kPerRecord;
  Mdbs warm(warm_config);
  drive(&warm);
  gtm::GtmStandbyStats standby = warm.gtm_standby_stats();
  ASSERT_EQ(standby.promotions, 1);
  gtm::GtmDurabilityStats warm_stats = warm.gtm_durability_stats();

  // The promotion replayed only the unshipped tail; cold replay scanned the
  // whole log. The tail is bounded by the frames in flight during one
  // shipping delay, not by how long the run had been going.
  EXPECT_EQ(warm_stats.replayed_records, standby.lag_records);
  EXPECT_LT(standby.lag_records, cold_stats.replayed_records / 5)
      << "the standby's tail should be a small fraction of the full log";
  EXPECT_LE(5 * warm_stats.recovery_ticks, cold_stats.recovery_ticks)
      << "failover unavailability must be >=5x shorter than cold replay "
         "(warm "
      << warm_stats.recovery_ticks << " ticks vs cold "
      << cold_stats.recovery_ticks << " ticks)";
}

// Claim (3), fencing: after the promotion the old primary's Recover() is
// refused (it no longer holds the epoch), and WAL frames it shipped in its
// final turns — still in flight across the modeled network when the
// standby took over — are discarded and counted, never applied.
TEST(GtmFailoverTest, FencedOldPrimaryCannotRecoverAndLateFramesDrop) {
  // The workload logs in lockstep bursts roughly every 200k ticks, so a
  // shipping lag above the burst period guarantees the latest burst is
  // still in flight — durable but unapplied — whenever the crash lands,
  // and the detection delay far below the lag guarantees those frames
  // arrive only after the promotion.
  MdbsConfig config = StandbyConfig(SchemeKind::kScheme2, 17, /*at=*/600000,
                                    /*detection=*/500, /*lag=*/250000);
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 0;
  driver.target_global_commits = 50;
  driver.global_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 3;
  RunDriver(&system, driver, 17);

  gtm::GtmStandbyStats standby = system.gtm_standby_stats();
  ASSERT_EQ(standby.promotions, 1);
  EXPECT_GT(standby.dropped_frames, 0)
      << "with lag >> detection delay, some shipped frames must arrive "
         "after the promotion and be discarded";
  EXPECT_GT(standby.lag_records, 0)
      << "the promotion should have had a durable tail to read back";
  // Quiescent: every shipped frame was either applied before the promotion
  // or dropped after it. The tail the promotion read back is neither.
  EXPECT_EQ(standby.shipped_records,
            standby.applied_records + standby.dropped_frames);
  EXPECT_LE(standby.applied_bytes, standby.shipped_bytes);

  // The fenced old primary refuses to recover: it lost the epoch.
  gtm::GtmReplica& replica = *system.gtm_replica();
  ASSERT_TRUE(replica.promoted());
  int64_t rejections_before = system.gtm_standby_stats().stale_rejections;
  replica.Recover({});
  system.RunUntilIdle();
  EXPECT_EQ(system.gtm_durability_stats().recoveries, 0)
      << "a fenced GTM must stay dead — recovering it would be split brain";
  EXPECT_EQ(system.gtm_standby_stats().stale_rejections,
            rejections_before + 1);
  EXPECT_EQ(system.gtm_standby_stats().promotions, 1);
  EXPECT_EQ(system.gtm_standby_stats().fencing_epoch, 1);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

// The promotion tail's GTM2 mutations are replayed like cold recovery's and
// counted the same way: replayed_enqueues equals the enqueue and
// abort-cleanup records among the primary's last lag_records records.
TEST(GtmFailoverTest, PromotionCountsTheMutationsItReplays) {
  auto device = std::make_shared<storage::MemLogDevice>();
  MdbsConfig config = StandbyConfig(SchemeKind::kScheme2, 17, /*at=*/600000,
                                    /*detection=*/500, /*lag=*/250000);
  config.gtm.wal_device = device;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 0;
  driver.target_global_commits = 50;
  driver.global_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 3;
  RunDriver(&system, driver, 17);

  gtm::GtmStandbyStats standby = system.gtm_standby_stats();
  ASSERT_EQ(standby.promotions, 1);
  gtm::GtmLogScan scan;
  ASSERT_TRUE(gtm::ReadGtmLog(*device, &scan).ok());
  ASSERT_LE(standby.lag_records, static_cast<int64_t>(scan.records.size()));
  int64_t tail_mutations = 0;
  for (size_t i = scan.records.size() - standby.lag_records;
       i < scan.records.size(); ++i) {
    gtm::GtmLogRecordType type = scan.records[i].type;
    if (type == gtm::GtmLogRecordType::kEnqueue ||
        type == gtm::GtmLogRecordType::kAbortCleanup) {
      ++tail_mutations;
    }
  }
  ASSERT_GT(tail_mutations, 0) << "the tail holds no GTM2 mutation to count";
  EXPECT_EQ(system.gtm_durability_stats().replayed_enqueues, tail_mutations);
}

// Claim (4): the serializability battery stays green with a mid-run
// failover, across Schemes 0-3 and both engines.
class GtmFailoverSrBatteryTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    SchemesAndEngines, GtmFailoverSrBatteryTest,
    ::testing::Combine(::testing::Values(SchemeKind::kScheme0,
                                         SchemeKind::kScheme1,
                                         SchemeKind::kScheme2,
                                         SchemeKind::kScheme3),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_Threaded" : "_Sim");
    });

TEST_P(GtmFailoverSrBatteryTest, StaysSerializableAcrossFailover) {
  const SchemeKind scheme = std::get<0>(GetParam());
  const bool threaded = std::get<1>(GetParam());
  MdbsConfig config = StandbyConfig(scheme, 29, /*at=*/50000,
                                    /*detection=*/1200, /*lag=*/30);
  config.threaded = threaded;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 3;
  DriverReport report = RunDriver(&system, driver, 29);

  EXPECT_GE(report.global_committed, driver.target_global_commits);
  EXPECT_EQ(report.gtm_standby.promotions, 1);
  EXPECT_EQ(report.gtm_standby.fencing_epoch, 1);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
  EXPECT_TRUE(system.CheckStrictness().ok());
}

// The standby continuously mirrors the primary: in a quiescent moment the
// shadow applied everything shipped, and the shipped stream is exactly the
// primary's durable log.
TEST(GtmFailoverTest, StandbyShadowKeepsUpWithThePrimary) {
  auto device = std::make_shared<storage::MemLogDevice>();
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, SchemeKind::kScheme3);
  config.seed = 41;
  config.gtm.durable = true;
  config.gtm.wal_device = device;
  config.gtm_standby = true;
  config.standby_lag = 15;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 0;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 20;
  RunDriver(&system, driver, 41);

  gtm::GtmStandbyStats standby = system.gtm_standby_stats();
  EXPECT_EQ(standby.promotions, 0);
  EXPECT_GT(standby.shipped_records, 0);
  // Quiescent: everything shipped has been applied, nothing dropped.
  EXPECT_EQ(standby.applied_records, standby.shipped_records);
  EXPECT_EQ(standby.applied_bytes, standby.shipped_bytes);
  EXPECT_EQ(standby.dropped_frames, 0);
  // The shipped stream is the durable log, record for record.
  gtm::GtmDurabilityStats primary = system.gtm_durability_stats();
  EXPECT_EQ(standby.shipped_records, primary.wal_records);
  EXPECT_EQ(standby.shipped_bytes, primary.wal_bytes);
}

// ----------------------------------------------------------------------
// Cold recovery and promotion install the same state
// ----------------------------------------------------------------------

constexpr sim::Time kDiffDetection = 1000;

/// Runs one Scheme-`scheme` workload with a site crash sweep, crashes the
/// GTM at `crash_at`, and captures what the catch-up installs
/// kDiffDetection ticks later: a cold Recover() over the GTM's own log,
/// or, with `standby`, the promotion of a standby that was fed the same
/// records (its shipping lag is far below the detection delay, so the
/// tail is empty).
Installed RunToInstall(SchemeKind scheme, bool standby, sim::Time crash_at) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic},
      scheme);
  config.seed = 101;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 32;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/4000, /*duration=*/1500);
  if (standby) {
    config.gtm_standby = true;
    config.standby_lag = 10;
    config.fault_plan.gtm_failovers.push_back(
        fault::GtmFailoverEvent{crash_at, kDiffDetection});
  } else {
    config.fault_plan.gtm_crashes.push_back(
        fault::GtmCrashEvent{crash_at, kDiffDetection});
  }
  Mdbs system(config);

  Installed out;
  CaptureInstall(&system, crash_at, kDiffDetection, &out);
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 2;
  RunDriver(&system, driver, 101);
  return out;
}

class GtmCatchUpDiffTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(Schemes, GtmCatchUpDiffTest,
                         ::testing::Values(SchemeKind::kScheme0,
                                           SchemeKind::kScheme1,
                                           SchemeKind::kScheme2,
                                           SchemeKind::kScheme3),
                         [](const auto& info) {
                           return std::string(
                               gtm::SchemeKindName(info.param));
                         });

// Lock-step differential of the two catch-up paths: at 20 crash points of
// a run with site crashes, cold recovery and a promotion with an empty
// tail install the same GTM2, the same job and attempt tables, the same
// id allocators, quarantine and counters.
TEST_P(GtmCatchUpDiffTest, ColdRecoveryAndPromotionInstallTheSameState) {
  const SchemeKind scheme = GetParam();
  int64_t jobs_seen = 0;
  int64_t attempts_seen = 0;
  for (int point = 0; point < 20; ++point) {
    const sim::Time crash_at = 1500 + 1300 * point;
    SCOPED_TRACE("GTM crash at tick " + std::to_string(crash_at));
    Installed cold = RunToInstall(scheme, /*standby=*/false, crash_at);
    Installed warm = RunToInstall(scheme, /*standby=*/true, crash_at);
    ASSERT_TRUE(cold.captured && warm.captured);
    EXPECT_EQ(warm.lag_records, 0) << "the promotion had a tail to read";
    ExpectSameInstall(cold, warm);
    jobs_seen += static_cast<int64_t>(cold.jobs);
    attempts_seen += static_cast<int64_t>(cold.attempts);
  }
  EXPECT_GT(jobs_seen, 20) << "the crash points found too little in flight";
  EXPECT_GT(attempts_seen, 0) << "no crash point caught a mid-commit attempt";
}

}  // namespace
}  // namespace mdbs
