// Durable chaos: long-horizon runs with repeated site crashes on durable
// sites, both engines, judged by three oracles. (1) Zero committed-data
// loss: after the run quiesces, every site's store holds exactly the value
// of the last committed write per item in the recorded schedule — a crash
// may only lose unacknowledged work. (2) The audit oracle's global
// serializability verdict must hold across restarts. (3) A differential:
// with zero modeled recovery time, a durable run must replay byte-for-byte
// against the same seeded run with non-durable sites, whose in-memory store
// doubles as stable storage — recovery is only correct if it is invisible.
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "sched/schedule.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

const std::vector<ProtocolKind> kMixedProtocols = {
    ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
    ProtocolKind::kMultiversionTO, ProtocolKind::kOptimistic};

/// Marks every site durable with the given checkpoint interval.
void MakeDurable(MdbsConfig* config, int64_t checkpoint_interval) {
  for (site::SiteConfig& site : config->sites) {
    site.durable = true;
    site.checkpoint_interval = checkpoint_interval;
  }
}

/// Two rounds of crashes over every site plus light network chaos.
fault::FaultPlan RepeatedCrashPlan(int num_sites, sim::Time first_at,
                                   sim::Time gap, sim::Time duration) {
  fault::FaultPlan plan =
      fault::FaultPlan::CrashSweep(num_sites, first_at, gap, duration);
  sim::Time second_round = first_at + gap * num_sites + gap / 2;
  for (int site = 0; site < num_sites; ++site) {
    plan.crashes.push_back(fault::CrashEvent{
        SiteId{site}, second_round + gap * site, duration});
  }
  return plan;
}

/// Oracle (1): the store must hold the last committed write per item.
/// "Last" is by the writer's commit position (finish_seq): deferred
/// protocols install at commit, and strictness orders in-place writers'
/// commits consistently with their writes — so commit order decides which
/// value must survive every crash and recovery. Items written only by
/// aborted transactions must read 0 (the rolled-back initial value).
void ExpectZeroCommittedDataLoss(Mdbs* system) {
  for (SiteId site : system->site_ids()) {
    // item -> (finish_seq of writer, op seq, value): lexicographic max wins.
    std::unordered_map<int64_t, std::tuple<int64_t, int64_t, int64_t>> last;
    std::unordered_set<int64_t> universe;
    const sched::SiteSchedule& schedule = system->recorder().site(site);
    for (const sched::RecordedOp& op : schedule.ops()) {
      if (op.op.type != OpType::kWrite) continue;
      universe.insert(op.op.item.value());
      const sched::TxnRecord* txn = schedule.FindTxn(op.txn);
      ASSERT_NE(txn, nullptr);
      if (txn->outcome != TxnOutcome::kCommitted) continue;
      std::tuple<int64_t, int64_t, int64_t> candidate{txn->finish_seq,
                                                      op.seq, op.op.value};
      auto [it, inserted] = last.try_emplace(op.op.item.value(), candidate);
      if (!inserted && candidate > it->second) it->second = candidate;
    }
    for (int64_t item : universe) {
      auto it = last.find(item);
      int64_t expected = it == last.end() ? 0 : std::get<2>(it->second);
      EXPECT_EQ(system->site(site).UnsafePeek(DataItemId{item}), expected)
          << ToString(site) << " item " << item
          << ": committed data lost (or a loser leaked) across recovery";
    }
  }
}

class DurableChaosTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, DurableChaosTest,
    ::testing::Values(SchemeKind::kScheme1, SchemeKind::kScheme3),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

// Simulated engine: every site crashes twice while the log-driven recovery
// brings it back each time. The run must finish, commit most of its load,
// lose no committed data, and stay globally serializable.
TEST_P(DurableChaosTest, RepeatedCrashesLoseNoCommittedData) {
  MdbsConfig config = MdbsConfig::Mixed(kMixedProtocols, GetParam());
  config.seed = 97;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  config.fault_plan = RepeatedCrashPlan(/*num_sites=*/4, /*first_at=*/2000,
                                        /*gap=*/4000, /*duration=*/2000);
  config.fault_plan.request_loss = 0.01;
  config.fault_plan.response_loss = 0.01;
  config.fault_plan.seed = 3;
  MakeDurable(&config, 64);
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 120;
  driver.global_workload.items_per_site = 25;
  driver.local_workload.items_per_site = 25;
  driver.retry.max_resubmissions = 3;
  driver.retry.backoff = 400;
  DriverReport report = RunDriver(&system, driver, 97);

  EXPECT_EQ(report.faults.plan_crashes, 8) << "every site must crash twice";
  EXPECT_EQ(report.durability.recoveries, 8);
  EXPECT_GT(report.durability.replay_records, 0);
  EXPECT_GE(report.global_committed, 80);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  EXPECT_TRUE(system.CheckStrictness().ok());
  ExpectZeroCommittedDataLoss(&system);
}

// Oracle (3): with recovery time zero, durable and non-durable runs of the
// same seed must be indistinguishable — same recorded schedule, same final
// stores, same report (minus the WAL summary line durable runs append).
// Any divergence means recovery resurrected or dropped something.
TEST_P(DurableChaosTest, DurableRunIsByteIdenticalToNonDurableReference) {
  auto run = [&](bool durable, std::string* dump,
                 std::vector<int64_t>* peeks) {
    MdbsConfig config = MdbsConfig::Mixed(kMixedProtocols, GetParam());
    config.seed = 133;
    config.gtm.attempt_timeout = 8'000;
    config.gtm.retry_backoff = 250;
    config.health.probe_interval = 300;
    config.health.suspect_after = 600;
    config.health.down_after = 1200;
    config.fault_plan = RepeatedCrashPlan(/*num_sites=*/4, /*first_at=*/1500,
                                          /*gap=*/3500, /*duration=*/1800);
    if (durable) MakeDurable(&config, 32);
    Mdbs system(config);
    DriverConfig driver;
    driver.global_clients = 5;
    driver.local_clients_per_site = 1;
    driver.target_global_commits = 80;
    driver.global_workload.items_per_site = 20;
    driver.local_workload.items_per_site = 20;
    driver.retry.max_resubmissions = 2;
    DriverReport report = RunDriver(&system, driver, 133);
    EXPECT_TRUE(system.RunAuditOracle().ok());
    *dump = system.recorder().Dump(1'000'000);
    for (SiteId site : system.site_ids()) {
      for (int64_t item = 0; item < 20; ++item) {
        peeks->push_back(system.site(site).UnsafePeek(DataItemId{item}));
      }
    }
    if (durable) {
      EXPECT_GT(report.durability.recoveries, 0)
          << "the differential never exercised recovery";
    }
    std::string text = report.ToString();
    size_t wal = text.find("wal: ");
    if (wal != std::string::npos) {
      text.erase(wal, text.find('\n', wal) - wal + 1);
    }
    return text;
  };

  std::string durable_dump, reference_dump;
  std::vector<int64_t> durable_peeks, reference_peeks;
  std::string durable_report = run(true, &durable_dump, &durable_peeks);
  std::string reference_report =
      run(false, &reference_dump, &reference_peeks);
  EXPECT_EQ(durable_report, reference_report);
  EXPECT_EQ(durable_dump, reference_dump)
      << "recovery perturbed the recorded schedule";
  EXPECT_EQ(durable_peeks, reference_peeks)
      << "recovered stores diverged from the crash-free reference";
}

// Modeled replay latency: recovery holds the site down longer, which the
// rest of the system must tolerate (parking, retries) — and the run still
// loses nothing. Also proves recovery_ticks surfaces in the report.
TEST(DurableChaosCostTest, NonZeroReplayCostStillLosesNothing) {
  MdbsConfig config =
      MdbsConfig::Mixed(kMixedProtocols, SchemeKind::kScheme3);
  config.seed = 41;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/4000, /*duration=*/2000);
  MakeDurable(&config, 64);
  for (site::SiteConfig& site : config.sites) {
    site.recovery_base_time = 200;
    site.recovery_time_per_record = 3;
  }
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 80;
  driver.global_workload.items_per_site = 25;
  driver.local_workload.items_per_site = 25;
  driver.retry.max_resubmissions = 3;
  DriverReport report = RunDriver(&system, driver, 41);

  EXPECT_EQ(report.durability.recoveries, 4);
  EXPECT_GT(report.durability.recovery_ticks,
            4 * 200 + report.durability.replay_records)
      << "replay cost must scale with scanned records";
  EXPECT_GE(report.global_committed, 60);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  ExpectZeroCommittedDataLoss(&system);
}

// Compound outage: the durable GTM crashes twice while a site-crash sweep
// is in flight. GTM recovery must replay through the quarantine churn the
// sweep logged, hand the health monitor's *current* down set to the
// restarted scheme state, and still lose no committed data anywhere — the
// hardest interleaving the fault language can express in one plan.
TEST_P(DurableChaosTest, GtmCrashDuringSiteSweepLosesNothing) {
  MdbsConfig config = MdbsConfig::Mixed(kMixedProtocols, GetParam());
  config.seed = 71;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 64;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/4000, /*duration=*/2000);
  config.fault_plan.gtm_crashes.push_back(fault::GtmCrashEvent{6000, 2500});
  config.fault_plan.gtm_crashes.push_back(
      fault::GtmCrashEvent{15'000, 1500});
  MakeDurable(&config, 64);
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 100;
  driver.global_workload.items_per_site = 25;
  driver.local_workload.items_per_site = 25;
  driver.retry.max_resubmissions = 3;
  driver.retry.backoff = 400;
  DriverReport report = RunDriver(&system, driver, 71);

  EXPECT_EQ(report.gtm_durability.crashes, 2);
  EXPECT_EQ(report.gtm_durability.recoveries, 2);
  EXPECT_GT(report.gtm_durability.replayed_records, 0);
  EXPECT_EQ(report.faults.plan_crashes, 4) << "the site sweep must run too";
  EXPECT_EQ(report.durability.recoveries, 4);
  EXPECT_GE(report.global_committed, 60);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  EXPECT_TRUE(system.CheckStrictness().ok());
  ExpectZeroCommittedDataLoss(&system);
}

// Compound availability event: the primary GTM dies and the warm standby
// takes over while a site-crash sweep is still knocking sites down. The
// promotion must seed the scheme state with the health monitor's current
// down set, the fenced old primary must stay dead, the sweep's recoveries
// must proceed under the new epoch — and still no committed data is lost
// anywhere in the federation.
TEST_P(DurableChaosTest, FailoverDuringSiteSweepLosesNothing) {
  MdbsConfig config = MdbsConfig::Mixed(kMixedProtocols, GetParam());
  config.seed = 89;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 64;
  config.gtm_standby = true;
  config.standby_lag = 50;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  // The sweep brackets the failover: sites are still crashing when the
  // standby promotes, so the new primary starts life with a partial down
  // set and quarantined work in its inherited queue state.
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/550'000, /*gap=*/4000,
      /*duration=*/2000);
  config.fault_plan.gtm_failovers.push_back(
      fault::GtmFailoverEvent{556'000, 2500});
  MakeDurable(&config, 64);
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 100;
  driver.global_workload.items_per_site = 25;
  driver.local_workload.items_per_site = 25;
  driver.retry.max_resubmissions = 3;
  driver.retry.backoff = 400;
  DriverReport report = RunDriver(&system, driver, 89);

  EXPECT_EQ(report.gtm_standby.promotions, 1);
  EXPECT_EQ(report.gtm_standby.fencing_epoch, 1);
  EXPECT_EQ(report.gtm_durability.crashes, 1);
  EXPECT_EQ(report.faults.plan_crashes, 4) << "the site sweep must run too";
  EXPECT_EQ(report.durability.recoveries, 4);
  EXPECT_GE(report.global_committed, 60);
  EXPECT_TRUE(system.gtm_replica()->promoted());
  EXPECT_EQ(report.gtm_durability.recoveries, 0)
      << "the fenced old primary must stay dead";
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  EXPECT_TRUE(system.CheckStrictness().ok());
  ExpectZeroCommittedDataLoss(&system);
}

// Threaded engine: real strands, real clocks, durable sites crashing in a
// sweep. Timing is nondeterministic, but the oracles are not: no committed
// data loss, a serializable audit verdict, and every crash recovered.
TEST_P(DurableChaosTest, ThreadedCrashSweepLosesNoCommittedData) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kMultiversionTO},
      GetParam());
  config.threaded = true;
  config.seed = 59;
  config.gtm.retry_backoff = 300;
  config.gtm.attempt_timeout = 50'000;
  config.health.probe_interval = 400;
  config.health.suspect_after = 1000;
  config.health.down_after = 2000;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/3, /*first_at=*/8000, /*gap=*/12'000,
      /*duration=*/5000);
  MakeDurable(&config, 128);
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  driver.retry.max_resubmissions = 2;
  driver.retry.backoff = 500;
  DriverReport report = RunDriver(&system, driver, 59);

  EXPECT_GE(report.global_committed, 20);
  EXPECT_GE(report.faults.plan_crashes, 1)
      << "the run outlived every crash window";
  EXPECT_EQ(report.durability.recoveries, report.faults.plan_crashes)
      << "some crash never ran recovery";
  EXPECT_GT(report.durability.wal_records, 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  ExpectZeroCommittedDataLoss(&system);
}

// Threaded engine, durable GTM: a real-time GTM outage mid-run. Clients
// keep their submissions and callbacks across the crash (closures are not
// serializable, so the registry models clients that survive the outage);
// the restarted GTM replays its WAL on its own strand while site strands
// keep serving local work. Oracles: the outage happened, every crash
// recovered, and the federation stays globally serializable.
TEST_P(DurableChaosTest, ThreadedGtmCrashRidesOutTheOutage) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kMultiversionTO},
      GetParam());
  config.threaded = true;
  config.seed = 83;
  config.gtm.retry_backoff = 300;
  config.gtm.attempt_timeout = 50'000;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 128;
  config.fault_plan.gtm_crashes.push_back(
      fault::GtmCrashEvent{20'000, 15'000});
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  driver.retry.max_resubmissions = 2;
  driver.retry.backoff = 500;
  DriverReport report = RunDriver(&system, driver, 83);

  EXPECT_GE(report.global_committed, 40);
  EXPECT_EQ(report.gtm_durability.crashes, 1);
  EXPECT_EQ(report.gtm_durability.recoveries, 1);
  EXPECT_GT(report.gtm_durability.wal_records, 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

// Threaded engine, compound event: failover mid-sweep under real strands.
// The shipping tap, the shadow apply, the promotion, and the site
// recoveries all race on real clocks; the oracles stay exact — one
// promotion, a monotone epoch, every site crash recovered, no committed
// data loss, and a serializable federation.
TEST_P(DurableChaosTest, ThreadedFailoverDuringSiteSweepLosesNothing) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kMultiversionTO},
      GetParam());
  config.threaded = true;
  config.seed = 101;
  config.gtm.retry_backoff = 300;
  config.gtm.attempt_timeout = 50'000;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 128;
  config.gtm_standby = true;
  config.standby_lag = 2000;
  config.health.probe_interval = 400;
  config.health.suspect_after = 1000;
  config.health.down_after = 2000;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/3, /*first_at=*/8000, /*gap=*/12'000,
      /*duration=*/5000);
  config.fault_plan.gtm_failovers.push_back(
      fault::GtmFailoverEvent{25'000, 5000});
  MakeDurable(&config, 128);
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  driver.retry.max_resubmissions = 2;
  driver.retry.backoff = 500;
  DriverReport report = RunDriver(&system, driver, 101);

  EXPECT_GE(report.global_committed, 20);
  EXPECT_EQ(report.gtm_standby.promotions, 1);
  EXPECT_EQ(report.gtm_standby.fencing_epoch, 1);
  EXPECT_GE(report.faults.plan_crashes, 1)
      << "the run outlived every crash window";
  EXPECT_EQ(report.durability.recoveries, report.faults.plan_crashes)
      << "some crash never ran recovery";
  EXPECT_TRUE(system.gtm_replica()->promoted());
  EXPECT_EQ(report.gtm_durability.recoveries, 0)
      << "the fenced old primary must stay dead";
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  ExpectZeroCommittedDataLoss(&system);
}

}  // namespace
}  // namespace mdbs
