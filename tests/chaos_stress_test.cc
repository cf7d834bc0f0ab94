// Chaos tier (ctest -L chaos): heavy deterministic fault plans — repeated
// crash sweeps plus aggressive message loss, duplication and delay spikes —
// against larger workloads, on both engines. In CI this runs under TSan as
// well, so the threaded runs double as data-race probes for the failure
// paths (health monitor, quarantine, dedup guards).
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

/// Two full crash sweeps across all four sites plus every message fault the
/// plan language knows, at rates well above the tier-1 tests.
fault::FaultPlan HeavyPlan(sim::Time first_at, sim::Time gap,
                           sim::Time duration) {
  fault::FaultPlan plan;
  plan.sweeps.push_back(fault::SweepEvent{first_at, gap, duration});
  plan.sweeps.push_back(fault::SweepEvent{first_at + 4 * gap, gap, duration});
  plan.request_loss = 0.04;
  plan.response_loss = 0.04;
  plan.duplicate = 0.05;
  plan.delay_spike = 0.10;
  plan.spike_ticks = 200;
  plan.seed = 99;
  return plan;
}

MdbsConfig ChaosSystem(SchemeKind scheme, bool threaded) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph, ProtocolKind::kTwoPhaseLocking},
      scheme);
  config.threaded = threaded;
  config.seed = 97;
  config.gtm.retry_backoff = 200;
  config.gtm.attempt_timeout = threaded ? 50'000 : 10'000;
  config.health.probe_interval = threaded ? 400 : 300;
  config.health.suspect_after = threaded ? 1000 : 600;
  config.health.down_after = threaded ? 2000 : 1200;
  return config;
}

DriverConfig ChaosWorkload(int target) {
  DriverConfig driver;
  driver.global_clients = 8;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = target;
  driver.global_workload.items_per_site = 40;
  driver.local_workload.items_per_site = 40;
  driver.retry.max_resubmissions = 4;
  driver.retry.backoff = 400;
  return driver;
}

class ChaosStressTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, ChaosStressTest,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

TEST_P(ChaosStressTest, SimulatedHeavyChaosStaysCorrect) {
  MdbsConfig config = ChaosSystem(GetParam(), /*threaded=*/false);
  config.fault_plan = HeavyPlan(/*first_at=*/2000, /*gap=*/3000,
                                /*duration=*/2000);
  Mdbs system(config);
  DriverConfig driver = ChaosWorkload(/*target=*/80);
  DriverReport report = RunDriver(&system, driver, 97);

  EXPECT_EQ(report.faults.plan_crashes, 8) << "two sweeps over four sites";
  EXPECT_GT(report.faults.requests_lost + report.faults.responses_lost, 0);
  EXPECT_EQ(report.faults.duplicates_suppressed,
            report.faults.duplicates_injected);
  EXPECT_GE(report.global_committed + report.global_failed, 80);
  EXPECT_GE(report.global_committed, 40);
  EXPECT_EQ(system.gtm().InFlight(), 0);
  EXPECT_EQ(system.gtm().ParkedJobs(), 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  EXPECT_TRUE(system.CheckStrictness().ok());
}

TEST_P(ChaosStressTest, ThreadedHeavyChaosStaysCorrect) {
  MdbsConfig config = ChaosSystem(GetParam(), /*threaded=*/true);
  config.fault_plan = HeavyPlan(/*first_at=*/6000, /*gap=*/8000,
                                /*duration=*/4000);
  Mdbs system(config);
  DriverConfig driver = ChaosWorkload(/*target=*/60);
  DriverReport report = RunDriver(&system, driver, 97);

  EXPECT_GE(report.global_committed + report.global_failed, 60);
  EXPECT_GE(report.global_committed, 30);
  EXPECT_GE(report.faults.plan_crashes, 1);
  EXPECT_EQ(report.faults.duplicates_suppressed,
            report.faults.duplicates_injected);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

// Failover under fire, threaded: the warm standby promotes mid-run while
// both sweeps, message loss, duplication and delay spikes are all active.
// Under TSan this stresses the shipping tap (log append on the GTM strand,
// delivery rescheduled on the same strand), the fence handoff, and the
// facade's active-GTM swap racing real site strands. The oracles stay
// exact: one promotion, epoch 1, a dead fenced primary, duplicates all
// suppressed, and a serializable federation.
TEST_P(ChaosStressTest, ThreadedFailoverUnderHeavyChaosStaysCorrect) {
  MdbsConfig config = ChaosSystem(GetParam(), /*threaded=*/true);
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 128;
  config.gtm_standby = true;
  config.standby_lag = 1500;
  config.fault_plan = HeavyPlan(/*first_at=*/6000, /*gap=*/8000,
                                /*duration=*/4000);
  config.fault_plan.gtm_failovers.push_back(
      fault::GtmFailoverEvent{30'000, 5000});
  Mdbs system(config);
  DriverConfig driver = ChaosWorkload(/*target=*/60);
  DriverReport report = RunDriver(&system, driver, 97);

  EXPECT_GE(report.global_committed + report.global_failed, 60);
  EXPECT_GE(report.global_committed, 30);
  EXPECT_EQ(report.gtm_standby.promotions, 1);
  EXPECT_EQ(report.gtm_standby.fencing_epoch, 1);
  EXPECT_TRUE(system.gtm_replica()->promoted());
  EXPECT_EQ(report.gtm_durability.recoveries, 0)
      << "the fenced old primary must stay dead";
  EXPECT_EQ(report.faults.duplicates_suppressed,
            report.faults.duplicates_injected);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

}  // namespace
}  // namespace mdbs
