// Differential test between the two execution engines: one workload
// configuration, run by RunDriver once on the deterministic simulator and
// once on real threads, must agree on the audit verdict — clean under
// both — and both complete the target number of global transactions.
// Ticks mean virtual time in the first run and real microseconds in the
// second; the configuration carries over unchanged.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "sim/metrics.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define MDBS_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define MDBS_TEST_SANITIZED 1
#endif
#ifdef MDBS_TEST_SANITIZED
constexpr int64_t kSanitizerSlowdown = 3;
#else
constexpr int64_t kSanitizerSlowdown = 1;
#endif

// No OCC in the mix: its partial commits (atomic commitment is out of
// scope, paper §6) would make `global_failed == 0` engine-dependent.
MdbsConfig SystemConfig(SchemeKind scheme, bool threaded) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      scheme);
  config.seed = 17;
  config.threaded = threaded;
  // Identical in both engines, but sized for the threaded one: with ~20
  // clients and every strand sharing one core, an attempt can starve past
  // the default 200ms attempt timeout, and repeated timeouts read as
  // `global_failed` noise. 2s keeps the cross-site-deadlock escape hatch
  // without the starvation flake, so `global_failed == 0` stays a strict
  // differential claim. A sanitizer slows every attempt several-fold in
  // real time (not in virtual time), so its builds scale the timeout.
  config.gtm.attempt_timeout = 2'000'000 * kSanitizerSlowdown;
  return config;
}

DriverConfig Workload() {
  DriverConfig config;
  config.global_clients = 6;
  config.local_clients_per_site = 2;
  config.target_global_commits = 40;
  config.global_workload.items_per_site = 30;
  config.local_workload.items_per_site = 30;
  return config;
}

class ThreadedVsSim : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(Schemes, ThreadedVsSim,
                         ::testing::Values(SchemeKind::kScheme0,
                                           SchemeKind::kScheme3),
                         [](const ::testing::TestParamInfo<SchemeKind>& info) {
                           return gtm::SchemeKindName(info.param);
                         });

TEST_P(ThreadedVsSim, EnginesAgreeOnOutcomeAndAuditVerdict) {
  DriverConfig workload = Workload();

  Mdbs sim_system(SystemConfig(GetParam(), /*threaded=*/false));
  DriverReport sim_report = RunDriver(&sim_system, workload, 23);

  Mdbs threaded_system(SystemConfig(GetParam(), /*threaded=*/true));
  DriverReport threaded_report =
      RunDriver(&threaded_system, workload, 23);

  for (const DriverReport* report : {&sim_report, &threaded_report}) {
    EXPECT_GE(report->global_committed, workload.target_global_commits);
    EXPECT_EQ(report->global_failed, 0);
    EXPECT_GT(report->local_committed, 0);
  }
  // Audit ran inside each driver (fail-fast would have aborted already);
  // assert the verdicts agree on clean anyway for noaudit builds' sake.
  EXPECT_TRUE(sim_system.auditor().clean());
  EXPECT_TRUE(threaded_system.auditor().clean());
  EXPECT_TRUE(sim_system.CheckGloballySerializable().ok());
  EXPECT_TRUE(threaded_system.CheckGloballySerializable().ok())
      << threaded_system.GlobalSerializabilityResult().ToString();
}

TEST(ThreadedEngineTest, ReportsWallClockThroughput) {
  Mdbs system(SystemConfig(SchemeKind::kScheme3, /*threaded=*/true));
  DriverConfig workload = Workload();
  workload.target_global_commits = 10;
  DriverReport report = RunDriver(&system, workload, 5);
  EXPECT_GE(report.global_committed, 10);
  EXPECT_GT(report.duration, 0);  // Real microseconds elapsed.
  EXPECT_GT(report.global_throughput, 0);  // Committed txns per second.
}

// Worker wait counts exist only for real threads; simulator reports keep
// exactly the counters they had.
TEST(ThreadedEngineTest, ReportsHowItsWorkersWaited) {
  DriverConfig workload = Workload();
  workload.target_global_commits = 10;

  Mdbs threaded_system(SystemConfig(SchemeKind::kScheme3, /*threaded=*/true));
  DriverReport threaded_report =
      RunDriver(&threaded_system, workload, 5);
  ASSERT_TRUE(threaded_report.worker_waits.has_value());
  EXPECT_GT(threaded_report.worker_waits->spun +
                threaded_report.worker_waits->parked,
            0);
  sim::MetricsRegistry threaded_registry;
  threaded_report.AddToRegistry(&threaded_registry);
  EXPECT_EQ(threaded_registry.Counter("sim.worker.spun_waits"),
            threaded_report.worker_waits->spun);
  EXPECT_EQ(threaded_registry.Counter("sim.worker.parked_waits"),
            threaded_report.worker_waits->parked);

  Mdbs sim_system(SystemConfig(SchemeKind::kScheme3, /*threaded=*/false));
  DriverReport sim_report = RunDriver(&sim_system, workload, 5);
  EXPECT_FALSE(sim_report.worker_waits.has_value());
  sim::MetricsRegistry sim_registry;
  sim_report.AddToRegistry(&sim_registry);
  EXPECT_EQ(sim_registry.counters().count("sim.worker.spun_waits"), 0u);
  EXPECT_EQ(sim_registry.counters().count("sim.worker.parked_waits"), 0u);
}

// A local client whose site crashes retries its transaction with a backoff
// of 50–150 ticks between attempts, so its 50 attempts outlast a 3000-tick
// outage and the transaction commits once the site is back. Both engines
// run the same client, so neither may give up on a local transaction here.
// Zero local think time keeps the clients mid-transaction when the site
// goes down; three seeds make it near-certain one of them is.
TEST(ThreadedEngineTest, LocalClientsRideOutASiteOutage) {
  StatusOr<fault::FaultPlan> plan =
      fault::ParseFaultPlan("crash@3000:s0:3000");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  DriverConfig workload = Workload();
  workload.target_global_commits = 60;
  workload.local_think = 0;
  for (bool threaded : {false, true}) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(std::string(threaded ? "threaded" : "simulator") +
                   " seed " + std::to_string(seed));
      MdbsConfig config = SystemConfig(SchemeKind::kScheme3, threaded);
      config.fault_plan = *plan;
      config.gtm.attempt_timeout = 20'000;
      Mdbs system(config);
      DriverReport report = RunDriver(&system, workload, seed);
      EXPECT_EQ(report.faults.plan_crashes, 1);
      EXPECT_GT(report.local_committed, 0);
      EXPECT_EQ(report.local_failed, 0) << report.ToString();
    }
  }
}

}  // namespace
}  // namespace mdbs
