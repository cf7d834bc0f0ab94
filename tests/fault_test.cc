#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs::fault {
namespace {

TEST(FaultPlanTest, ParsesEveryDirective) {
  StatusOr<FaultPlan> plan = ParseFaultPlan(
      "crash@1000:s2:500;sweep@2000:3000:1500;req_loss=0.02;resp_loss=0.03;"
      "dup=0.01;spike=0.05:200;seed=99");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].site, SiteId(2));
  EXPECT_EQ(plan->crashes[0].at, 1000);
  EXPECT_EQ(plan->crashes[0].duration, 500);
  ASSERT_EQ(plan->sweeps.size(), 1u);
  EXPECT_EQ(plan->sweeps[0].first_at, 2000);
  EXPECT_EQ(plan->sweeps[0].gap, 3000);
  EXPECT_EQ(plan->sweeps[0].duration, 1500);
  EXPECT_DOUBLE_EQ(plan->request_loss, 0.02);
  EXPECT_DOUBLE_EQ(plan->response_loss, 0.03);
  EXPECT_DOUBLE_EQ(plan->duplicate, 0.01);
  EXPECT_DOUBLE_EQ(plan->delay_spike, 0.05);
  EXPECT_EQ(plan->spike_ticks, 200);
  EXPECT_EQ(plan->seed, 99u);
  EXPECT_FALSE(plan->Empty());
  EXPECT_TRUE(plan->HasMessageFaults());
}

TEST(FaultPlanTest, ParsesGtmCrashDirective) {
  StatusOr<FaultPlan> plan =
      ParseFaultPlan("gtm_crash@4000:2500;gtm_crash@9000:1000");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->gtm_crashes.size(), 2u);
  EXPECT_EQ(plan->gtm_crashes[0].at, 4000);
  EXPECT_EQ(plan->gtm_crashes[0].duration, 2500);
  EXPECT_EQ(plan->gtm_crashes[1].at, 9000);
  EXPECT_EQ(plan->gtm_crashes[1].duration, 1000);
  EXPECT_FALSE(plan->Empty());
  EXPECT_FALSE(plan->HasMessageFaults());
}

TEST(FaultPlanTest, GtmCrashSpecRoundTrips) {
  StatusOr<FaultPlan> plan =
      ParseFaultPlan("crash@1000:s2:500;gtm_crash@4000:2500;req_loss=0.02");
  ASSERT_TRUE(plan.ok()) << plan.status();
  StatusOr<FaultPlan> again = ParseFaultPlan(plan->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->gtm_crashes.size(), 1u);
  EXPECT_EQ(again->gtm_crashes[0], plan->gtm_crashes[0]);
  EXPECT_EQ(plan->ToSpec(), again->ToSpec());
}

TEST(FaultPlanTest, ValidatePlanForConfigRejectsNonDurableGtmCrash) {
  StatusOr<FaultPlan> plan = ParseFaultPlan("gtm_crash@4000:2500");
  ASSERT_TRUE(plan.ok()) << plan.status();
  Status not_durable = ValidatePlanForConfig(*plan, /*gtm_durable=*/false,
                                             /*gtm_standby=*/false);
  EXPECT_FALSE(not_durable.ok());
  EXPECT_NE(not_durable.message().find("gtm_crash"), std::string::npos);
  EXPECT_NE(not_durable.message().find("not durable"), std::string::npos);
  EXPECT_TRUE(ValidatePlanForConfig(*plan, /*gtm_durable=*/true,
                                    /*gtm_standby=*/false)
                  .ok());
  // Plans without gtm_crash directives never need a durable GTM.
  StatusOr<FaultPlan> sites_only = ParseFaultPlan("crash@1000:s0:500");
  ASSERT_TRUE(sites_only.ok());
  EXPECT_TRUE(ValidatePlanForConfig(*sites_only, false, false).ok());
}

TEST(FaultPlanTest, ParsesGtmFailoverDirective) {
  StatusOr<FaultPlan> plan = ParseFaultPlan("gtm_failover@6000:1500");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->gtm_failovers.size(), 1u);
  EXPECT_EQ(plan->gtm_failovers[0].at, 6000);
  EXPECT_EQ(plan->gtm_failovers[0].duration, 1500);
  EXPECT_FALSE(plan->Empty());
  // Round-trips through the canonical spec.
  StatusOr<FaultPlan> again = ParseFaultPlan(plan->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->gtm_failovers.size(), 1u);
  EXPECT_EQ(again->gtm_failovers[0], plan->gtm_failovers[0]);
  EXPECT_EQ(plan->ToSpec(), again->ToSpec());
}

TEST(FaultPlanTest, ValidatePlanForConfigGatesGtmFailover) {
  StatusOr<FaultPlan> plan = ParseFaultPlan("gtm_failover@6000:1500");
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Needs both a durable GTM and a configured standby.
  Status not_durable = ValidatePlanForConfig(*plan, /*gtm_durable=*/false,
                                             /*gtm_standby=*/false);
  EXPECT_FALSE(not_durable.ok());
  EXPECT_NE(not_durable.message().find("gtm_failover"), std::string::npos);
  Status no_standby = ValidatePlanForConfig(*plan, /*gtm_durable=*/true,
                                            /*gtm_standby=*/false);
  EXPECT_FALSE(no_standby.ok());
  EXPECT_NE(no_standby.message().find("standby"), std::string::npos);
  EXPECT_TRUE(ValidatePlanForConfig(*plan, /*gtm_durable=*/true,
                                    /*gtm_standby=*/true)
                  .ok());
}

TEST(FaultPlanTest, ValidatePlanRejectsDoubleOrMixedFailover) {
  // There is exactly one standby to promote.
  StatusOr<FaultPlan> twice =
      ParseFaultPlan("gtm_failover@6000:1500;gtm_failover@20000:1500");
  ASSERT_TRUE(twice.ok()) << twice.status();
  EXPECT_FALSE(ValidatePlanForConfig(*twice, true, true).ok());
  // Mixing with gtm_crash would recover the fenced old primary: split brain.
  StatusOr<FaultPlan> mixed =
      ParseFaultPlan("gtm_crash@2000:500;gtm_failover@6000:1500");
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  Status status = ValidatePlanForConfig(*mixed, true, true);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("split brain"), std::string::npos);
}

TEST(FaultPlanTest, SpecRoundTrips) {
  const std::string spec =
      "crash@1000:s2:500;sweep@2000:3000:1500;req_loss=0.02;resp_loss=0.03;"
      "dup=0.01;spike=0.05:200;seed=99";
  StatusOr<FaultPlan> plan = ParseFaultPlan(spec);
  ASSERT_TRUE(plan.ok());
  StatusOr<FaultPlan> again = ParseFaultPlan(plan->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(plan->ToSpec(), again->ToSpec());
}

TEST(FaultPlanTest, PeriodicDirectiveRoundTrips) {
  StatusOr<FaultPlan> plan =
      ParseFaultPlan("periodic@4000:1500;crash@100:s1:50;req_loss=0.01");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(plan->periodic.has_value());
  EXPECT_EQ(plan->periodic->interval, 4000);
  EXPECT_EQ(plan->periodic->duration, 1500);
  EXPECT_FALSE(plan->Empty());
  EXPECT_EQ(plan->ToSpec(),
            "crash@100:s1:50;periodic@4000:1500;req_loss=0.01");
  StatusOr<FaultPlan> again = ParseFaultPlan(plan->ToSpec());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->periodic, plan->periodic);
  EXPECT_EQ(again->ToSpec(), plan->ToSpec());

  StatusOr<FaultPlan> alone = ParseFaultPlan("periodic@1:1");
  ASSERT_TRUE(alone.ok()) << alone.status();
  EXPECT_FALSE(alone->Empty());
  EXPECT_FALSE(alone->HasMessageFaults());
}

TEST(FaultPlanTest, RejectsMalformedPeriodicDirectives) {
  for (const char* bad :
       {"periodic@0:100", "periodic@100:0", "periodic@100:-5",
        "periodic@-100:5", "periodic@100", "periodic@", "periodic@:100",
        "periodic@100:", "periodic@100:200:300", "periodic@x:100",
        "periodic@100:200;periodic@300:400"}) {
    StatusOr<FaultPlan> plan = ParseFaultPlan(bad);
    EXPECT_FALSE(plan.ok()) << "accepted '" << bad << "'";
  }
}

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  StatusOr<FaultPlan> plan = ParseFaultPlan("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Empty());
  EXPECT_EQ(plan->ToSpec(), "");
}

TEST(FaultPlanTest, RejectsMalformedDirectives) {
  for (const char* bad :
       {"crash@1000:500", "crash@1000:x2:500", "crash@1000:s2:0",
        "sweep@10:20", "gtm_crash@1000", "gtm_crash@1000:0",
        "gtm_crash@1000:2000:3000", "gtm_crash@x:100",
        "gtm_failover@1000", "gtm_failover@1000:0",
        "gtm_failover@1000:2000:3000", "gtm_failover@x:100",
        "req_loss=1.5", "resp_loss=-0.1", "dup=x",
        "spike=0.1", "spike=0.1:0", "seed=", "nonsense", "foo=1"}) {
    StatusOr<FaultPlan> plan = ParseFaultPlan(bad);
    EXPECT_FALSE(plan.ok()) << "accepted '" << bad << "'";
  }
}

TEST(FaultPlanTest, ReadsPlanFromFileWithCommentsAndNewlines) {
  std::string path = ::testing::TempDir() + "/fault_plan_test.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# a crash sweep with some message chaos\n"
        << "sweep@2000:3000:1500\n"
        << "req_loss=0.02\n"
        << "\n"
        << "dup=0.01  \n";
  }
  StatusOr<FaultPlan> plan = ParseFaultPlan(path);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->sweeps.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->request_loss, 0.02);
  EXPECT_DOUBLE_EQ(plan->duplicate, 0.01);
  std::remove(path.c_str());
}

TEST(FaultPlanTest, ResolveSweepsExpandsAndSortsDeterministically) {
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{SiteId(1), 7000, 100});
  plan.sweeps.push_back(SweepEvent{2000, 3000, 1500});
  FaultPlan resolved = ResolveSweeps(plan, 3);
  EXPECT_TRUE(resolved.sweeps.empty());
  ASSERT_EQ(resolved.crashes.size(), 4u);
  // Sorted by (at, site): sweep hits 2000/5000/8000, explicit crash at 7000.
  EXPECT_EQ(resolved.crashes[0].at, 2000);
  EXPECT_EQ(resolved.crashes[0].site, SiteId(0));
  EXPECT_EQ(resolved.crashes[1].at, 5000);
  EXPECT_EQ(resolved.crashes[2].at, 7000);
  EXPECT_EQ(resolved.crashes[2].site, SiteId(1));
  EXPECT_EQ(resolved.crashes[3].at, 8000);
  EXPECT_EQ(resolved.crashes[3].site, SiteId(2));
}

TEST(FaultPlanTest, CrashSweepCoversEverySiteOnce) {
  FaultPlan plan = FaultPlan::CrashSweep(4, 1000, 2000, 500);
  ASSERT_EQ(plan.crashes.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.crashes[i].site, SiteId(i));
    EXPECT_EQ(plan.crashes[i].at, 1000 + i * 2000);
    EXPECT_EQ(plan.crashes[i].duration, 500);
  }
}

std::vector<MessageFate> DrawSequence(const FaultPlan& plan, uint64_t seed,
                                      int n) {
  FaultInjector injector(plan, seed);
  std::vector<MessageFate> fates;
  for (int i = 0; i < n; ++i) {
    fates.push_back(i % 2 == 0 ? injector.RequestFate()
                               : injector.ResponseFate());
  }
  return fates;
}

TEST(FaultInjectorTest, SameSeedDrawsIdenticalFates) {
  FaultPlan plan;
  plan.request_loss = 0.1;
  plan.response_loss = 0.1;
  plan.duplicate = 0.1;
  plan.delay_spike = 0.2;
  plan.spike_ticks = 50;
  std::vector<MessageFate> first = DrawSequence(plan, 17, 500);
  std::vector<MessageFate> second = DrawSequence(plan, 17, 500);
  ASSERT_EQ(first.size(), second.size());
  bool anything_happened = false;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].lost, second[i].lost) << "at " << i;
    EXPECT_EQ(first[i].duplicated, second[i].duplicated) << "at " << i;
    EXPECT_EQ(first[i].extra_delay, second[i].extra_delay) << "at " << i;
    EXPECT_EQ(first[i].duplicate_lag, second[i].duplicate_lag) << "at " << i;
    anything_happened = anything_happened || first[i].lost ||
                        first[i].duplicated || first[i].extra_delay > 0;
  }
  EXPECT_TRUE(anything_happened) << "rates set but nothing was injected";
}

// The message-fate stream is pinned to a recorded digest, and a plan's
// crash directives (`periodic` included) never draw from it: the same
// rates draw the same fates with or without them.
TEST(FaultInjectorTest, FatesKeepTheirRecordedDigest) {
  const uint64_t kRecordedDigest = 0x6e45b85e9331e749ull;
  StatusOr<FaultPlan> plain = ParseFaultPlan(
      "req_loss=0.1;resp_loss=0.1;dup=0.1;spike=0.2:50");
  ASSERT_TRUE(plain.ok());
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const MessageFate& fate : DrawSequence(*plain, 17, 500)) {
    for (int64_t field : {int64_t{fate.lost}, int64_t{fate.duplicated},
                          fate.extra_delay, fate.duplicate_lag}) {
      digest ^= static_cast<uint64_t>(field);
      digest *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(digest, kRecordedDigest) << std::hex << "digest is now 0x"
                                     << digest;

  // The same rates with every crash directive drawn alongside.
  StatusOr<FaultPlan> crashing = ParseFaultPlan(
      "periodic@2000:500;crash@100:s0:50;sweep@10:20:30;req_loss=0.1;"
      "resp_loss=0.1;dup=0.1;spike=0.2:50");
  ASSERT_TRUE(crashing.ok());
  std::vector<MessageFate> expected = DrawSequence(*plain, 17, 500);
  std::vector<MessageFate> actual = DrawSequence(*crashing, 17, 500);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].lost, expected[i].lost) << "at " << i;
    EXPECT_EQ(actual[i].duplicated, expected[i].duplicated) << "at " << i;
    EXPECT_EQ(actual[i].extra_delay, expected[i].extra_delay) << "at " << i;
    EXPECT_EQ(actual[i].duplicate_lag, expected[i].duplicate_lag)
        << "at " << i;
  }
}

TEST(FaultInjectorTest, PlanSeedOverridesFallbackSeed) {
  FaultPlan plan;
  plan.request_loss = 0.5;
  plan.seed = 1234;
  std::vector<MessageFate> a = DrawSequence(plan, 1, 100);
  std::vector<MessageFate> b = DrawSequence(plan, 2, 100);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lost, b[i].lost) << "fallback seed leaked in at " << i;
  }
}

TEST(FaultInjectorTest, CountsWhatItInjects) {
  FaultPlan plan;
  plan.request_loss = 0.3;
  plan.response_loss = 0.3;
  plan.duplicate = 0.3;
  plan.delay_spike = 0.3;
  plan.spike_ticks = 10;
  FaultInjector injector(plan, 5);
  for (int i = 0; i < 200; ++i) {
    injector.RequestFate();
    injector.ResponseFate();
  }
  FaultStats stats = injector.stats();
  EXPECT_GT(stats.requests_lost, 0);
  EXPECT_GT(stats.responses_lost, 0);
  EXPECT_GT(stats.duplicates_injected, 0);
  EXPECT_GT(stats.delay_spikes, 0);
  EXPECT_EQ(stats.duplicates_suppressed, 0);
  injector.CountSuppressedDuplicate();
  injector.CountPlanCrash();
  EXPECT_EQ(injector.stats().duplicates_suppressed, 1);
  EXPECT_EQ(injector.stats().plan_crashes, 1);
}

TEST(FaultInjectorTest, ProbesAreNeverDuplicated) {
  FaultPlan plan;
  plan.duplicate = 1.0;
  plan.request_loss = 0.2;
  FaultInjector injector(plan, 7);
  for (int i = 0; i < 200; ++i) {
    MessageFate fate = injector.ProbeFate(i % 2 == 0);
    EXPECT_FALSE(fate.duplicated);
    EXPECT_EQ(fate.duplicate_lag, 0);
  }
  EXPECT_EQ(injector.stats().duplicates_injected, 0);
}

TEST(FaultInjectorTest, ZeroRatesInjectNothing) {
  FaultInjector injector(FaultPlan{}, 42);
  for (int i = 0; i < 100; ++i) {
    MessageFate fate = injector.RequestFate();
    EXPECT_FALSE(fate.lost);
    EXPECT_FALSE(fate.duplicated);
    EXPECT_EQ(fate.extra_delay, 0);
  }
  FaultStats stats = injector.stats();
  EXPECT_EQ(stats.requests_lost + stats.responses_lost +
                stats.duplicates_injected + stats.delay_spikes,
            0);
}

// A simulated run under `periodic` crashes sites while the GTM is busy,
// still ends (the loop stops once nothing is in flight) and restarts with
// the next submission. DeterminismTest.CrashInjectionStaysDeterministic
// replays such a run byte for byte.
TEST(PeriodicCrashTest, SimulatedRunCrashesSitesAndEnds) {
  MdbsConfig config = MdbsConfig::Mixed(
      {lcc::ProtocolKind::kTwoPhaseLocking,
       lcc::ProtocolKind::kTimestampOrdering,
       lcc::ProtocolKind::kSerializationGraph},
      gtm::SchemeKind::kScheme3);
  config.seed = 5;
  config.gtm.attempt_timeout = 10'000;
  StatusOr<FaultPlan> plan = ParseFaultPlan("periodic@2000:800");
  ASSERT_TRUE(plan.ok());
  config.fault_plan = *plan;
  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;

  Mdbs system(config);
  DriverReport report = RunDriver(&system, driver, 8);
  EXPECT_GT(report.faults.plan_crashes, 0);
  EXPECT_EQ(report.crashes, report.faults.plan_crashes);
  EXPECT_GE(report.global_committed + report.global_failed, 40);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());

  // The loop stopped when the GTM went idle; new work restarts it.
  DriverReport again = RunDriver(&system, driver, 9);
  EXPECT_GT(again.faults.plan_crashes, report.faults.plan_crashes);
}

}  // namespace
}  // namespace mdbs::fault
