// Randomized configuration fuzzing: random federations (protocol mixes,
// scheme, workload shape, optional crash injection) must always finish,
// stay locally and globally serializable, and never see a conservative
// scheme abort. This is the catch-all net over the whole stack.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

const ProtocolKind kAllProtocols[] = {
    ProtocolKind::kTwoPhaseLocking,
    ProtocolKind::kTimestampOrdering,
    ProtocolKind::kSerializationGraph,
    ProtocolKind::kOptimistic,
    ProtocolKind::kMultiversionTO,
    ProtocolKind::kTwoPhaseLockingWoundWait,
    ProtocolKind::kTwoPhaseLockingWaitDie,
};

const SchemeKind kConservativeSchemes[] = {
    SchemeKind::kScheme0,
    SchemeKind::kScheme1,
    SchemeKind::kScheme2,
    SchemeKind::kScheme3,
};

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(1, 13),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(FuzzTest, RandomFederationStaysCorrect) {
  Rng rng(GetParam() * 7919);

  // Random federation: 2-5 sites with random protocols.
  int site_count = static_cast<int>(rng.NextInRange(2, 5));
  std::vector<ProtocolKind> protocols;
  for (int i = 0; i < site_count; ++i) {
    protocols.push_back(kAllProtocols[rng.NextBelow(7)]);
  }
  SchemeKind scheme = kConservativeSchemes[rng.NextBelow(4)];
  bool ticket_last = rng.NextBernoulli(0.2);
  bool crashes = rng.NextBernoulli(0.3);

  MdbsConfig config = MdbsConfig::Mixed(protocols, scheme);
  config.seed = GetParam();
  config.gtm.ticket_last = ticket_last;
  config.gtm.attempt_timeout =
      static_cast<sim::Time>(rng.NextInRange(20'000, 100'000));
  if (crashes) config.fault_plan.periodic = fault::PeriodicCrashes{8000, 2000};
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = static_cast<int>(rng.NextInRange(2, 10));
  driver.local_clients_per_site = static_cast<int>(rng.NextInRange(0, 3));
  driver.target_global_commits = 50;
  driver.global_workload.items_per_site = rng.NextInRange(5, 100);
  driver.global_workload.dav_min = 1;
  driver.global_workload.dav_max = static_cast<int>(rng.NextInRange(2, 4));
  driver.global_workload.read_ratio = rng.NextDouble();
  driver.global_workload.zipf_theta = rng.NextBernoulli(0.5) ? 0.0 : 0.9;
  driver.local_workload.items_per_site =
      driver.global_workload.items_per_site;
  driver.local_workload.read_ratio = driver.global_workload.read_ratio;

  DriverReport report = RunDriver(&system, driver, GetParam());

  SCOPED_TRACE("scheme=" + std::string(gtm::SchemeKindName(scheme)) +
               " sites=" + std::to_string(site_count) +
               " crashes=" + std::to_string(report.crashes) +
               " ticket_last=" + std::to_string(ticket_last));
  // Liveness: the run finished the requested work.
  EXPECT_GE(report.global_committed + report.global_failed, 50);
  EXPECT_GT(report.global_committed, 0);
  // Correctness: everything the checkers can see.
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckSerializationKeyProperty().ok());
  Status strict = system.CheckStrictness();
  EXPECT_TRUE(strict.ok()) << strict;
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  // Conservative schemes never abort from the GTM.
  EXPECT_EQ(report.gtm1.scheme_aborts, 0);
  EXPECT_EQ(report.gtm2.scheme_aborts, 0);
  // The runtime invariant auditor (on by default, fail-fast) saw nothing;
  // the assertion documents that the hooks were live during the run.
  if (system.audit_enabled()) {
    EXPECT_TRUE(system.auditor().clean());
  }
}

}  // namespace
}  // namespace mdbs
