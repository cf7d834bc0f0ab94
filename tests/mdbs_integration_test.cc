#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gtm/scheme2.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

std::vector<ProtocolKind> AllProtocolMix() {
  return {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
          ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic};
}

DriverConfig SmallConflictHeavyWorkload() {
  DriverConfig config;
  config.global_clients = 6;
  config.local_clients_per_site = 2;
  config.target_global_commits = 60;
  config.global_workload.items_per_site = 20;  // Hot items.
  config.global_workload.dav_min = 2;
  config.global_workload.dav_max = 3;
  config.local_workload.items_per_site = 20;
  return config;
}

// --------------------------------------------------------------------------
// End-to-end serializability across schemes and protocol mixes
// --------------------------------------------------------------------------

struct IntegrationCase {
  SchemeKind scheme;
  uint64_t seed;
};

class MdbsEndToEnd : public ::testing::TestWithParam<IntegrationCase> {};

std::string IntegrationName(
    const ::testing::TestParamInfo<IntegrationCase>& info) {
  return std::string(gtm::SchemeKindName(info.param.scheme)) + "_seed" +
         std::to_string(info.param.seed);
}

std::vector<IntegrationCase> IntegrationCases() {
  std::vector<IntegrationCase> cases;
  for (SchemeKind scheme :
       {SchemeKind::kScheme0, SchemeKind::kScheme1, SchemeKind::kScheme2,
        SchemeKind::kScheme3, SchemeKind::kTicketOptimistic}) {
    for (uint64_t seed : {11u, 22u}) {
      cases.push_back(IntegrationCase{scheme, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MdbsEndToEnd,
                         ::testing::ValuesIn(IntegrationCases()),
                         IntegrationName);

TEST_P(MdbsEndToEnd, MixedProtocolWorkloadStaysGloballySerializable) {
  MdbsConfig config = MdbsConfig::Mixed(AllProtocolMix(), GetParam().scheme);
  config.seed = GetParam().seed;
  Mdbs system(config);
  DriverReport report =
      RunDriver(&system, SmallConflictHeavyWorkload(), GetParam().seed);
  // The driver stops after 60 finished global transactions; a few may fail
  // (e.g. OCC partial commits — atomic commitment is out of scope).
  EXPECT_GE(report.global_committed + report.global_failed, 60);
  EXPECT_GE(report.global_committed, 40);
  EXPECT_GT(report.local_committed, 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckSerializationKeyProperty().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  // Conservative schemes never abort from the GTM scheduler itself.
  if (GetParam().scheme != SchemeKind::kTicketOptimistic) {
    EXPECT_EQ(report.gtm1.scheme_aborts, 0);
    EXPECT_EQ(report.gtm2.scheme_aborts, 0);
  }
}

TEST(MdbsEndToEndSingle, TicketOptimisticAbortsUnderContention) {
  // The non-conservative baseline trades waiting for aborts (paper §3(1)).
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kSerializationGraph, ProtocolKind::kSerializationGraph,
       ProtocolKind::kOptimistic},
      SchemeKind::kTicketOptimistic);
  config.seed = 5;
  Mdbs system(config);
  DriverConfig driver = SmallConflictHeavyWorkload();
  driver.target_global_commits = 120;
  driver.global_workload.dav_min = 2;
  driver.global_workload.dav_max = 3;
  driver.local_clients_per_site = 0;
  driver.global_clients = 10;
  DriverReport report = RunDriver(&system, driver, 5);
  EXPECT_GT(report.gtm1.scheme_aborts, 0)
      << "expected optimistic certification aborts under contention";
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

TEST(MdbsEndToEndSingle, NoControlEventuallyViolatesGlobalSerializability) {
  // E4's strawman: without GTM2 control, indirect conflicts and races
  // produce globally non-serializable executions. (Local schedules remain
  // serializable — each local DBMS guarantees that on its own.)
  bool violated = false;
  for (uint64_t seed = 1; seed <= 10 && !violated; ++seed) {
    MdbsConfig config = MdbsConfig::Mixed(
        {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
         ProtocolKind::kTwoPhaseLocking},
        SchemeKind::kNone);
    config.seed = seed;
    Mdbs system(config);
    DriverConfig driver;
    driver.global_clients = 10;
    driver.local_clients_per_site = 0;
    driver.target_global_commits = 150;
    driver.global_workload.items_per_site = 3;  // Extremely hot.
    driver.global_workload.dav_min = 2;
    driver.global_workload.dav_max = 3;
    driver.global_workload.read_ratio = 0.3;
    DriverReport report = RunDriver(&system, driver, seed);
    EXPECT_TRUE(system.CheckLocallySerializable().ok());
    if (!system.CheckGloballySerializable().ok()) violated = true;
  }
  EXPECT_TRUE(violated)
      << "no-control MDBS unexpectedly stayed serializable on all seeds";
}

TEST(MdbsEndToEndSingle, Scheme2AcyclicityInvariantHoldsUnderStress) {
  // Run Scheme 2 with its exhaustive TSGD-acyclicity self-check enabled:
  // after every Eliminate_Cycles the TSGD must have no cycle through the
  // incoming transaction (a violation aborts the process via MDBS_CHECK).
  MdbsConfig config =
      MdbsConfig::Mixed(AllProtocolMix(), SchemeKind::kScheme2);
  config.seed = 99;
  config.gtm.scheme_factory = []() {
    auto scheme = std::make_unique<gtm::Scheme2>();
    scheme->set_validate_acyclicity(true);
    return scheme;
  };
  Mdbs system(config);
  DriverConfig driver = SmallConflictHeavyWorkload();
  driver.target_global_commits = 80;
  driver.global_workload.dav_max = 4;
  DriverReport report = RunDriver(&system, driver, 99);
  EXPECT_GE(report.global_committed, 50);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

TEST(MdbsEndToEndSingle, UniformTwoPlManySites) {
  MdbsConfig config =
      MdbsConfig::Uniform(6, ProtocolKind::kTwoPhaseLocking,
                          SchemeKind::kScheme1);
  config.seed = 3;
  Mdbs system(config);
  DriverConfig driver = SmallConflictHeavyWorkload();
  driver.global_workload.dav_max = 4;
  DriverReport report = RunDriver(&system, driver, 3);
  EXPECT_GE(report.global_committed, 60);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

TEST(MdbsEndToEndSingle, LocalOnlyWorkloadNeedsNoGtm) {
  MdbsConfig config =
      MdbsConfig::Mixed(AllProtocolMix(), SchemeKind::kScheme3);
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 0;
  driver.local_clients_per_site = 3;
  driver.target_global_commits = 0;  // Stops immediately for globals...
  driver.local_workload.items_per_site = 10;
  // With target 0, global clients never run; drive local clients manually
  // for a fixed horizon instead.
  for (SiteId site : system.site_ids()) {
    (void)site;
  }
  // Simplest: run the driver with a tiny global target and 1 client.
  driver.global_clients = 1;
  driver.target_global_commits = 5;
  DriverReport report = RunDriver(&system, driver, 9);
  EXPECT_GT(report.local_committed, 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

// --------------------------------------------------------------------------
// Value correctness: cross-site transfers conserve total balance
// --------------------------------------------------------------------------

class BankingTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, BankingTest,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

TEST_P(BankingTest, TransfersConserveTotalBalance) {
  // Abort-free protocols at every site (2PL/TO/SGT) so commits are atomic
  // across sites (no OCC partial-commit risk; see DESIGN.md on atomic
  // commitment being out of the paper's scope).
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      GetParam());
  config.seed = 17;
  Mdbs system(config);

  const int kAccountsPerSite = 4;
  const int64_t kInitialBalance = 1000;
  for (SiteId site : system.site_ids()) {
    for (int account = 0; account < kAccountsPerSite; ++account) {
      system.site(site).UnsafePoke(DataItemId(account), kInitialBalance);
    }
  }
  int64_t expected_total = static_cast<int64_t>(system.site_ids().size()) *
                           kAccountsPerSite * kInitialBalance;

  // 40 random cross-site transfers: debit (site_a, acct_a), credit
  // (site_b, acct_b) with read-modify-write semantics.
  Rng rng(4242);
  int committed = 0;
  int failed = 0;
  for (int i = 0; i < 40; ++i) {
    SiteId from = system.site_ids()[rng.NextBelow(3)];
    SiteId to = system.site_ids()[rng.NextBelow(3)];
    if (from == to) to = system.site_ids()[(from.value() + 1) % 3];
    DataItemId src{static_cast<int64_t>(rng.NextBelow(kAccountsPerSite))};
    DataItemId dst{static_cast<int64_t>(rng.NextBelow(kAccountsPerSite))};
    int64_t amount = static_cast<int64_t>(1 + rng.NextBelow(50));
    gtm::GlobalTxnSpec spec;
    spec.ops.push_back(gtm::GlobalOp::Read(from, src));
    spec.ops.push_back(gtm::GlobalOp::WriteFn(
        from, src, [from, src, amount](const gtm::ReadContext& reads) {
          return reads.at({from, src}) - amount;
        }));
    spec.ops.push_back(gtm::GlobalOp::Read(to, dst));
    spec.ops.push_back(gtm::GlobalOp::WriteFn(
        to, dst, [to, dst, amount](const gtm::ReadContext& reads) {
          return reads.at({to, dst}) + amount;
        }));
    system.gtm().Submit(std::move(spec),
                        [&](const gtm::GlobalTxnResult& result) {
                          if (result.status.ok()) {
                            ++committed;
                          } else {
                            ++failed;
                          }
                        });
  }
  system.RunUntilIdle();
  EXPECT_EQ(committed + failed, 40);
  EXPECT_GT(committed, 0);

  int64_t total = 0;
  for (SiteId site : system.site_ids()) {
    for (int account = 0; account < kAccountsPerSite; ++account) {
      total += system.site(site).UnsafePeek(DataItemId(account));
    }
  }
  EXPECT_EQ(total, expected_total);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

}  // namespace
}  // namespace mdbs
