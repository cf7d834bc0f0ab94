#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

const SiteId kS0{0};
const DataItemId kX{1};

TEST(CrashTest, CrashAbortsActiveTxnsAndRollsBack) {
  MdbsConfig config =
      MdbsConfig::Uniform(1, ProtocolKind::kTwoPhaseLocking,
                          SchemeKind::kScheme0);
  Mdbs system(config);
  auto& site = system.site(kS0);
  site.UnsafePoke(kX, 7);

  StatusOr<TxnId> txn = system.BeginLocal(kS0);
  ASSERT_TRUE(txn.ok());
  Status write_status = Status::Internal("pending");
  site.Submit(*txn, DataOp::Write(kX, 99),
              [&](const Status& s, int64_t) { write_status = s; });
  system.RunUntilIdle();
  ASSERT_TRUE(write_status.ok());
  EXPECT_EQ(site.UnsafePeek(kX), 99);  // In-place, uncommitted.

  site.Crash();
  EXPECT_EQ(site.UnsafePeek(kX), 7);  // Rolled back.
  EXPECT_FALSE(site.IsActive(*txn));
  EXPECT_TRUE(site.IsDown());

  // Requests while down are refused.
  EXPECT_TRUE(system.BeginLocal(kS0).status().IsTransactionAborted());
  Status op_status = Status::Internal("pending");
  site.Submit(*txn, DataOp::Read(kX),
              [&](const Status& s, int64_t) { op_status = s; });
  system.RunUntilIdle();
  EXPECT_TRUE(op_status.IsTransactionAborted());

  site.Recover();
  EXPECT_FALSE(site.IsDown());
  EXPECT_TRUE(system.BeginLocal(kS0).ok());
}

TEST(CrashTest, GlobalTxnRetriesThroughSiteCrash) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering},
      SchemeKind::kScheme3);
  config.gtm.retry_backoff = 100;
  Mdbs system(config);
  const SiteId kS1{1};

  // Crash site 1 shortly after start, recover later; the transaction's
  // first attempts die and a retry succeeds.
  system.loop().Schedule(5, [&] { system.site(kS1).Crash(); });
  system.loop().Schedule(2000, [&] { system.site(kS1).Recover(); });

  gtm::GlobalTxnSpec spec;
  spec.ops.push_back(gtm::GlobalOp::Write(kS0, kX, 1));
  spec.ops.push_back(gtm::GlobalOp::Write(kS1, kX, 2));
  gtm::GlobalTxnResult result;
  system.gtm().Submit(std::move(spec),
                      [&](const gtm::GlobalTxnResult& r) { result = r; });
  system.RunUntilIdle();
  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_GT(result.attempts, 1);
  EXPECT_EQ(system.site(kS0).UnsafePeek(kX), 1);
  EXPECT_EQ(system.site(kS1).UnsafePeek(kX), 2);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

TEST(LossyNetworkTest, RetriesThroughLostResponses) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      SchemeKind::kScheme3);
  config.seed = 21;
  config.fault_plan.response_loss = 0.05;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 5;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 60;
  driver.global_workload.items_per_site = 50;
  driver.local_workload.items_per_site = 50;
  DriverReport report = RunDriver(&system, driver, 21);
  EXPECT_GE(report.global_committed, 40);
  EXPECT_GT(report.gtm1.timeouts, 0) << "no response was ever lost?";
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
  EXPECT_TRUE(system.CheckStrictness().ok());
}

class CrashWorkloadTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, CrashWorkloadTest,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

TEST_P(CrashWorkloadTest, WorkloadSurvivesCrashesSerializably) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      GetParam());
  config.seed = 77;
  config.gtm.retry_backoff = 200;
  config.fault_plan.periodic = fault::PeriodicCrashes{5000, 1500};
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 60;
  driver.global_workload.items_per_site = 30;
  driver.local_workload.items_per_site = 30;
  DriverReport report = RunDriver(&system, driver, 77);

  EXPECT_GT(report.crashes, 0) << "no crash was injected";
  EXPECT_GE(report.global_committed, 40);
  // The committed projection stays serializable even across crashes.
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  EXPECT_EQ(report.gtm1.scheme_aborts, 0);
}

}  // namespace
}  // namespace mdbs
