// Wound-wait / wait-die deadlock prevention for 2PL sites: protocol-level
// behavior, site-level preemption mechanics, and end-to-end federation
// runs. These extend the paper's substrate with two more heterogeneous
// local protocols; both keep the last-operation serialization function of
// strict 2PL.

#include <string>

#include <gtest/gtest.h>

#include "lcc/two_phase_locking.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "sim/event_loop.h"
#include "site/local_dbms.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::AccessDecision;
using lcc::DeadlockPolicy;
using lcc::ProtocolKind;
using lcc::TwoPhaseLocking;

const TxnId kT1{1};
const TxnId kT2{2};
const TxnId kT3{3};
const DataItemId kX{10};
const DataItemId kY{11};

/// Host that emulates preemption for protocol-level tests: the wound is
/// reflected straight back into the protocol as an abort-finish.
class WoundHost : public lcc::ProtocolHost {
 public:
  void ResumeTransaction(TxnId txn) override { resumed.push_back(txn); }
  void AbortTransaction(TxnId txn, const std::string&) override {
    wounded.push_back(txn);
    if (protocol != nullptr) protocol->OnFinish(txn, TxnOutcome::kAborted);
  }
  TwoPhaseLocking* protocol = nullptr;
  std::vector<TxnId> resumed;
  std::vector<TxnId> wounded;
};

// --------------------------------------------------------------------------
// Wait-die
// --------------------------------------------------------------------------

TEST(WaitDieTest, OlderRequesterWaits) {
  WoundHost host;
  TwoPhaseLocking tpl(&host, DeadlockPolicy::kWaitDie);
  host.protocol = &tpl;
  tpl.OnBegin(kT1);  // Older.
  tpl.OnBegin(kT2);  // Younger.
  ASSERT_EQ(tpl.OnAccess(kT2, DataOp::Write(kX, 1)),
            AccessDecision::kProceed);
  tpl.OnAccessApplied(kT2, DataOp::Write(kX, 1));
  // Older T1 blocked by younger T2: waits.
  EXPECT_EQ(tpl.OnAccess(kT1, DataOp::Read(kX)), AccessDecision::kBlock);
  tpl.OnFinish(kT2, TxnOutcome::kCommitted);
  ASSERT_EQ(host.resumed.size(), 1u);
  EXPECT_EQ(host.resumed[0], kT1);
}

TEST(WaitDieTest, YoungerRequesterDies) {
  WoundHost host;
  TwoPhaseLocking tpl(&host, DeadlockPolicy::kWaitDie);
  host.protocol = &tpl;
  tpl.OnBegin(kT1);
  tpl.OnBegin(kT2);
  ASSERT_EQ(tpl.OnAccess(kT1, DataOp::Write(kX, 1)),
            AccessDecision::kProceed);
  tpl.OnAccessApplied(kT1, DataOp::Write(kX, 1));
  // Younger T2 blocked by older T1: dies.
  EXPECT_EQ(tpl.OnAccess(kT2, DataOp::Read(kX)), AccessDecision::kAbort);
  EXPECT_TRUE(host.wounded.empty());
}

// --------------------------------------------------------------------------
// Wound-wait
// --------------------------------------------------------------------------

TEST(WoundWaitTest, YoungerRequesterWaits) {
  WoundHost host;
  TwoPhaseLocking tpl(&host, DeadlockPolicy::kWoundWait);
  host.protocol = &tpl;
  tpl.OnBegin(kT1);
  tpl.OnBegin(kT2);
  ASSERT_EQ(tpl.OnAccess(kT1, DataOp::Write(kX, 1)),
            AccessDecision::kProceed);
  tpl.OnAccessApplied(kT1, DataOp::Write(kX, 1));
  EXPECT_EQ(tpl.OnAccess(kT2, DataOp::Read(kX)), AccessDecision::kBlock);
  EXPECT_TRUE(host.wounded.empty());
}

TEST(WoundWaitTest, OlderRequesterWoundsYoungerHolder) {
  WoundHost host;
  TwoPhaseLocking tpl(&host, DeadlockPolicy::kWoundWait);
  host.protocol = &tpl;
  tpl.OnBegin(kT1);  // Older.
  tpl.OnBegin(kT2);  // Younger.
  ASSERT_EQ(tpl.OnAccess(kT2, DataOp::Write(kX, 1)),
            AccessDecision::kProceed);
  tpl.OnAccessApplied(kT2, DataOp::Write(kX, 1));
  // Older T1 wounds T2 and takes the lock immediately (the wound released
  // it synchronously).
  EXPECT_EQ(tpl.OnAccess(kT1, DataOp::Write(kX, 2)),
            AccessDecision::kProceed);
  ASSERT_EQ(host.wounded.size(), 1u);
  EXPECT_EQ(host.wounded[0], kT2);
  EXPECT_EQ(tpl.wounds_inflicted(), 1);
}

TEST(WoundWaitTest, UpgradingHolderIsWoundedOnlyOnce) {
  // A holder queued behind its own lock upgrade blocks an exclusive
  // requester twice over — once from the granted list, once from the wait
  // queue. Wounding it on the first occurrence erases its age; the repeat
  // occurrence used to throw (regression caught by the threaded stress
  // run).
  WoundHost host;
  TwoPhaseLocking tpl(&host, DeadlockPolicy::kWoundWait);
  host.protocol = &tpl;
  tpl.OnBegin(kT1);  // Oldest: will wound everyone.
  tpl.OnBegin(kT3);
  tpl.OnBegin(kT2);  // Youngest: waits for its upgrade behind T3.
  ASSERT_EQ(tpl.OnAccess(kT3, DataOp::Read(kX)), AccessDecision::kProceed);
  ASSERT_EQ(tpl.OnAccess(kT2, DataOp::Read(kX)), AccessDecision::kProceed);
  ASSERT_EQ(tpl.OnAccess(kT2, DataOp::Write(kX, 1)), AccessDecision::kBlock);
  EXPECT_EQ(tpl.OnAccess(kT1, DataOp::Write(kX, 2)),
            AccessDecision::kProceed);
  EXPECT_EQ(host.wounded, (std::vector<TxnId>{kT3, kT2}));
  EXPECT_EQ(tpl.wounds_inflicted(), 2);
}

// --------------------------------------------------------------------------
// Site-level: preemption through the LocalDbms host
// --------------------------------------------------------------------------

TEST(WoundWaitSiteTest, WoundRollsBackVictimAndFailsItsNextOp) {
  site::SiteConfig config;
  config.id = SiteId(0);
  config.protocol = ProtocolKind::kTwoPhaseLockingWoundWait;
  sim::EventLoop loop;
  site::LocalDbms dbms(config, &loop);
  dbms.UnsafePoke(kX, 7);

  TxnId older{1}, younger{2};
  ASSERT_TRUE(dbms.Begin(older, GlobalTxnId()).ok());
  ASSERT_TRUE(dbms.Begin(younger, GlobalTxnId()).ok());
  Status status = Status::Internal("pending");
  dbms.Submit(younger, DataOp::Write(kX, 99),
              [&](const Status& s, int64_t) { status = s; });
  loop.Run();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(dbms.UnsafePeek(kX), 99);

  // The older transaction's conflicting access wounds the younger one.
  Status older_status = Status::Internal("pending");
  int64_t value = -1;
  dbms.Submit(older, DataOp::Read(kX), [&](const Status& s, int64_t v) {
    older_status = s;
    value = v;
  });
  loop.Run();
  EXPECT_TRUE(older_status.ok());
  EXPECT_EQ(value, 7);  // The victim's write rolled back first.
  EXPECT_FALSE(dbms.IsActive(younger));
  // The victim's next operation reports the abort.
  dbms.Submit(younger, DataOp::Read(kY),
              [&](const Status& s, int64_t) { status = s; });
  loop.Run();
  EXPECT_TRUE(status.IsTransactionAborted());
}

TEST(WaitDieSiteTest, NoDeadlockUnderCrossLocking) {
  site::SiteConfig config;
  config.id = SiteId(0);
  config.protocol = ProtocolKind::kTwoPhaseLockingWaitDie;
  sim::EventLoop loop;
  site::LocalDbms dbms(config, &loop);

  TxnId t1{1}, t2{2};
  ASSERT_TRUE(dbms.Begin(t1, GlobalTxnId()).ok());
  ASSERT_TRUE(dbms.Begin(t2, GlobalTxnId()).ok());
  Status s1 = Status::Internal("pending"), s2 = s1, s3 = s1, s4 = s1;
  dbms.Submit(t1, DataOp::Write(kX, 1),
              [&](const Status& s, int64_t) { s1 = s; });
  dbms.Submit(t2, DataOp::Write(kY, 1),
              [&](const Status& s, int64_t) { s2 = s; });
  loop.Run();
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  // Cross access: t1 (older) waits on y; t2 (younger) dies on x.
  dbms.Submit(t1, DataOp::Read(kY), [&](const Status& s, int64_t) { s3 = s; });
  dbms.Submit(t2, DataOp::Read(kX), [&](const Status& s, int64_t) { s4 = s; });
  loop.Run();
  EXPECT_TRUE(s4.IsTransactionAborted());  // Younger died...
  EXPECT_TRUE(s3.ok());                    // ...freeing the older to finish.
  Status commit = Status::Internal("pending");
  dbms.Commit(t1, [&](const Status& s) { commit = s; });
  loop.Run();
  EXPECT_TRUE(commit.ok());
}

// --------------------------------------------------------------------------
// End-to-end federation with prevention sites
// --------------------------------------------------------------------------

class PreventionIntegration
    : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(
    Policies, PreventionIntegration,
    ::testing::Values(ProtocolKind::kTwoPhaseLockingWoundWait,
                      ProtocolKind::kTwoPhaseLockingWaitDie),
    [](const auto& info) {
      std::string name = lcc::ProtocolKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(PreventionIntegration, FederationStaysSerializable) {
  MdbsConfig config = MdbsConfig::Mixed(
      {GetParam(), ProtocolKind::kTimestampOrdering, GetParam()},
      SchemeKind::kScheme3);
  config.seed = 55;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 2;
  driver.target_global_commits = 60;
  driver.global_workload.items_per_site = 15;
  driver.local_workload.items_per_site = 15;
  DriverReport report = RunDriver(&system, driver, 55);
  EXPECT_GE(report.global_committed, 40);
  EXPECT_GT(report.local_committed, 0);
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckSerializationKeyProperty().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

}  // namespace
}  // namespace mdbs
