// Wake order of the per-item waiter lists. Strict TO, SGT and MVTO resume
// the transactions queued on an item in the order they arrived when the
// writer they wait for finishes; the lock manager grants queued requests
// first come, first served, except that an upgrade by a shared holder is
// granted ahead of every request queued before it.
#include <vector>

#include <gtest/gtest.h>

#include "lcc/lock_manager.h"
#include "lcc/mvto.h"
#include "lcc/sgt.h"
#include "lcc/timestamp_ordering.h"

namespace mdbs::lcc {
namespace {

const TxnId kT1{1};
const TxnId kT2{2};
const TxnId kT3{3};
const TxnId kT4{4};
const DataItemId kX{10};

class FakeHost : public ProtocolHost {
 public:
  void ResumeTransaction(TxnId txn) override { resumed.push_back(txn); }
  std::vector<TxnId> resumed;
};

void MustProceed(ConcurrencyControl* cc, TxnId txn, const DataOp& op) {
  ASSERT_EQ(cc->OnAccess(txn, op), AccessDecision::kProceed)
      << ToString(txn) << " " << op.ToString();
  cc->OnAccessApplied(txn, op);
}

void MustBlock(ConcurrencyControl* cc, TxnId txn, const DataOp& op) {
  ASSERT_EQ(cc->OnAccess(txn, op), AccessDecision::kBlock)
      << ToString(txn) << " " << op.ToString();
}

// T1 writes x; T3, T4 and T2 (all younger) then queue on x in that order,
// which is not their id or timestamp order. When T1 finishes, `cc` must
// resume them in arrival order, each once.
void ExpectArrivalOrder(ConcurrencyControl* cc, FakeHost* host,
                        bool reads_only, TxnOutcome outcome) {
  for (TxnId txn : {kT1, kT2, kT3, kT4}) cc->OnBegin(txn);
  MustProceed(cc, kT1, DataOp::Write(kX, 1));
  MustBlock(cc, kT3, DataOp::Read(kX));
  MustBlock(cc, kT4, reads_only ? DataOp::Read(kX) : DataOp::Write(kX, 4));
  MustBlock(cc, kT2, DataOp::Read(kX));
  EXPECT_TRUE(host->resumed.empty());
  cc->OnFinish(kT1, outcome);
  EXPECT_EQ(host->resumed, (std::vector<TxnId>{kT3, kT4, kT2}));
}

TEST(WakeOrderTest, TimestampOrderingResumesWaitersInArrivalOrder) {
  for (TxnOutcome outcome : {TxnOutcome::kCommitted, TxnOutcome::kAborted}) {
    FakeHost host;
    TimestampOrdering to(&host);
    ExpectArrivalOrder(&to, &host, /*reads_only=*/false, outcome);
  }
}

TEST(WakeOrderTest, SgtResumesLatchWaitersInArrivalOrder) {
  for (TxnOutcome outcome : {TxnOutcome::kCommitted, TxnOutcome::kAborted}) {
    FakeHost host;
    SerializationGraphTesting sgt(&host);
    ExpectArrivalOrder(&sgt, &host, /*reads_only=*/false, outcome);
  }
}

TEST(WakeOrderTest, MvtoResumesReadersInArrivalOrder) {
  // MVTO blocks only reads of an uncommitted version.
  for (TxnOutcome outcome : {TxnOutcome::kCommitted, TxnOutcome::kAborted}) {
    FakeHost host;
    MultiversionTimestampOrdering mvto(&host);
    ExpectArrivalOrder(&mvto, &host, /*reads_only=*/true, outcome);
  }
}

// A waiter resumed once is not resumed again by a later finish on the same
// item: the list is emptied when it is woken.
TEST(WakeOrderTest, WokenWaitersAreNotWokenTwice) {
  FakeHost host;
  TimestampOrdering to(&host);
  ExpectArrivalOrder(&to, &host, /*reads_only=*/false,
                     TxnOutcome::kCommitted);
  MustProceed(&to, kT4, DataOp::Write(kX, 4));
  to.OnFinish(kT4, TxnOutcome::kCommitted);
  EXPECT_EQ(host.resumed, (std::vector<TxnId>{kT3, kT4, kT2}));
}

TEST(WakeOrderTest, LockManagerGrantsQueuedRequestsInArrivalOrder) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(kT1, kX, LockMode::kExclusive),
            LockResult::kGranted);
  ASSERT_EQ(locks.Acquire(kT3, kX, LockMode::kShared), LockResult::kWaiting);
  ASSERT_EQ(locks.Acquire(kT4, kX, LockMode::kShared), LockResult::kWaiting);
  ASSERT_EQ(locks.Acquire(kT2, kX, LockMode::kShared), LockResult::kWaiting);
  EXPECT_EQ(locks.ReleaseAll(kT1), (std::vector<TxnId>{kT3, kT4, kT2}));
  ASSERT_TRUE(locks.CheckTableInvariants().ok());
}

TEST(WakeOrderTest, LockManagerGrantsAnUpgradeAheadOfQueuedRequests) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(kT1, kX, LockMode::kShared), LockResult::kGranted);
  ASSERT_EQ(locks.Acquire(kT2, kX, LockMode::kShared), LockResult::kGranted);
  ASSERT_EQ(locks.Acquire(kT3, kX, LockMode::kExclusive),
            LockResult::kWaiting);
  ASSERT_EQ(locks.Acquire(kT4, kX, LockMode::kExclusive),
            LockResult::kWaiting);
  // T1's upgrade queues at the front, ahead of T3 and T4.
  ASSERT_EQ(locks.Acquire(kT1, kX, LockMode::kExclusive),
            LockResult::kWaiting);
  ASSERT_TRUE(locks.CheckTableInvariants().ok());
  EXPECT_EQ(locks.ReleaseAll(kT2), (std::vector<TxnId>{kT1}));
  EXPECT_TRUE(locks.Holds(kT1, kX, LockMode::kExclusive));
  EXPECT_EQ(locks.ReleaseAll(kT1), (std::vector<TxnId>{kT3}));
  EXPECT_EQ(locks.ReleaseAll(kT3), (std::vector<TxnId>{kT4}));
  EXPECT_EQ(locks.ReleaseAll(kT4), (std::vector<TxnId>{}));
  EXPECT_EQ(locks.ActiveItemCount(), 0u);
  ASSERT_TRUE(locks.CheckTableInvariants().ok());
}

// A waiter that gives up leaves the queue; the rest keep their order.
TEST(WakeOrderTest, LockManagerKeepsOrderWhenAWaiterLeaves) {
  LockManager locks;
  ASSERT_EQ(locks.Acquire(kT1, kX, LockMode::kExclusive),
            LockResult::kGranted);
  ASSERT_EQ(locks.Acquire(kT2, kX, LockMode::kShared), LockResult::kWaiting);
  ASSERT_EQ(locks.Acquire(kT3, kX, LockMode::kShared), LockResult::kWaiting);
  ASSERT_EQ(locks.Acquire(kT4, kX, LockMode::kShared), LockResult::kWaiting);
  EXPECT_EQ(locks.ReleaseAll(kT3), (std::vector<TxnId>{}));
  EXPECT_EQ(locks.ReleaseAll(kT1), (std::vector<TxnId>{kT2, kT4}));
  ASSERT_TRUE(locks.CheckTableInvariants().ok());
}

}  // namespace
}  // namespace mdbs::lcc
