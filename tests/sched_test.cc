#include <map>

#include <gtest/gtest.h>

#include "sched/graph.h"
#include "sched/schedule.h"
#include "sched/serializability.h"

namespace mdbs::sched {
namespace {

const SiteId kS0{0};
const SiteId kS1{1};
const TxnId kT1{1};
const TxnId kT2{2};
const TxnId kT3{3};
const DataItemId kX{10};
const DataItemId kY{11};

// --------------------------------------------------------------------------
// DirectedGraph
// --------------------------------------------------------------------------

TEST(DirectedGraphTest, EmptyGraphIsAcyclic) {
  DirectedGraph g;
  EXPECT_FALSE(g.HasCycle());
  EXPECT_TRUE(g.TopologicalOrder().has_value());
}

TEST(DirectedGraphTest, AddEdgeCreatesNodes) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  EXPECT_EQ(g.NodeCount(), 2u);
  EXPECT_EQ(g.EdgeCount(), 1u);
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 1));
}

TEST(DirectedGraphTest, DuplicateEdgesNotCounted) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.EdgeCount(), 1u);
}

TEST(DirectedGraphTest, DetectsSelfLoop) {
  DirectedGraph g;
  g.AddEdge(1, 1);
  EXPECT_TRUE(g.HasCycle());
}

TEST(DirectedGraphTest, DetectsTwoCycle) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_GE(cycle->size(), 3u);
}

TEST(DirectedGraphTest, ChainIsAcyclic) {
  DirectedGraph g;
  for (int i = 0; i < 100; ++i) g.AddEdge(i, i + 1);
  EXPECT_FALSE(g.HasCycle());
}

TEST(DirectedGraphTest, DiamondIsAcyclic) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 4);
  g.AddEdge(3, 4);
  EXPECT_FALSE(g.HasCycle());
}

TEST(DirectedGraphTest, LongCycleDetected) {
  DirectedGraph g;
  for (int i = 0; i < 50; ++i) g.AddEdge(i, (i + 1) % 50);
  EXPECT_TRUE(g.HasCycle());
  EXPECT_FALSE(g.TopologicalOrder().has_value());
}

TEST(DirectedGraphTest, TopologicalOrderRespectsEdges) {
  DirectedGraph g;
  g.AddEdge(3, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 2);
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  auto pos = [&](int64_t node) {
    for (size_t i = 0; i < order->size(); ++i) {
      if ((*order)[i] == node) return i;
    }
    return order->size();
  };
  EXPECT_LT(pos(3), pos(1));
  EXPECT_LT(pos(1), pos(2));
}

// --------------------------------------------------------------------------
// ScheduleRecorder
// --------------------------------------------------------------------------

struct RecorderFixture : public ::testing::Test {
  void Begin(TxnId txn, SiteId site, GlobalTxnId global = GlobalTxnId()) {
    site_of[txn] = site;
    recorder.site(site).RecordBegin(txn, global);
  }
  void Op(TxnId txn, SiteId site, const DataOp& op) {
    recorder.site(site).RecordOp(txn, op, /*time=*/0);
  }
  void Commit(TxnId txn, std::optional<int64_t> key = std::nullopt) {
    recorder.site(site_of.at(txn))
        .RecordFinish(txn, TxnOutcome::kCommitted, key);
  }
  void Abort(TxnId txn) {
    recorder.site(site_of.at(txn))
        .RecordFinish(txn, TxnOutcome::kAborted, std::nullopt);
  }
  const TxnRecord& Record(TxnId txn) const {
    return *recorder.site(site_of.at(txn)).FindTxn(txn);
  }
  ScheduleRecorder recorder{{kS0, kS1}};
  std::map<TxnId, SiteId> site_of;
};

TEST_F(RecorderFixture, CountsOutcomes) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Begin(kT3, kS0);
  Commit(kT1);
  Abort(kT2);
  EXPECT_EQ(recorder.CommittedCount(), 1);
  EXPECT_EQ(recorder.AbortedCount(), 1);
  EXPECT_EQ(Record(kT3).outcome, TxnOutcome::kActive);
}

TEST_F(RecorderFixture, TxnsAtSiteFilters) {
  Begin(kT1, kS0);
  Begin(kT2, kS1);
  EXPECT_EQ(recorder.site(kS0).txns().size(), 1u);
  EXPECT_EQ(recorder.site(kS1).txns().size(), 1u);
  EXPECT_EQ(recorder.site(kS1).FindTxn(kT1), nullptr);
}

// --------------------------------------------------------------------------
// Local serializability checking — classic textbook schedules
// --------------------------------------------------------------------------

TEST_F(RecorderFixture, SerialScheduleIsSerializable) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Read(kX));
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Read(kX));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Commit(kT1);
  Commit(kT2);
  EXPECT_TRUE(CheckLocalSerializability(recorder, kS0).serializable);
}

TEST_F(RecorderFixture, LostUpdateAnomalyDetected) {
  // r1(x) r2(x) w1(x) w2(x): T2 -> T1 (r2 before w1) and T1 -> T2: cycle.
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Read(kX));
  Op(kT2, kS0, DataOp::Read(kX));
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Commit(kT1);
  Commit(kT2);
  SerializabilityResult result = CheckLocalSerializability(recorder, kS0);
  EXPECT_FALSE(result.serializable);
  ASSERT_TRUE(result.cycle.has_value());
}

TEST_F(RecorderFixture, InconsistentAnalysisDetected) {
  // r1(x) w2(x) w2(y) r1(y): T1 -> T2 (x) and T2 -> T1 (y): cycle.
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Read(kX));
  Op(kT2, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kY, 1));
  Op(kT1, kS0, DataOp::Read(kY));
  Commit(kT1);
  Commit(kT2);
  EXPECT_FALSE(CheckLocalSerializability(recorder, kS0).serializable);
}

TEST_F(RecorderFixture, AbortedTxnsExcludedFromConflictGraph) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Read(kX));
  Op(kT2, kS0, DataOp::Read(kX));
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Commit(kT1);
  Abort(kT2);  // The cycle partner aborted: schedule is serializable.
  EXPECT_TRUE(CheckLocalSerializability(recorder, kS0).serializable);
}

TEST_F(RecorderFixture, ReadReadDoesNotConflict) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Read(kX));
  Op(kT2, kS0, DataOp::Read(kX));
  Op(kT1, kS0, DataOp::Read(kX));
  Commit(kT1);
  Commit(kT2);
  DirectedGraph g = BuildLocalConflictGraph(recorder, kS0);
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST_F(RecorderFixture, ReducedEdgesPreserveTransitiveConflicts) {
  // w1(x) w2(x) r3(x): the w1->r3 conflict must be implied via w2.
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Begin(kT3, kS0);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Op(kT3, kS0, DataOp::Read(kX));
  Commit(kT1);
  Commit(kT2);
  Commit(kT3);
  DirectedGraph g = BuildLocalConflictGraph(recorder, kS0);
  EXPECT_TRUE(g.HasEdge(kT1.value(), kT2.value()));
  EXPECT_TRUE(g.HasEdge(kT2.value(), kT3.value()));
}

// --------------------------------------------------------------------------
// Global serializability — the paper's indirect-conflict example
// --------------------------------------------------------------------------

TEST_F(RecorderFixture, GloballyNonSerializableViaIndirectConflicts) {
  // Global G1 (subtxns T1@s0, T11@s1), G2 (T2@s0, T12@s1).
  // Local-only conflicts order G1 before G2 at s0 and G2 before G1 at s1.
  const GlobalTxnId kG1{100};
  const GlobalTxnId kG2{200};
  const TxnId kT11{11};
  const TxnId kT12{12};
  Begin(kT1, kS0, kG1);
  Begin(kT2, kS0, kG2);
  Begin(kT11, kS1, kG1);
  Begin(kT12, kS1, kG2);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));   // G1 -> G2 at s0.
  Op(kT12, kS1, DataOp::Write(kY, 1));
  Op(kT11, kS1, DataOp::Write(kY, 2));  // G2 -> G1 at s1.
  Commit(kT1);
  Commit(kT2);
  Commit(kT11);
  Commit(kT12);
  // Each local schedule alone is serializable...
  EXPECT_TRUE(CheckLocalSerializability(recorder, kS0).serializable);
  EXPECT_TRUE(CheckLocalSerializability(recorder, kS1).serializable);
  // ...but the global schedule is not (the MDBS problem, paper §1).
  SerializabilityResult result = CheckGlobalSerializability(recorder);
  EXPECT_FALSE(result.serializable);
}

TEST_F(RecorderFixture, IndirectConflictThroughLocalTxn) {
  // At s0: G1 writes x; local L reads x and writes y; G2 reads y.
  // => G1 -> L -> G2, an indirect conflict invisible to a GTM.
  const GlobalTxnId kG1{100};
  const GlobalTxnId kG2{200};
  const TxnId kL{50};
  Begin(kT1, kS0, kG1);
  Begin(kL, kS0);  // Local.
  Begin(kT2, kS0, kG2);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kL, kS0, DataOp::Read(kX));
  Op(kL, kS0, DataOp::Write(kY, 1));
  Op(kT2, kS0, DataOp::Read(kY));
  Commit(kT1);
  Commit(kL);
  Commit(kT2);
  DirectedGraph g = BuildGlobalConflictGraph(recorder);
  int64_t g1 = GlobalNodeKey(Record(kT1));
  int64_t g2 = GlobalNodeKey(Record(kT2));
  int64_t local = GlobalNodeKey(Record(kL));
  EXPECT_TRUE(g.HasEdge(g1, local));
  EXPECT_TRUE(g.HasEdge(local, g2));
  EXPECT_NE(g1 % 2, 1);  // Globals get even keys.
  EXPECT_EQ(local % 2, 1);
}

TEST_F(RecorderFixture, SubtransactionsCollapseIntoGlobalNode) {
  const GlobalTxnId kG1{100};
  const TxnId kT11{11};
  Begin(kT1, kS0, kG1);
  Begin(kT11, kS1, kG1);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT11, kS1, DataOp::Write(kY, 1));
  Commit(kT1);
  Commit(kT11);
  DirectedGraph g = BuildGlobalConflictGraph(recorder);
  EXPECT_EQ(g.NodeCount(), 1u);
}

// --------------------------------------------------------------------------
// Serialization-key property
// --------------------------------------------------------------------------

TEST_F(RecorderFixture, KeyPropertyHoldsWhenKeysMatchOrder) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Commit(kT1, 10);
  Commit(kT2, 20);
  EXPECT_TRUE(CheckSerializationKeyProperty(recorder, kS0).ok());
}

TEST_F(RecorderFixture, KeyPropertyViolationReported) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Commit(kT1, 20);
  Commit(kT2, 10);  // Keys contradict the conflict order.
  EXPECT_FALSE(CheckSerializationKeyProperty(recorder, kS0).ok());
}

TEST_F(RecorderFixture, KeyPropertyIgnoresKeylessTxns) {
  Begin(kT1, kS0);
  Begin(kT2, kS0);
  Op(kT1, kS0, DataOp::Write(kX, 1));
  Op(kT2, kS0, DataOp::Write(kX, 2));
  Commit(kT1);  // No key (e.g. SGT site).
  Commit(kT2);
  EXPECT_TRUE(CheckSerializationKeyProperty(recorder, kS0).ok());
}

}  // namespace
}  // namespace mdbs::sched
