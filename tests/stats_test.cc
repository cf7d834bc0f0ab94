#include <gtest/gtest.h>

#include "sched/stats.h"

namespace mdbs::sched {
namespace {

const SiteId kS0{0};
const SiteId kS1{1};

TEST(ScheduleStatsTest, EmptyRecorder) {
  ScheduleRecorder recorder;
  ScheduleStats stats = ComputeScheduleStats(recorder);
  EXPECT_EQ(stats.total_ops, 0);
  EXPECT_EQ(stats.committed_global_txns, 0);
  EXPECT_TRUE(stats.per_site.empty());
}

TEST(ScheduleStatsTest, AggregatesPerSite) {
  ScheduleRecorder recorder({kS0, kS1});
  SiteSchedule& at_s0 = recorder.site(kS0);
  SiteSchedule& at_s1 = recorder.site(kS1);
  TxnId local{1}, sub_a{2}, sub_b{3};
  GlobalTxnId global{10};
  at_s0.RecordBegin(local, GlobalTxnId());
  at_s0.RecordBegin(sub_a, global);
  at_s1.RecordBegin(sub_b, global);
  at_s0.RecordOp(local, DataOp::Read(DataItemId(1)), 0);
  at_s0.RecordOp(local, DataOp::Write(DataItemId(1), 5), 1);
  at_s0.RecordOp(sub_a, DataOp::Write(DataItemId(2), 5), 2);
  at_s1.RecordOp(sub_b, DataOp::Read(DataItemId(3)), 3);
  at_s0.RecordFinish(local, TxnOutcome::kCommitted, std::nullopt);
  at_s0.RecordFinish(sub_a, TxnOutcome::kCommitted, std::nullopt);
  at_s1.RecordFinish(sub_b, TxnOutcome::kAborted, std::nullopt);

  ScheduleStats stats = ComputeScheduleStats(recorder);
  EXPECT_EQ(stats.total_ops, 4);
  EXPECT_EQ(stats.committed_local_txns, 1);
  EXPECT_EQ(stats.committed_global_txns, 1);  // One distinct global id.
  const SiteScheduleStats& s0 = stats.per_site.at(kS0);
  EXPECT_EQ(s0.reads, 1);
  EXPECT_EQ(s0.writes, 2);
  EXPECT_EQ(s0.committed_txns, 2);
  EXPECT_EQ(s0.global_subtxns, 1);
  EXPECT_EQ(s0.distinct_items, 2);
  const SiteScheduleStats& s1 = stats.per_site.at(kS1);
  EXPECT_EQ(s1.aborted_txns, 1);
  EXPECT_EQ(s1.committed_txns, 0);
}

TEST(ScheduleStatsTest, ToStringListsSites) {
  ScheduleRecorder recorder({kS0});
  SiteSchedule& schedule = recorder.site(kS0);
  TxnId txn{1};
  schedule.RecordBegin(txn, GlobalTxnId());
  schedule.RecordOp(txn, DataOp::Read(DataItemId(1)), 0);
  schedule.RecordFinish(txn, TxnOutcome::kCommitted, std::nullopt);
  std::string text = ComputeScheduleStats(recorder).ToString();
  EXPECT_NE(text.find("s0"), std::string::npos);
  EXPECT_NE(text.find("r=1"), std::string::npos);
}

TEST(ScheduleDumpTest, TruncatesAndFormats) {
  ScheduleRecorder recorder({kS0});
  SiteSchedule& schedule = recorder.site(kS0);
  TxnId txn{1};
  schedule.RecordBegin(txn, GlobalTxnId());
  for (int i = 0; i < 10; ++i) {
    schedule.RecordOp(txn, DataOp::Read(DataItemId(i)), i);
  }
  std::string dump = recorder.Dump(/*limit=*/3);
  EXPECT_NE(dump.find("s0: 10 ops"), std::string::npos);
  EXPECT_NE(dump.find("#0"), std::string::npos);
  EXPECT_NE(dump.find("7 more"), std::string::npos);
  EXPECT_EQ(dump.find("#5"), std::string::npos);
}

TEST(ScheduleDumpTest, FinishSeqOrdersAgainstOps) {
  ScheduleRecorder recorder({kS0});
  SiteSchedule& schedule = recorder.site(kS0);
  TxnId t1{1}, t2{2};
  schedule.RecordBegin(t1, GlobalTxnId());
  schedule.RecordBegin(t2, GlobalTxnId());
  schedule.RecordOp(t1, DataOp::Write(DataItemId(1), 5), 0);
  schedule.RecordFinish(t1, TxnOutcome::kCommitted, std::nullopt);
  schedule.RecordOp(t2, DataOp::Read(DataItemId(1)), 1);
  const TxnRecord* r1 = schedule.FindTxn(t1);
  ASSERT_NE(r1, nullptr);
  EXPECT_GT(r1->finish_seq, schedule.ops()[0].seq);
  EXPECT_LT(r1->finish_seq, schedule.ops()[1].seq);
}

}  // namespace
}  // namespace mdbs::sched
