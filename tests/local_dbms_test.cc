#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/event_sink.h"
#include "sched/serializability.h"
#include "sim/event_loop.h"
#include "sim/real_strand.h"
#include "site/local_dbms.h"

namespace mdbs::site {
namespace {

const SiteId kSite{0};
const DataItemId kX{1};
const DataItemId kY{2};

struct Harness {
  explicit Harness(lcc::ProtocolKind protocol) {
    SiteConfig config;
    config.id = kSite;
    config.protocol = protocol;
    dbms = std::make_unique<LocalDbms>(config, &loop, events);
  }

  TxnId Begin() {
    TxnId txn{next_id_++};
    EXPECT_TRUE(dbms->Begin(txn, GlobalTxnId()).ok());
    return txn;
  }

  /// Submits and runs to completion; returns (status, value).
  std::pair<Status, int64_t> Do(TxnId txn, const DataOp& op) {
    Status status = Status::Internal("callback never ran");
    int64_t value = 0;
    dbms->Submit(txn, op, [&](const Status& s, int64_t v) {
      status = s;
      value = v;
    });
    loop.Run();
    return {status, value};
  }

  /// Submits without running the loop (for blocking scenarios).
  void DoAsync(TxnId txn, const DataOp& op, Status* out) {
    *out = Status::Internal("pending");
    dbms->Submit(txn, op,
                 [out](const Status& s, int64_t) { *out = s; });
  }

  Status Commit(TxnId txn) {
    Status status = Status::Internal("callback never ran");
    dbms->Commit(txn, [&](const Status& s) { status = s; });
    loop.Run();
    return status;
  }

  Status Abort(TxnId txn) {
    Status status = Status::Internal("callback never ran");
    dbms->Abort(txn, [&](const Status& s) { status = s; });
    loop.Run();
    return status;
  }

  sim::EventLoop loop;
  sched::ScheduleRecorder recorder{{kSite}};
  const obs::EventSink events{nullptr, nullptr, &recorder};
  std::unique_ptr<LocalDbms> dbms;
  int64_t next_id_ = 1;
};

// --------------------------------------------------------------------------
// Basic execution, all protocols (parameterized)
// --------------------------------------------------------------------------

class LocalDbmsAllProtocols
    : public ::testing::TestWithParam<lcc::ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(
    Protocols, LocalDbmsAllProtocols,
    ::testing::Values(lcc::ProtocolKind::kTwoPhaseLocking,
                      lcc::ProtocolKind::kTimestampOrdering,
                      lcc::ProtocolKind::kSerializationGraph,
                      lcc::ProtocolKind::kOptimistic,
                      lcc::ProtocolKind::kMultiversionTO,
                      lcc::ProtocolKind::kTwoPhaseLockingWoundWait,
                      lcc::ProtocolKind::kTwoPhaseLockingWaitDie),
    [](const auto& info) {
      std::string name = lcc::ProtocolKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(LocalDbmsAllProtocols, WriteThenReadRoundTrip) {
  Harness h(GetParam());
  TxnId txn = h.Begin();
  EXPECT_TRUE(h.Do(txn, DataOp::Write(kX, 42)).first.ok());
  auto [status, value] = h.Do(txn, DataOp::Read(kX));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(value, 42);  // Read-your-own-writes, even with deferred writes.
  EXPECT_TRUE(h.Commit(txn).ok());
  EXPECT_EQ(h.dbms->UnsafePeek(kX), 42);
}

TEST_P(LocalDbmsAllProtocols, AbortUndoesWrites) {
  Harness h(GetParam());
  h.dbms->UnsafePoke(kX, 7);
  TxnId txn = h.Begin();
  EXPECT_TRUE(h.Do(txn, DataOp::Write(kX, 99)).first.ok());
  EXPECT_TRUE(h.Abort(txn).ok());
  EXPECT_EQ(h.dbms->UnsafePeek(kX), 7);
  EXPECT_FALSE(h.dbms->IsActive(txn));
}

TEST_P(LocalDbmsAllProtocols, SequentialTxnsAllCommit) {
  Harness h(GetParam());
  for (int i = 0; i < 20; ++i) {
    TxnId txn = h.Begin();
    EXPECT_TRUE(h.Do(txn, DataOp::Read(kX)).first.ok());
    EXPECT_TRUE(h.Do(txn, DataOp::Write(kX, i)).first.ok());
    EXPECT_TRUE(h.Commit(txn).ok());
  }
  EXPECT_EQ(h.dbms->UnsafePeek(kX), 19);
  EXPECT_EQ(h.recorder.CommittedCount(), 20);
}

TEST_P(LocalDbmsAllProtocols, DoubleBeginFails) {
  Harness h(GetParam());
  TxnId txn = h.Begin();
  EXPECT_TRUE(h.dbms->Begin(txn, GlobalTxnId()).IsFailedPrecondition());
}

TEST_P(LocalDbmsAllProtocols, OpOnFinishedTxnReportsAborted) {
  Harness h(GetParam());
  TxnId txn = h.Begin();
  ASSERT_TRUE(h.Commit(txn).ok());
  auto [status, value] = h.Do(txn, DataOp::Read(kX));
  EXPECT_TRUE(status.IsTransactionAborted());
}

// --------------------------------------------------------------------------
// Protocol-specific site behavior
// --------------------------------------------------------------------------

TEST(LocalDbms2plTest, ConflictingOpBlocksUntilCommit) {
  Harness h(lcc::ProtocolKind::kTwoPhaseLocking);
  TxnId t1 = h.Begin();
  TxnId t2 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Write(kX, 1)).first.ok());
  Status blocked;
  h.DoAsync(t2, DataOp::Read(kX), &blocked);
  h.loop.Run();
  EXPECT_TRUE(blocked.IsInternal()) << "should still be pending";
  EXPECT_EQ(h.dbms->blocked_count(), 1);
  EXPECT_TRUE(h.Commit(t1).ok());  // Releases the lock, resumes T2.
  EXPECT_TRUE(blocked.ok());
}

TEST(LocalDbms2plTest, DeadlockVictimGetsAborted) {
  Harness h(lcc::ProtocolKind::kTwoPhaseLocking);
  TxnId t1 = h.Begin();
  TxnId t2 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Write(kX, 1)).first.ok());
  ASSERT_TRUE(h.Do(t2, DataOp::Write(kY, 1)).first.ok());
  Status t1_blocked;
  h.DoAsync(t1, DataOp::Read(kY), &t1_blocked);
  h.loop.Run();
  auto [status, value] = h.Do(t2, DataOp::Read(kX));
  EXPECT_TRUE(status.IsTransactionAborted());
  EXPECT_EQ(h.dbms->abort_count(), 1);
  // T2's abort released Y, so T1 resumed.
  EXPECT_TRUE(t1_blocked.ok());
  EXPECT_TRUE(h.Commit(t1).ok());
}

TEST(LocalDbms2plTest, AbortWhileBlockedFailsPendingOp) {
  Harness h(lcc::ProtocolKind::kTwoPhaseLocking);
  TxnId t1 = h.Begin();
  TxnId t2 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Write(kX, 1)).first.ok());
  Status blocked;
  h.DoAsync(t2, DataOp::Read(kX), &blocked);
  h.loop.Run();
  EXPECT_TRUE(h.Abort(t2).ok());
  EXPECT_TRUE(blocked.IsTransactionAborted());
  EXPECT_TRUE(h.Commit(t1).ok());
}

TEST(LocalDbmsOccTest, ValidationFailureAtCommit) {
  Harness h(lcc::ProtocolKind::kOptimistic);
  TxnId t1 = h.Begin();
  TxnId t2 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Read(kX)).first.ok());
  ASSERT_TRUE(h.Do(t2, DataOp::Write(kX, 5)).first.ok());
  ASSERT_TRUE(h.Commit(t2).ok());
  EXPECT_TRUE(h.Commit(t1).IsTransactionAborted());
  EXPECT_EQ(h.recorder.AbortedCount(), 1);
}

TEST(LocalDbmsOccTest, DeferredWritesInvisibleUntilCommit) {
  Harness h(lcc::ProtocolKind::kOptimistic);
  TxnId t1 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Write(kX, 5)).first.ok());
  EXPECT_EQ(h.dbms->UnsafePeek(kX), 0);  // Still buffered.
  TxnId t2 = h.Begin();
  EXPECT_EQ(h.Do(t2, DataOp::Read(kX)).second, 0);
  ASSERT_TRUE(h.Commit(t1).ok());
  EXPECT_EQ(h.dbms->UnsafePeek(kX), 5);
}

TEST(LocalDbmsToTest, OldReaderAbortsAfterYoungerWriteCommits) {
  Harness h(lcc::ProtocolKind::kTimestampOrdering);
  TxnId t1 = h.Begin();  // Older.
  TxnId t2 = h.Begin();  // Younger.
  ASSERT_TRUE(h.Do(t2, DataOp::Write(kX, 5)).first.ok());
  ASSERT_TRUE(h.Commit(t2).ok());
  EXPECT_TRUE(h.Do(t1, DataOp::Read(kX)).first.IsTransactionAborted());
}

// --------------------------------------------------------------------------
// Recorder integration
// --------------------------------------------------------------------------

TEST(LocalDbmsRecorderTest, OpsRecordedInExecutionOrder) {
  Harness h(lcc::ProtocolKind::kTwoPhaseLocking);
  TxnId t1 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Write(kX, 1)).first.ok());
  ASSERT_TRUE(h.Do(t1, DataOp::Read(kY)).first.ok());
  ASSERT_TRUE(h.Commit(t1).ok());
  const sched::SiteSchedule& schedule = h.recorder.site(kSite);
  const auto& ops = schedule.ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op.type, OpType::kWrite);
  EXPECT_EQ(ops[1].op.type, OpType::kRead);
  EXPECT_LT(ops[0].seq, ops[1].seq);
  const sched::TxnRecord* record = schedule.FindTxn(t1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(record->serialization_key.has_value());
}

TEST(LocalDbmsRecorderTest, OccWritesRecordedAtCommit) {
  Harness h(lcc::ProtocolKind::kOptimistic);
  TxnId t1 = h.Begin();
  TxnId t2 = h.Begin();
  ASSERT_TRUE(h.Do(t1, DataOp::Write(kX, 1)).first.ok());
  ASSERT_TRUE(h.Do(t2, DataOp::Write(kY, 1)).first.ok());
  ASSERT_TRUE(h.Commit(t2).ok());
  ASSERT_TRUE(h.Commit(t1).ok());
  // T2's write applied (and was recorded) first even though T1 buffered
  // its write earlier.
  const auto& ops = h.recorder.site(kSite).ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].txn, t2);
  EXPECT_EQ(ops[1].txn, t1);
}

// Real threads: three sites, each on its own strand, record into their own
// shards with no shared lock. Two clients per site contend on four items,
// so operations block, abort and (OCC, MVTO) install deferred writes at
// commit. Each site's shard must hold exactly the operations that site
// executed, in the order it executed them: a read or an in-place write
// when its callback reports success, a deferred write when its
// transaction's commit does.
struct ThreadedSite {
  std::unique_ptr<sim::RealStrand> strand;
  std::unique_ptr<LocalDbms> dbms;
  bool deferred = false;
  // Written only on the site's strand; read after it stopped.
  std::vector<std::pair<TxnId, DataOp>> executed;
  int64_t next_txn = 0;
  int64_t begun = 0;
  int64_t committed = 0;
};

struct ThreadedClient {
  ThreadedSite* site;
  std::atomic<int>* done;
  Rng rng;
  int remaining;

  ThreadedClient(ThreadedSite* s, std::atomic<int>* d, uint64_t seed,
                 int txns)
      : site(s), done(d), rng(seed), remaining(txns) {}

  TxnId txn;
  std::vector<DataOp> ops;
  size_t next = 0;
  std::vector<DataItemId> write_order;
  std::map<DataItemId, int64_t> writes;

  void StartTxn() {
    if (remaining-- <= 0) {
      done->fetch_add(1);
      return;
    }
    txn = TxnId(site->next_txn++);
    ASSERT_TRUE(site->dbms->Begin(txn, GlobalTxnId()).ok());
    ++site->begun;
    ops.clear();
    write_order.clear();
    writes.clear();
    const int n = static_cast<int>(rng.NextInRange(1, 4));
    for (int i = 0; i < n; ++i) {
      DataItemId item{static_cast<int64_t>(rng.NextBelow(4))};
      ops.push_back(rng.NextBernoulli(0.5)
                        ? DataOp::Read(item)
                        : DataOp::Write(item, static_cast<int64_t>(
                                                  rng.NextBelow(1000))));
    }
    next = 0;
    Step();
  }

  void Step() {
    if (next == ops.size()) {
      site->dbms->Commit(txn, [this](const Status& status) {
        if (status.ok()) {
          ++site->committed;
          for (DataItemId item : write_order) {
            site->executed.emplace_back(txn,
                                        DataOp::Write(item, writes.at(item)));
          }
        }
        StartTxn();
      });
      return;
    }
    const DataOp op = ops[next];
    site->dbms->Submit(txn, op, [this, op](const Status& status,
                                           int64_t value) {
      if (!status.ok()) {
        StartTxn();
        return;
      }
      if (op.type == OpType::kRead || !site->deferred) {
        site->executed.emplace_back(txn, DataOp{op.type, op.item, value});
      } else {
        if (!writes.contains(op.item)) write_order.push_back(op.item);
        writes[op.item] = op.value;
      }
      ++next;
      Step();
    });
  }
};

TEST(LocalDbmsRecorderTest, ThreadedShardsHoldEachSitesExecutedOps) {
  const std::vector<lcc::ProtocolKind> protocols = {
      lcc::ProtocolKind::kTwoPhaseLocking, lcc::ProtocolKind::kOptimistic,
      lcc::ProtocolKind::kMultiversionTO};
  std::vector<SiteId> ids;
  for (size_t i = 0; i < protocols.size(); ++i) {
    ids.emplace_back(static_cast<int64_t>(i));
  }
  sched::ScheduleRecorder recorder(ids);
  const obs::EventSink events(nullptr, nullptr, &recorder);
  sim::RealTicker ticker;
  std::vector<ThreadedSite> sites(protocols.size());
  std::vector<std::unique_ptr<ThreadedClient>> clients;
  std::atomic<int> done{0};
  for (size_t i = 0; i < protocols.size(); ++i) {
    SiteConfig config;
    config.id = ids[i];
    config.protocol = protocols[i];
    sites[i].strand = std::make_unique<sim::RealStrand>(
        &ticker, "site-" + std::to_string(i));
    sites[i].dbms =
        std::make_unique<LocalDbms>(config, sites[i].strand.get(), events);
    sites[i].deferred = !sites[i].dbms->protocol().WritesInPlace();
    for (int c = 0; c < 2; ++c) {
      clients.push_back(std::make_unique<ThreadedClient>(
          &sites[i], &done, 100 * i + c, 60));
    }
  }
  for (const std::unique_ptr<ThreadedClient>& client : clients) {
    ThreadedClient* raw = client.get();
    raw->site->strand->Schedule(0, [raw] { raw->StartTxn(); });
  }
  while (done.load() < static_cast<int>(clients.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (ThreadedSite& site : sites) site.strand->Stop();

  for (size_t i = 0; i < sites.size(); ++i) {
    const sched::SiteSchedule& schedule = recorder.site(ids[i]);
    const std::vector<sched::RecordedOp>& recorded = schedule.ops();
    const std::vector<std::pair<TxnId, DataOp>>& executed = sites[i].executed;
    ASSERT_EQ(recorded.size(), executed.size()) << ToString(ids[i]);
    for (size_t k = 0; k < recorded.size(); ++k) {
      const auto& [txn, op] = executed[k];
      EXPECT_EQ(recorded[k].txn, txn) << ToString(ids[i]) << " op " << k;
      EXPECT_EQ(recorded[k].op.type, op.type) << ToString(ids[i]) << k;
      EXPECT_EQ(recorded[k].op.item, op.item) << ToString(ids[i]) << k;
      EXPECT_EQ(recorded[k].op.value, op.value) << ToString(ids[i]) << k;
    }
    EXPECT_EQ(static_cast<int64_t>(schedule.txns().size()), sites[i].begun);
    int64_t committed = 0;
    for (const auto& [txn, record] : schedule.txns()) {
      if (record.outcome == TxnOutcome::kCommitted) ++committed;
    }
    EXPECT_EQ(committed, sites[i].committed) << ToString(ids[i]);
    EXPECT_GT(committed, 0) << ToString(ids[i]);
  }
}

// --------------------------------------------------------------------------
// Property: random single-site stress keeps local schedules serializable
// and consistent with the protocol's serialization keys.
// --------------------------------------------------------------------------

struct StressCase {
  lcc::ProtocolKind protocol;
  uint64_t seed;
};

class LocalDbmsStress : public ::testing::TestWithParam<StressCase> {};

std::string StressName(const ::testing::TestParamInfo<StressCase>& info) {
  std::string name = lcc::ProtocolKindName(info.param.protocol);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalDbmsStress,
    ::testing::Values(
        StressCase{lcc::ProtocolKind::kTwoPhaseLocking, 1},
        StressCase{lcc::ProtocolKind::kTwoPhaseLocking, 2},
        StressCase{lcc::ProtocolKind::kTimestampOrdering, 1},
        StressCase{lcc::ProtocolKind::kTimestampOrdering, 2},
        StressCase{lcc::ProtocolKind::kSerializationGraph, 1},
        StressCase{lcc::ProtocolKind::kSerializationGraph, 2},
        StressCase{lcc::ProtocolKind::kOptimistic, 1},
        StressCase{lcc::ProtocolKind::kOptimistic, 2},
        StressCase{lcc::ProtocolKind::kTwoPhaseLockingWoundWait, 1},
        StressCase{lcc::ProtocolKind::kTwoPhaseLockingWoundWait, 2},
        StressCase{lcc::ProtocolKind::kTwoPhaseLockingWaitDie, 1},
        StressCase{lcc::ProtocolKind::kTwoPhaseLockingWaitDie, 2}),
    StressName);

// A minimal closed-loop local client used by the stress test.
struct StressClient {
  Harness* h;
  Rng rng;
  int remaining;
  TxnId txn;
  std::vector<DataOp> ops;
  size_t next = 0;

  StressClient(Harness* harness, uint64_t seed, int txns)
      : h(harness), rng(seed), remaining(txns) {}

  void StartTxn() {
    if (remaining-- <= 0) return;
    txn = h->Begin();
    ops.clear();
    int n = static_cast<int>(rng.NextInRange(1, 4));
    for (int i = 0; i < n; ++i) {
      DataItemId item{static_cast<int64_t>(rng.NextBelow(6))};
      ops.push_back(rng.NextBernoulli(0.5)
                        ? DataOp::Read(item)
                        : DataOp::Write(item, static_cast<int64_t>(
                                                  rng.NextBelow(1000))));
    }
    next = 0;
    Step();
  }

  void Step() {
    if (next == ops.size()) {
      h->dbms->Commit(txn, [this](const Status&) { StartTxn(); });
      return;
    }
    h->dbms->Submit(txn, ops[next], [this](const Status& status, int64_t) {
      if (!status.ok()) {
        StartTxn();  // Abort: move on to the next transaction.
        return;
      }
      ++next;
      Step();
    });
  }
};

TEST_P(LocalDbmsStress, ConcurrentClientsStaySerializable) {
  Harness h(GetParam().protocol);
  std::vector<std::unique_ptr<StressClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<StressClient>(
        &h, GetParam().seed * 100 + i, 50));
    clients.back()->StartTxn();
  }
  h.loop.Run();
  EXPECT_GT(h.recorder.CommittedCount(), 50);
  sched::SerializabilityResult result =
      sched::CheckLocalSerializability(h.recorder, kSite);
  EXPECT_TRUE(result.serializable) << result.ToString();
  EXPECT_TRUE(
      sched::CheckSerializationKeyProperty(h.recorder, kSite).ok());
}

}  // namespace
}  // namespace mdbs::site
