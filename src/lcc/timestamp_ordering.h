#ifndef MDBS_LCC_TIMESTAMP_ORDERING_H_
#define MDBS_LCC_TIMESTAMP_ORDERING_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "lcc/protocol.h"

namespace mdbs::lcc {

/// Strict timestamp ordering. Transactions receive a timestamp at begin; an
/// access that arrives "too late" (reading an item already written by a
/// younger transaction, or writing an item already read/written by a younger
/// one) aborts the transaction. Strictness: an item with an uncommitted
/// write is latched by its writer, and later-timestamped accesses by other
/// transactions wait for the writer to finish, which keeps in-place writes
/// recoverable. Waits always point from younger to older transactions, so
/// strict TO never deadlocks.
///
/// Because timestamps are assigned at begin, the begin operation is a
/// serialization function for TO sites (paper §2.2).
class TimestampOrdering : public ConcurrencyControl {
 public:
  explicit TimestampOrdering(ProtocolHost* host) : host_(host) {}

  ProtocolKind kind() const override {
    return ProtocolKind::kTimestampOrdering;
  }
  const char* Name() const override { return "strict-TO"; }

  void OnBegin(TxnId txn) override;
  AccessDecision OnAccess(TxnId txn, const DataOp& op) override;
  void OnAccessApplied(TxnId txn, const DataOp& op) override;
  AccessDecision OnValidate(TxnId txn) override;
  void OnFinish(TxnId txn, TxnOutcome outcome) override;

  std::optional<int64_t> SerializationKey(TxnId txn) const override;

  /// Recovered timestamps dominate every pre-crash read_ts/write_ts, so the
  /// (volatile, lost) item table restarting empty is safe.
  int64_t DurableClock() const override { return next_ts_; }
  void RecoverClock(int64_t clock) override {
    next_ts_ = std::max(next_ts_, clock);
  }

  /// Timestamp assigned to `txn` at begin; asserts it began.
  int64_t TimestampOf(TxnId txn) const;

 private:
  struct ItemMeta {
    int64_t read_ts = -1;
    int64_t write_ts = -1;
    TxnId uncommitted_writer;  // Invalid when no write latch is held.
    /// Transactions blocked on the latch, in arrival order. A vector, not
    /// a std::deque: an empty vector allocates nothing, while libstdc++
    /// gives every deque, even an empty one, a 64 B map and a 512 B node,
    /// and most items never have a waiter.
    std::vector<TxnId> waiters;
  };

  ProtocolHost* host_;
  int64_t next_ts_ = 0;
  std::unordered_map<TxnId, int64_t> ts_;
  std::unordered_map<TxnId, std::vector<DataItemId>> written_;
  std::unordered_map<DataItemId, ItemMeta> items_;
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_TIMESTAMP_ORDERING_H_
