#include "lcc/timestamp_ordering.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mdbs::lcc {

void TimestampOrdering::OnBegin(TxnId txn) {
  MDBS_CHECK(!ts_.contains(txn)) << txn << " began twice";
  ts_[txn] = next_ts_++;
}

int64_t TimestampOrdering::TimestampOf(TxnId txn) const {
  auto it = ts_.find(txn);
  MDBS_CHECK(it != ts_.end()) << txn << " has no timestamp";
  return it->second;
}

AccessDecision TimestampOrdering::OnAccess(TxnId txn, const DataOp& op) {
  int64_t ts = TimestampOf(txn);
  ItemMeta& meta = items_[op.item];

  if (op.type == OpType::kRead) {
    if (ts < meta.write_ts) return AccessDecision::kAbort;
    if (meta.uncommitted_writer.valid() && meta.uncommitted_writer != txn) {
      // ts >= write_ts here, so the reader is younger than the latching
      // writer: wait for the writer to finish (strictness).
      meta.waiters.push_back(txn);
      return AccessDecision::kBlock;
    }
    return AccessDecision::kProceed;
  }

  // Write.
  if (ts < meta.read_ts || ts < meta.write_ts) return AccessDecision::kAbort;
  if (meta.uncommitted_writer.valid() && meta.uncommitted_writer != txn) {
    meta.waiters.push_back(txn);
    return AccessDecision::kBlock;
  }
  return AccessDecision::kProceed;
}

void TimestampOrdering::OnAccessApplied(TxnId txn, const DataOp& op) {
  int64_t ts = TimestampOf(txn);
  ItemMeta& meta = items_[op.item];
  if (op.type == OpType::kRead) {
    meta.read_ts = std::max(meta.read_ts, ts);
    return;
  }
  meta.write_ts = ts;
  if (meta.uncommitted_writer != txn) {
    meta.uncommitted_writer = txn;
    written_[txn].push_back(op.item);
  }
}

AccessDecision TimestampOrdering::OnValidate(TxnId) {
  return AccessDecision::kProceed;
}

void TimestampOrdering::OnFinish(TxnId txn, TxnOutcome outcome) {
  (void)outcome;  // Timestamps of aborted writes are conservatively kept.
  auto it = written_.find(txn);
  if (it != written_.end()) {
    for (DataItemId item : it->second) {
      ItemMeta& meta = items_[item];
      if (meta.uncommitted_writer == txn) {
        meta.uncommitted_writer = TxnId();
        // Taken out of the table first: a resumed waiter may queue again.
        for (TxnId waiter : std::exchange(meta.waiters, {})) {
          host_->ResumeTransaction(waiter);
        }
      }
    }
    written_.erase(it);
  }
  // ts_ is retained so SerializationKey stays answerable after commit; the
  // verification layer reads it when checking the ser-function property.
}

std::optional<int64_t> TimestampOrdering::SerializationKey(TxnId txn) const {
  auto it = ts_.find(txn);
  if (it == ts_.end()) return std::nullopt;
  return it->second;
}

}  // namespace mdbs::lcc
