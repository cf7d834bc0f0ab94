#include "lcc/occ.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace mdbs::lcc {

void OptimisticConcurrencyControl::OnBegin(TxnId txn) {
  MDBS_CHECK(!active_.contains(txn)) << txn << " began twice";
  active_[txn].start_cn = commit_counter_;
}

AccessDecision OptimisticConcurrencyControl::OnAccess(TxnId, const DataOp&) {
  return AccessDecision::kProceed;  // All checks happen at validation.
}

void OptimisticConcurrencyControl::OnAccessApplied(TxnId txn,
                                                   const DataOp& op) {
  ActiveTxn& state = active_.at(txn);
  if (op.type == OpType::kRead) {
    state.read_set.insert(op.item);
  } else {
    state.write_set.insert(op.item);
  }
}

AccessDecision OptimisticConcurrencyControl::OnValidate(TxnId txn) {
  const ActiveTxn& state = active_.at(txn);
  for (const CommittedEntry& entry : committed_log_) {
    if (entry.cn <= state.start_cn) continue;
    for (DataItemId item : entry.write_set) {
      if (state.read_set.contains(item)) {
        events_.Emit({.kind = obs::TraceEventKind::kValidationFail,
                      .txn = txn.value(), .site = site_.value(), .a = -1,
                      .b = item.value(), .detail = "occ"});
        return AccessDecision::kAbort;
      }
    }
  }
  return AccessDecision::kProceed;
}

void OptimisticConcurrencyControl::OnFinish(TxnId txn, TxnOutcome outcome) {
  auto it = active_.find(txn);
  MDBS_CHECK(it != active_.end()) << txn << " finished but never began";
  if (outcome == TxnOutcome::kCommitted) {
    int64_t cn = ++commit_counter_;
    commit_number_[txn] = cn;
    committed_log_.push_back(CommittedEntry{
        cn, std::vector<DataItemId>(it->second.write_set.begin(),
                                    it->second.write_set.end())});
  }
  active_.erase(it);
  CollectGarbage();
}

void OptimisticConcurrencyControl::CollectGarbage() {
  // Entries at or before every active transaction's start are unreachable by
  // any future validation.
  int64_t min_start = commit_counter_;
  for (const auto& [txn, state] : active_) {
    min_start = std::min(min_start, state.start_cn);
  }
  while (!committed_log_.empty() && committed_log_.front().cn <= min_start) {
    committed_log_.pop_front();
  }
}

std::optional<int64_t> OptimisticConcurrencyControl::SerializationKey(
    TxnId txn) const {
  auto it = commit_number_.find(txn);
  if (it == commit_number_.end()) return std::nullopt;
  return it->second;
}

}  // namespace mdbs::lcc
