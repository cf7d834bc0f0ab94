#include "lcc/two_phase_locking.h"

#include <string>
#include <vector>

#include "common/logging.h"

namespace mdbs::lcc {

const char* DeadlockPolicyName(DeadlockPolicy policy) {
  switch (policy) {
    case DeadlockPolicy::kDetect:
      return "detect";
    case DeadlockPolicy::kWoundWait:
      return "wound-wait";
    case DeadlockPolicy::kWaitDie:
      return "wait-die";
  }
  return "?";
}

const char* TwoPhaseLocking::Name() const {
  switch (policy_) {
    case DeadlockPolicy::kDetect:
      return "strict-2PL";
    case DeadlockPolicy::kWoundWait:
      return "strict-2PL/wound-wait";
    case DeadlockPolicy::kWaitDie:
      return "strict-2PL/wait-die";
  }
  return "strict-2PL";
}

void TwoPhaseLocking::OnBegin(TxnId txn) {
  if (policy_ != DeadlockPolicy::kDetect) age_[txn] = next_age_++;
}

AccessDecision TwoPhaseLocking::OnAccess(TxnId txn, const DataOp& op) {
  LockMode mode =
      op.type == OpType::kRead ? LockMode::kShared : LockMode::kExclusive;

  if (policy_ != DeadlockPolicy::kDetect) {
    int64_t my_age = age_.at(txn);
    std::vector<TxnId> blockers =
        lock_manager_.BlockersOf(txn, op.item, mode);
    if (policy_ == DeadlockPolicy::kWaitDie) {
      for (TxnId blocker : blockers) {
        // Die when blocked by anyone older; only older-waits-for-younger
        // waits remain, which cannot cycle.
        if (age_.at(blocker) < my_age) return AccessDecision::kAbort;
      }
    } else {  // Wound-wait.
      for (TxnId blocker : blockers) {
        // A holder queued behind its own upgrade appears twice in the
        // blocker list (once granted, once waiting); wounding it on the
        // first occurrence erases its age, so a repeat must be skipped.
        auto age_it = age_.find(blocker);
        if (age_it == age_.end()) continue;
        if (age_it->second > my_age) {
          ++wounds_inflicted_;
          events_.Emit({.kind = obs::TraceEventKind::kWound,
                        .txn = blocker.value(), .site = site_.value(), .a = -1,
                        .b = txn.value()});
          host_->AbortTransaction(
              blocker, "wounded by older " + ToString(txn));
        }
      }
    }
  }

  switch (lock_manager_.Acquire(txn, op.item, mode)) {
    case LockResult::kGranted:
      return AccessDecision::kProceed;
    case LockResult::kWaiting:
      return AccessDecision::kBlock;
    case LockResult::kDeadlock:
      // Unreachable under the prevention policies (their waits are
      // age-monotone); the detection policy aborts the requester.
      return AccessDecision::kAbort;
  }
  return AccessDecision::kAbort;
}

void TwoPhaseLocking::OnAccessApplied(TxnId, const DataOp&) {}

AccessDecision TwoPhaseLocking::OnValidate(TxnId) {
  return AccessDecision::kProceed;
}

void TwoPhaseLocking::OnFinish(TxnId txn, TxnOutcome outcome) {
  if (outcome == TxnOutcome::kCommitted) {
    if (auto point = lock_manager_.LockPoint(txn); point.has_value()) {
      final_lock_point_[txn] = *point;
    }
  }
  age_.erase(txn);
  for (TxnId granted : lock_manager_.ReleaseAll(txn)) {
    host_->ResumeTransaction(granted);
  }
}

std::optional<int64_t> TwoPhaseLocking::SerializationKey(TxnId txn) const {
  auto it = final_lock_point_.find(txn);
  if (it != final_lock_point_.end()) return it->second;
  return lock_manager_.LockPoint(txn);
}

}  // namespace mdbs::lcc
