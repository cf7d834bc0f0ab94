#ifndef MDBS_LCC_TWO_PHASE_LOCKING_H_
#define MDBS_LCC_TWO_PHASE_LOCKING_H_

#include <algorithm>
#include <unordered_map>

#include "lcc/lock_manager.h"
#include "lcc/protocol.h"

namespace mdbs::lcc {

/// How a 2PL site resolves (or prevents) deadlocks.
enum class DeadlockPolicy {
  /// Waits-for-graph detection at request time; the requester whose wait
  /// would close a cycle aborts.
  kDetect,
  /// Wound-wait prevention: an older requester preempts ("wounds") younger
  /// conflicting holders; a younger requester waits. Waits always point
  /// from younger to older, so no cycles form.
  kWoundWait,
  /// Wait-die prevention: an older requester waits; a younger one aborts
  /// ("dies") immediately. Waits always point from older to younger.
  kWaitDie,
};

const char* DeadlockPolicyName(DeadlockPolicy policy);

/// Strict two-phase locking: shared locks for reads, exclusive for writes,
/// all locks held until the transaction finishes. Deadlocks are handled
/// per the configured policy; wound-wait additionally requires the host to
/// support preemptive aborts (ProtocolHost::AbortTransaction).
///
/// Under strict 2PL the serialization order follows lock points; with
/// predeclared operation lists the lock point is reached at the last data
/// operation, so the last operation is a serialization function for 2PL
/// sites (paper §2.2) regardless of the deadlock policy.
class TwoPhaseLocking : public ConcurrencyControl {
 public:
  /// Wounds and the lock table's waits/deadlocks go to `events`, labeled
  /// with `site`.
  explicit TwoPhaseLocking(ProtocolHost* host,
                           DeadlockPolicy policy = DeadlockPolicy::kDetect,
                           const obs::EventSink& events = obs::kNoEvents,
                           SiteId site = SiteId())
      : host_(host),
        policy_(policy),
        lock_manager_(events, site),
        events_(events),
        site_(site) {}

  ProtocolKind kind() const override {
    switch (policy_) {
      case DeadlockPolicy::kWoundWait:
        return ProtocolKind::kTwoPhaseLockingWoundWait;
      case DeadlockPolicy::kWaitDie:
        return ProtocolKind::kTwoPhaseLockingWaitDie;
      case DeadlockPolicy::kDetect:
        break;
    }
    return ProtocolKind::kTwoPhaseLocking;
  }
  const char* Name() const override;

  void OnBegin(TxnId txn) override;
  AccessDecision OnAccess(TxnId txn, const DataOp& op) override;
  void OnAccessApplied(TxnId txn, const DataOp& op) override;
  AccessDecision OnValidate(TxnId txn) override;
  void OnFinish(TxnId txn, TxnOutcome outcome) override;

  std::optional<int64_t> SerializationKey(TxnId txn) const override;

  /// Keys come from the lock manager's grant sequence; ages drive the
  /// prevention policies. Both must stay monotone across a restart.
  int64_t DurableClock() const override {
    return std::max(next_age_, lock_manager_.NextGrantSeq());
  }
  void RecoverClock(int64_t clock) override {
    next_age_ = std::max(next_age_, clock);
    lock_manager_.RecoverGrantSeq(clock);
  }

  void EnableAudit(audit::Auditor* auditor) override {
    lock_manager_.EnableAudit(auditor);
  }

  const LockManager& lock_manager() const { return lock_manager_; }
  DeadlockPolicy policy() const { return policy_; }
  int64_t wounds_inflicted() const { return wounds_inflicted_; }

 private:
  ProtocolHost* host_;
  DeadlockPolicy policy_;
  LockManager lock_manager_;
  const obs::EventSink& events_;
  SiteId site_;
  /// Age (begin order) for the prevention policies; smaller = older.
  std::unordered_map<TxnId, int64_t> age_;
  int64_t next_age_ = 0;
  int64_t wounds_inflicted_ = 0;
  /// Lock points of finished transactions (captured before release).
  std::unordered_map<TxnId, int64_t> final_lock_point_;
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_TWO_PHASE_LOCKING_H_
