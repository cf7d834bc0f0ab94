#ifndef MDBS_LCC_PROTOCOL_H_
#define MDBS_LCC_PROTOCOL_H_

#include <optional>
#include <string>

#include "common/ids.h"
#include "common/types.h"

namespace mdbs::audit {
class Auditor;
}  // namespace mdbs::audit

namespace mdbs::lcc {

/// The concurrency control protocols a local DBMS may run. The MDBS cannot
/// change them — heterogeneity across sites is the premise of the paper.
enum class ProtocolKind {
  kTwoPhaseLocking,     // strict 2PL, waits-for deadlock detection
  kTimestampOrdering,   // basic/strict TO, timestamps at begin
  kSerializationGraph,  // SGT certification, abort on cycle
  kOptimistic,          // backward-validation OCC
  kMultiversionTO,      // MVTO: versioned reads, timestamps at begin
  kTwoPhaseLockingWoundWait,  // strict 2PL, wound-wait prevention
  kTwoPhaseLockingWaitDie,    // strict 2PL, wait-die prevention
};

const char* ProtocolKindName(ProtocolKind kind);

/// Verdict of the protocol on an access or a commit request.
enum class AccessDecision {
  /// The operation may execute now.
  kProceed,
  /// The operation must wait; the protocol will call
  /// ProtocolHost::ResumeTransaction when it can be retried.
  kBlock,
  /// The transaction must abort (deadlock victim, timestamp violation,
  /// serialization-graph cycle, failed validation).
  kAbort,
};

/// A versioned read answered by a multiversion protocol: the value and the
/// transaction that wrote the version (invalid for the initial version).
struct ResolvedRead {
  int64_t value = 0;
  TxnId writer;
};

/// Callbacks from a protocol into the hosting local DBMS.
class ProtocolHost {
 public:
  virtual ~ProtocolHost() = default;

  /// The transaction's blocked operation may now be retried. The host
  /// re-submits the operation; the protocol re-decides.
  virtual void ResumeTransaction(TxnId txn) = 0;

  /// The protocol demands the asynchronous abort of a transaction *other
  /// than the requester* (wound-wait preemption). The host rolls it back,
  /// calls OnFinish(kAborted) and fails its pending/next operation. The
  /// default dies: only hosts that opt in support preemption.
  virtual void AbortTransaction(TxnId txn, const std::string& reason);
};

/// A local DBMS concurrency control protocol. Implementations are
/// single-threaded (the simulation kernel serializes all calls) and decide,
/// per access and per commit, whether to proceed, wait, or abort.
///
/// Write visibility is split between protocol and host: when
/// `WritesInPlace()` is true the host applies writes directly to the store
/// (keeping an undo log); when false the host buffers them privately and
/// applies them after a successful `OnValidate` (OCC-style).
class ConcurrencyControl {
 public:
  virtual ~ConcurrencyControl() = default;

  virtual ProtocolKind kind() const = 0;
  virtual const char* Name() const = 0;

  /// A new transaction starts. Protocols needing begin-time state (TO
  /// timestamps, OCC start numbers) capture it here.
  virtual void OnBegin(TxnId txn) = 0;

  /// Decides whether `txn` may perform `op` now. For kBlock the host parks
  /// the operation and retries it (calling OnAccess again) after
  /// ResumeTransaction. For kAbort the host aborts the transaction.
  virtual AccessDecision OnAccess(TxnId txn, const DataOp& op) = 0;

  /// Called after the access executed against the store (or write buffer).
  virtual void OnAccessApplied(TxnId txn, const DataOp& op) = 0;

  /// Commit-time certification; kBlock is not a legal result here.
  virtual AccessDecision OnValidate(TxnId txn) = 0;

  /// Transaction ended (commit or abort): release locks and wake waiters.
  /// Called exactly once per transaction that began.
  virtual void OnFinish(TxnId txn, TxnOutcome outcome) = 0;

  /// True when writes are applied to the store at access time (host keeps an
  /// undo log); false when they are buffered until after validation.
  virtual bool WritesInPlace() const { return true; }

  /// Multiversion protocols answer reads from their version store; a
  /// nullopt (the default, and the answer for items without versions)
  /// makes the host read the single-version store instead. Called after
  /// OnAccess returned kProceed for the read.
  virtual std::optional<ResolvedRead> ResolveRead(TxnId txn,
                                                  DataItemId item) {
    (void)txn;
    (void)item;
    return std::nullopt;
  }

  /// True for multiversion protocols: their local schedules are verified
  /// with the multiversion serialization graph, not single-version CSR.
  virtual bool IsMultiversion() const { return false; }

  /// A value whose order over committed transactions equals this protocol's
  /// local serialization order, when the protocol defines one (TO: the
  /// timestamp; 2PL: lock-point sequence; OCC: commit number). SGT returns
  /// nullopt — precisely the case where the GTM must force conflicts via
  /// tickets. Used by verification and tests, never by the GTM itself.
  virtual std::optional<int64_t> SerializationKey(TxnId txn) const = 0;

  /// The protocol's monotone logical clock — the source its serialization
  /// keys are drawn from (TO/MVTO: next timestamp; 2PL: next age/grant
  /// sequence; OCC: next commit number). Durable sites persist it in log
  /// records so a recovered protocol instance never reissues a value a
  /// pre-crash committed transaction already serialized under. Protocols
  /// without one (SGT) return 0.
  virtual int64_t DurableClock() const { return 0; }

  /// Restart recovery: fast-forwards every internal counter to at least
  /// `clock` (a DurableClock value persisted before the crash). Default:
  /// no-op.
  virtual void RecoverClock(int64_t clock) { (void)clock; }

  /// Restart recovery for multiversion protocols: reinstates the latest
  /// committed version of `item` so post-crash readers observe the correct
  /// writer (the multiversion serialization graph is built from reads-from
  /// edges). Called after RecoverClock, once per recovered item. Default:
  /// no-op (single-version protocols read the recovered store directly).
  virtual void RecoverCommittedVersion(DataItemId item, int64_t value,
                                       TxnId writer) {
    (void)item;
    (void)value;
    (void)writer;
  }

  /// Turns on invariant auditing for protocols that support it (2PL audits
  /// its lock table and the strict-2PL phase discipline). Default: no-op.
  virtual void EnableAudit(audit::Auditor* auditor) { (void)auditor; }
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_PROTOCOL_H_
