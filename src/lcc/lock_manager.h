#ifndef MDBS_LCC_LOCK_MANAGER_H_
#define MDBS_LCC_LOCK_MANAGER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/audit.h"
#include "common/ids.h"
#include "common/status.h"
#include "obs/event_sink.h"

namespace mdbs::lcc {

enum class LockMode { kShared, kExclusive };

const char* LockModeName(LockMode mode);

/// Result of a lock request.
enum class LockResult {
  /// The lock is held by the requester on return.
  kGranted,
  /// The request was queued; the requester must wait. It will appear in the
  /// grant list of a later ReleaseAll call.
  kWaiting,
  /// Granting would deadlock (the new wait edge closes a waits-for cycle);
  /// the request was NOT queued and the requester should abort.
  kDeadlock,
};

/// A strict two-phase lock table with shared/exclusive modes, FIFO wait
/// queues, upgrade support, and waits-for-graph deadlock detection performed
/// at request time (the requester is the victim, so deadlock never involves
/// asynchronously aborting a third party).
class LockManager {
 public:
  /// kLockWait / kDeadlock events go to `events`, labeled with `site` (the
  /// owning local DBMS).
  explicit LockManager(const obs::EventSink& events = obs::kNoEvents,
                       SiteId site = SiteId())
      : events_(events), site_(site) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `item` for `txn`. Re-requesting a mode already
  /// covered by a held lock returns kGranted without side effects.
  /// A transaction may have at most one outstanding (waiting) request.
  LockResult Acquire(TxnId txn, DataItemId item, LockMode mode);

  /// Releases all locks held by `txn` and removes any waiting request it
  /// has. Returns the transactions whose waiting request became granted as
  /// a consequence, in grant order.
  std::vector<TxnId> ReleaseAll(TxnId txn);

  /// True when `txn` holds a lock on `item` covering `mode` (X covers S).
  bool Holds(TxnId txn, DataItemId item, LockMode mode) const;

  /// Monotone sequence number of the last lock grant to `txn` — its lock
  /// point once the transaction stops acquiring. nullopt before any grant.
  std::optional<int64_t> LockPoint(TxnId txn) const;

  /// Item the transaction is currently waiting on, if any.
  std::optional<DataItemId> WaitingOn(TxnId txn) const;

  /// Transactions a request by `txn` for `mode` on `item` would wait for:
  /// conflicting holders plus conflicting queued requests ahead of it.
  /// Used by prevention policies (wound-wait / wait-die) to decide before
  /// acquiring.
  std::vector<TxnId> BlockersOf(TxnId txn, DataItemId item,
                                LockMode mode) const;

  /// Number of items with a non-empty lock entry (for tests).
  size_t ActiveItemCount() const { return table_.size(); }

  /// The next grant sequence number — the 2PL durable clock component that
  /// keeps post-recovery lock points after every pre-crash one.
  int64_t NextGrantSeq() const { return next_grant_seq_; }
  void RecoverGrantSeq(int64_t seq) {
    next_grant_seq_ = std::max(next_grant_seq_, seq);
  }

  /// Structural self-check of the lock table (audit layer):
  ///   - no empty entries are retained, no transaction is granted twice on
  ///     one item, and an exclusive grant is the sole grant (no S/X
  ///     co-grant);
  ///   - held_items_/lock_point_ mirror the granted lists exactly;
  ///   - waiting_on_ mirrors the wait queues exactly (at most one
  ///     outstanding request per transaction);
  ///   - upgrade requests sit only at the queue front and their issuer
  ///     still holds the shared lock;
  ///   - the waits-for graph is acyclic (request-time deadlock detection
  ///     means a cycle can never be committed to the table).
  Status CheckTableInvariants() const;

  /// Audits every Acquire/ReleaseAll against CheckTableInvariants and the
  /// strict-2PL phase discipline (no acquisition after the shrink phase
  /// began), reporting "lock-table" / "strict-2pl-phase" violations.
  /// `auditor` may be null, selecting the process-wide default.
  void EnableAudit(audit::Auditor* auditor);

  /// Mutation-testing hook: injects a grant behind the bookkeeping's back
  /// so tests can prove CheckTableInvariants detects the corruption. Never
  /// called outside audit tests.
  void TestOnlyCorruptGrant(TxnId txn, DataItemId item, LockMode mode);

 private:
  struct Request {
    TxnId txn;
    LockMode mode;
    bool is_upgrade = false;
  };
  struct ItemLock {
    std::vector<Request> granted;
    /// FIFO, an upgrade at the front. A vector: an entry lives only while
    /// its item is locked, and most entries never queue anyone, so an
    /// empty queue must not allocate (a std::deque allocates 576 B even
    /// empty); queues are short, so inserting at the front is cheap.
    std::vector<Request> waiting;
  };

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  LockResult AcquireImpl(TxnId txn, DataItemId item, LockMode mode);

  /// Mode currently held by txn on the entry, if any.
  std::optional<LockMode> HeldMode(const ItemLock& entry, TxnId txn) const;

  /// Transactions a request by `txn` for `mode` on `entry` would wait for:
  /// conflicting holders plus conflicting queued requests ahead of it.
  std::vector<TxnId> Blockers(const ItemLock& entry, TxnId txn,
                              LockMode mode) const;

  /// True if `from` can reach `target` in the waits-for graph.
  bool WaitsForReaches(TxnId from, TxnId target,
                       std::unordered_set<TxnId>* visited) const;

  /// Grants queued requests on `entry` that are now compatible, appending
  /// granted transactions to `granted_out`.
  void GrantFromQueue(DataItemId item, ItemLock* entry,
                      std::vector<TxnId>* granted_out);

  void RecordGrant(TxnId txn, DataItemId item);

  /// Runs CheckTableInvariants and reports when auditing is on; `txn` is
  /// the transaction whose request triggered the check (attributed in the
  /// violation report).
  void AuditTable(const char* after, TxnId txn);

  std::unordered_map<DataItemId, ItemLock> table_;
  std::unordered_map<TxnId, std::unordered_set<DataItemId>> held_items_;
  std::unordered_map<TxnId, DataItemId> waiting_on_;
  std::unordered_map<TxnId, int64_t> lock_point_;
  int64_t next_grant_seq_ = 0;

  audit::Auditor* auditor_ = nullptr;
  const obs::EventSink& events_;
  SiteId site_;
  /// Transactions already past their shrink phase (strict-2PL audit);
  /// tracked only while auditing.
  std::unordered_set<TxnId> released_;
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_LOCK_MANAGER_H_
