#ifndef MDBS_GTM_GTM2_H_
#define MDBS_GTM_GTM2_H_

#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_set>

#include "audit/audit.h"
#include "audit/ser_graph.h"
#include "common/ids.h"
#include "gtm/queue_op.h"
#include "gtm/scheme.h"
#include "obs/event_sink.h"
#include "storage/framing.h"

namespace mdbs::gtm {

/// Aggregate counters of one GTM2 instance.
struct Gtm2Stats {
  int64_t processed_ops = 0;
  /// Operations inserted into WAIT at least once (the paper's
  /// degree-of-concurrency measure counts these).
  int64_t wait_additions = 0;
  /// The subset of wait_additions that are ser operations.
  int64_t ser_wait_additions = 0;
  /// cond() evaluations performed (both from QUEUE and WAIT rescans).
  int64_t cond_evaluations = 0;
  /// Scheme steps spent on WAIT re-evaluations that still failed. The
  /// paper's complexity model (§4) assumes targeted wakeup — only
  /// operations whose cond became true are examined — so the theoretical
  /// per-transaction step counts correspond to scheme().steps() minus this.
  int64_t failed_rescan_steps = 0;
  /// Transactions aborted on a scheme's demand (non-conservative only).
  int64_t scheme_aborts = 0;
};

/// GTM2: the driver of the paper's Basic_Scheme (Figure 3). It selects
/// operations from the front of QUEUE; when the scheme's cond holds it runs
/// the scheme's act plus the operation's side effect (releasing a ser
/// operation to its site, forwarding an ack to GTM1, ...); otherwise the
/// operation joins WAIT and is retried after every subsequent act.
class Gtm2 {
 public:
  struct Callbacks {
    /// act(ser_k(G_i)): submit the serialization-function operation to the
    /// local DBMS through the servers.
    std::function<void(GlobalTxnId, SiteId)> release_ser;
    /// act(ack(ser_k(G_i))): forward the ack to GTM1.
    std::function<void(GlobalTxnId, SiteId)> forward_ack;
    /// Validation passed: GTM1 may commit the subtransactions.
    std::function<void(GlobalTxnId)> validate_passed;
    /// The scheme demands aborting this transaction (non-conservative
    /// schemes only). GTM1 must abort the attempt and call AbortCleanup.
    std::function<void(GlobalTxnId)> abort_txn;
    /// fin_i processed: DS cleanup done.
    std::function<void(GlobalTxnId)> fin_done;
  };

  /// QUEUE/WAIT dynamics and act executions go to `events`, which the
  /// scheme shares for its DS events; it must outlive the driver.
  Gtm2(std::unique_ptr<Scheme> scheme, Callbacks callbacks,
       const obs::EventSink& events = obs::kNoEvents);

  Gtm2(const Gtm2&) = delete;
  Gtm2& operator=(const Gtm2&) = delete;

  /// Hands the driver to a new owner: replaces its callbacks and its event
  /// stream (the scheme's too). A GTM log catch-up (GtmReplica) rebuilds
  /// GTM2 without callbacks or subscribers, then GTM1 takes it over.
  void Rebind(Callbacks callbacks, const obs::EventSink& events);

  /// Inserts `op` at the back of QUEUE and processes the queue to
  /// quiescence (synchronously; all site interaction is deferred through
  /// the callbacks).
  void Enqueue(QueueOp op);

  /// Purges every queued/waiting operation of `txn` and removes it from the
  /// scheme's data structures. Called by GTM1 when an attempt dies.
  void AbortCleanup(GlobalTxnId txn);

  const Scheme& scheme() const { return *scheme_; }
  Scheme& mutable_scheme() { return *scheme_; }
  const Gtm2Stats& stats() const { return stats_; }

  size_t wait_size() const { return wait_.size(); }
  size_t queue_size() const { return queue_.size(); }

  /// Turns on the invariant auditor for this driver. `auditor` may be
  /// null, selecting the process-wide fail-fast default. The audited
  /// invariants (gated on Scheme::IsConservative where noted):
  ///   conservative-discipline  — a conservative scheme returned kAbort;
  ///   ser-release-discipline   — the scheme's own release rule, re-derived
  ///                              from its DS at act(ser) time, fails;
  ///   ser-graph-acyclic        — releasing this ser operation closed a
  ///                              cycle in the abstract ser(S) graph;
  ///   scheme-structure         — the scheme's structural self-check
  ///                              failed after an act.
  void EnableAudit(const audit::AuditConfig& config,
                   audit::Auditor* auditor);

  /// Audits this driver exactly as `other` is audited (or not). Its ser(S)
  /// graph starts empty.
  void CopyAuditFrom(const Gtm2& other);

  bool audit_enabled() const { return audit_enabled_; }
  const audit::Auditor* auditor() const { return auditor_; }

  /// Volatile GTM2 state as the durable GTM's checkpoints capture it. Only
  /// taken at strand-turn boundaries, where QUEUE is provably empty — so
  /// WAIT, the dead set, the counters and the scheme DS are the whole
  /// state.
  struct VolatileImage {
    std::vector<QueueOp> wait;       // in WAIT order
    std::vector<int64_t> dead_txns;  // sorted
    Gtm2Stats stats;
    int64_t scheme_steps = 0;
    std::vector<uint8_t> scheme_state;
  };

  /// Snapshots the volatile state; crashes unless the driver is quiescent
  /// (not pumping, QUEUE empty).
  VolatileImage SnapshotForCheckpoint() const;

  /// Restores a snapshot into a freshly reset driver. The scheme must
  /// support snapshots and accept the encoded state.
  void RestoreFromCheckpoint(const VolatileImage& image);

  /// GTM crash: drops QUEUE/WAIT/dead-set/stats and installs a fresh scheme
  /// instance; event and audit wiring survives. The audit ser(S) graph
  /// restarts empty — deliberately not logged: a subset of its edges can
  /// only miss cycles (none exist if the run was clean), never fabricate
  /// one.
  void ResetForRecovery(std::unique_ptr<Scheme> fresh);

  /// Deterministic structural fingerprint of the volatile state: the
  /// VolatileImage a checkpoint would hold, encoded through its field list,
  /// at any point (not only a quiescent one). The recovery oracle compares
  /// a replayed instance's fingerprint against the live one's at the same
  /// log position.
  std::vector<uint8_t> StateFingerprint() const;

 private:
  void Pump();
  /// Evaluates cond(op). kReady -> runs act + side effects and returns true.
  /// kWait -> returns false. kAbort -> handles the abort and returns true
  /// (the operation is consumed).
  bool TryProcess(const QueueOp& op);
  void RunAct(const QueueOp& op);
  void DrainWait();

  /// Audit hooks around TryProcess/RunAct; no-ops unless EnableAudit ran.
  void AuditVerdict(const QueueOp& op, Verdict verdict);
  void AuditBeforeSerRelease(GlobalTxnId txn, SiteId site);
  void AuditAfterAct(const QueueOp& op);
  /// The volatile image as it stands, quiescent or not.
  VolatileImage Image() const;

  std::unique_ptr<Scheme> scheme_;
  Callbacks callbacks_;
  const obs::EventSink* events_;
  std::deque<QueueOp> queue_;
  std::list<QueueOp> wait_;
  std::unordered_set<GlobalTxnId> dead_txns_;
  Gtm2Stats stats_;
  bool pumping_ = false;

  bool audit_enabled_ = false;
  audit::Auditor* auditor_ = nullptr;
  audit::SerGraphAudit ser_graph_;
};

// Field lists (storage/framing.h) of GTM2's part of a GTM checkpoint.
template <typename Io, storage::FieldsOf<QueueOp> R>
void Fields(Io& io, R& op) {
  io.Enum(op.kind, QueueOpKind::kInit, QueueOpKind::kFin);
  storage::Field(io, op.txn);
  storage::Field(io, op.site);
  io.Vec(op.sites);
}
template <typename Io, storage::FieldsOf<Gtm2Stats> R>
void Fields(Io& io, R& stats) {
  io.I64(stats.processed_ops);
  io.I64(stats.wait_additions);
  io.I64(stats.ser_wait_additions);
  io.I64(stats.cond_evaluations);
  io.I64(stats.failed_rescan_steps);
  io.I64(stats.scheme_aborts);
}
template <typename Io, storage::FieldsOf<Gtm2::VolatileImage> R>
void Fields(Io& io, R& image) {
  io.Vec(image.wait);
  io.Vec(image.dead_txns);
  Fields(io, image.stats);
  io.I64(image.scheme_steps);
  io.Vec(image.scheme_state);
}

/// Constructs the scheme implementation for `kind`.
std::unique_ptr<Scheme> MakeScheme(SchemeKind kind);

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_GTM2_H_
