#ifndef MDBS_SITE_LOCAL_DBMS_H_
#define MDBS_SITE_LOCAL_DBMS_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/types.h"
#include "lcc/protocol.h"
#include "obs/event_sink.h"
#include "sim/task_runner.h"
#include "storage/kv_store.h"
#include "storage/log_device.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace mdbs::site {

/// Static description of one local DBMS.
struct SiteConfig {
  SiteId id;
  lcc::ProtocolKind protocol = lcc::ProtocolKind::kTwoPhaseLocking;
  /// Virtual service time charged per data operation.
  sim::Time op_service_time = 10;
  /// Virtual service time charged per commit/abort.
  sim::Time commit_service_time = 20;
  /// Durability. With `durable` set the site keeps a write-ahead log (every
  /// commit is logged before its ack leaves the site) plus periodic fuzzy
  /// checkpoints; Crash() then honestly wipes the volatile store and
  /// Recover() replays the log. Without it, crashes keep the legacy model:
  /// the in-memory store doubles as stable storage.
  bool durable = false;
  /// Non-checkpoint log records between fuzzy checkpoints (0 = never).
  /// Count-based so both engines checkpoint at identical log positions.
  int64_t checkpoint_interval = 256;
  /// Modeled replay latency: recovery holds the site down for
  /// `recovery_base_time + recovery_time_per_record * replayed records`.
  /// Zero (the default) makes a durable run byte-identical to a
  /// non-durable run of the same seed — the chaos tests' differential
  /// oracle — while non-zero values make recovery time vs checkpoint
  /// interval measurable (EXPERIMENTS E13).
  sim::Time recovery_base_time = 0;
  sim::Time recovery_time_per_record = 0;
  /// The log's backing device; defaults to a fresh in-memory device. A
  /// FileLogDevice persists across process restarts (mdbsim --wal_dir=).
  std::shared_ptr<storage::LogDevice> wal_device;
  /// When to force the device to stable storage (mdbsim --wal_fsync=).
  storage::WalSyncConfig wal_sync;
};

/// Per-site durability counters, summed into the driver report.
struct SiteDurabilityStats {
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t checkpoints = 0;
  int64_t recoveries = 0;
  int64_t replay_records = 0;
  int64_t replay_bytes = 0;
  int64_t redo_writes = 0;
  int64_t undone_writes = 0;
  /// Modeled ticks spent replaying, summed over recoveries.
  int64_t recovery_ticks = 0;
  /// Sync barriers forced by the flush policy (`--wal_fsync=`).
  int64_t wal_syncs = 0;
};

/// A pre-existing, autonomous local DBMS: storage plus one concurrency
/// control protocol, executing operations asynchronously on the simulation
/// event loop. It does not distinguish local transactions from global
/// subtransactions (paper §2.1) — `GlobalTxnId` is threaded through solely
/// for the verification recorder, which reads it from kSiteBegin.
///
/// Interface contract (one operation in flight per transaction):
///   Begin -> Submit* -> Commit | Abort
/// Each Submit/Commit answers exactly once through its callback, possibly
/// after blocking delays, with OK or TransactionAborted.
class LocalDbms : public lcc::ProtocolHost {
 public:
  /// Callback for a data operation: status plus the value observed (reads)
  /// or installed (writes).
  using OpCallback = std::function<void(const Status&, int64_t value)>;
  using TxnCallback = std::function<void(const Status&)>;

  /// `loop` is this site's strand: the simulation loop, or — in threaded
  /// mode — the site's own RealStrand. All state-touching work runs there;
  /// Submit/Commit/Abort only post to it and are safe from any thread.
  /// Site lifecycle events (begin/commit/abort, executed reads and writes,
  /// blocked operations, crashes, recovery) and the protocol's lock-wait /
  /// wound / validation events go to `events`, which must outlive the site.
  /// The schedule recorder reads begins, finishes and data operations from
  /// there.
  LocalDbms(const SiteConfig& config, sim::TaskRunner* loop,
            const obs::EventSink& events = obs::kNoEvents);
  ~LocalDbms() override = default;

  LocalDbms(const LocalDbms&) = delete;
  LocalDbms& operator=(const LocalDbms&) = delete;

  SiteId id() const { return config_.id; }
  lcc::ProtocolKind protocol_kind() const { return config_.protocol; }
  const lcc::ConcurrencyControl& protocol() const { return *protocol_; }

  /// Forwards invariant auditing to the protocol (no-op for protocols
  /// without an audit surface). Remembered so a protocol instance rebuilt
  /// by durable recovery is re-audited. A durable site with an auditor also
  /// checks every checkpoint image against one built from scratch
  /// (`checkpoint-image`).
  void EnableAudit(audit::Auditor* auditor) {
    auditor_ = auditor;
    protocol_->EnableAudit(auditor);
  }

  /// Starts a transaction. `global` is invalid for purely local ones.
  Status Begin(TxnId txn, GlobalTxnId global);

  /// Submits one data operation. The callback fires through the event loop
  /// after at least `op_service_time`, later if the protocol blocks it.
  void Submit(TxnId txn, const DataOp& op, OpCallback cb);

  /// Requests commit; the protocol may still reject (OCC validation).
  void Commit(TxnId txn, TxnCallback cb);

  /// Client-initiated abort; always succeeds.
  void Abort(TxnId txn, TxnCallback cb);

  /// Crashes the site: every active transaction aborts, and until Recover()
  /// all requests are refused with TransactionAborted. Non-durable sites
  /// roll back in-place writes and keep committed state (the in-memory
  /// store doubles as stable storage); durable sites lose ALL volatile
  /// state — store, protocol, transaction table — keeping only the log.
  /// Models the failure mode the paper defers to future work.
  void Crash();
  /// Brings the site back. Durable sites replay the log first (ARIES-style
  /// analysis/redo/undo, see storage::RecoverWal), stay down for the
  /// modeled replay time, and resume with committed data intact and the
  /// protocol clock fast-forwarded past every pre-crash serialization key.
  void Recover();
  bool IsDown() const { return down_; }
  int64_t crash_count() const { return crash_count_; }

  bool durable() const { return config_.durable; }
  SiteDurabilityStats durability_stats() const {
    SiteDurabilityStats stats = durability_stats_;
    if (wal_ != nullptr) {
      stats.wal_records = wal_->records_written();
      stats.wal_bytes = wal_->bytes_written();
      stats.wal_syncs = wal_->syncs();
    }
    return stats;
  }
  /// The log's backing device (null when not durable); tests snapshot,
  /// truncate and corrupt it.
  storage::LogDevice* wal_device() { return wal_device_.get(); }

  /// True while `txn` is active (begun, not finished).
  bool IsActive(TxnId txn) const { return txns_.contains(txn); }

  /// Direct store access for test setup and invariant checks; bypasses
  /// concurrency control, so only use it while the site is quiescent.
  int64_t UnsafePeek(DataItemId item) const { return store_.Get(item); }
  void UnsafePoke(DataItemId item, int64_t value) {
    store_.Put(item, value);
    TouchImage(item);
  }

  // ProtocolHost:
  void ResumeTransaction(TxnId txn) override;
  void AbortTransaction(TxnId txn, const std::string& reason) override;

  /// Counters: blocked operation instances, protocol-initiated aborts.
  int64_t blocked_count() const { return blocked_count_; }
  int64_t abort_count() const { return abort_count_; }

 private:
  struct TxnState {
    GlobalTxnId global;
    /// Blocked operation awaiting resume, if any.
    std::optional<DataOp> pending_op;
    OpCallback pending_cb;
    bool resume_scheduled = false;
    /// Undo log for in-place protocols (item, before-image) in apply order.
    std::vector<std::pair<DataItemId, int64_t>> undo_log;
    /// Deferred-write buffer (OCC/MVTO): last value per item + apply order.
    std::unordered_map<DataItemId, int64_t> write_buffer;
    std::vector<DataItemId> write_order;
  };

  void ProcessOp(TxnId txn, const DataOp& op, OpCallback cb);
  void ProcessCommit(TxnId txn, TxnCallback cb);

  /// Applies the operation (visibility per protocol), records it, and
  /// returns the value read/written.
  int64_t ApplyOp(TxnId txn, TxnState* state, const DataOp& op);

  /// Rolls back and finishes the transaction as aborted.
  void DoAbort(TxnId txn, TxnState* state);

  /// Appends a fuzzy checkpoint when `checkpoint_interval` non-checkpoint
  /// records accumulated since the last one. No-op when not durable.
  void MaybeCheckpoint();

  /// True when this site takes checkpoints, and so keeps `image_` current.
  bool KeepsImage() const {
    return wal_ != nullptr && config_.checkpoint_interval > 0;
  }
  /// Marks `item`'s checkpoint entries for refresh at the next checkpoint.
  /// Called wherever the store, the writer map or the mv tables change.
  void TouchImage(DataItemId item) {
    if (KeepsImage()) dirty_items_.push_back(item.value());
  }
  /// Drops `image_` and marks every live item and commit dirty, so the next
  /// checkpoint rebuilds it through the same refresh (crash, replay).
  void MarkImageStale();
  /// Brings `image_` up to date: re-reads the touched items from the live
  /// tables and merges in the commits since the last checkpoint.
  void RefreshImage();
  /// The tables `image_` mirrors, built from scratch out of the live ones —
  /// the audit oracle for RefreshImage, never written to the log.
  storage::CheckpointImage BuildImageFromScratch() const;
  /// Reports a `checkpoint-image` violation when `image` differs from
  /// BuildImageFromScratch().
  void AuditCheckpointImage(const storage::CheckpointImage& image);

  /// Durable restart: replays the log, reinstalls the store / writer map /
  /// mv images, rebuilds the protocol with its clock fast-forwarded, and
  /// reseeds multiversion versions. Returns the replay result for the
  /// caller's trace/delay handling. Crashes the process on log corruption —
  /// a durable site cannot silently diverge.
  storage::RecoveredState ReplayAndInstall();

  SiteConfig config_;
  sim::TaskRunner* loop_;
  const obs::EventSink& events_;
  audit::Auditor* auditor_ = nullptr;
  storage::KvStore store_;
  std::unique_ptr<lcc::ConcurrencyControl> protocol_;
  std::unordered_map<TxnId, TxnState> txns_;
  /// Every transaction committed here. Makes Commit idempotent: the durable
  /// GTM forward-rolls its commit fan-out after its own crash, so a site can
  /// legitimately see Commit twice for one sub-transaction. Persisted in
  /// checkpoints and rebuilt by replay on durable sites; survives a
  /// non-durable crash like the store does.
  std::unordered_set<TxnId> committed_txns_;
  /// Multiversion sites: value an item had before its first committed
  /// write — the "initial version" readers with very old timestamps must
  /// observe after the store has moved on.
  std::unordered_map<DataItemId, int64_t> mv_initial_images_;
  /// Durable mode: last committed writer per item, persisted in checkpoints
  /// and rebuilt by replay (reseeds multiversion protocols on recovery).
  std::unordered_map<DataItemId, TxnId> last_writer_;
  struct MvLatest {
    int64_t wts = 0;
    TxnId writer;
    int64_t value = 0;
  };
  /// Durable multiversion sites: latest committed version per item in
  /// TIMESTAMP order, which commit order (`store_`, `last_writer_`) can
  /// disagree with when a lower-timestamped writer commits later. The
  /// protocol's readers are reseeded from this table on recovery; seeding
  /// the commit-order value would serve a version the pre-crash site never
  /// did and break serializability.
  std::unordered_map<DataItemId, MvLatest> mv_latest_;
  /// Sites that checkpoint: the sorted committed / items / mv_initial /
  /// mv_latest tables of the last checkpoint, so the next one costs what
  /// changed since. `active` is rebuilt at every checkpoint.
  storage::CheckpointImage image_;
  /// Items touched since the last checkpoint (repeats allowed) and the
  /// transactions committed since then. Empty unless KeepsImage().
  std::vector<int64_t> dirty_items_;
  std::vector<int64_t> new_committed_;
  std::shared_ptr<storage::LogDevice> wal_device_;
  std::unique_ptr<storage::WalWriter> wal_;
  SiteDurabilityStats durability_stats_;
  bool down_ = false;
  int64_t crash_count_ = 0;
  int64_t blocked_count_ = 0;
  int64_t abort_count_ = 0;
};

/// Factory for the protocol implementations in src/lcc; their events go
/// to `events`, labeled with `site`.
std::unique_ptr<lcc::ConcurrencyControl> MakeProtocol(
    lcc::ProtocolKind kind, lcc::ProtocolHost* host,
    const obs::EventSink& events, SiteId site);

}  // namespace mdbs::site

#endif  // MDBS_SITE_LOCAL_DBMS_H_
