#ifndef MDBS_SCHED_SCHEDULE_H_
#define MDBS_SCHED_SCHEDULE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/types.h"

namespace mdbs::sched {

/// One data operation as it executed at a local DBMS. `seq` is the site's
/// local total order <_Sk of the paper; it shares its counter with the
/// site's TxnRecord::finish_seq.
struct RecordedOp {
  int64_t seq = 0;
  int64_t time = 0;  // Time of execution.
  TxnId txn;
  DataOp op;
  /// For versioned reads at multiversion sites: the transaction whose
  /// version was observed (invalid = the initial version / not versioned).
  TxnId read_from;

  std::string ToString() const;
};

/// Per-transaction bookkeeping captured by the recorder.
struct TxnRecord {
  TxnId txn;
  /// Parent global transaction for subtransactions; invalid for purely local
  /// transactions.
  GlobalTxnId global;
  TxnOutcome outcome = TxnOutcome::kActive;
  /// The local protocol's serialization key at finish, when defined.
  std::optional<int64_t> serialization_key;
  /// Position of the commit/abort in the site's sequence (shares the
  /// counter with RecordedOp::seq); -1 while active. Lets the strictness
  /// checker order finishes against data operations.
  int64_t finish_seq = -1;
};

/// One site's local schedule S_k (paper §2.1): the operations executed at
/// the site in local order, and the transactions that ran there. Written
/// only by the site's own strand, so it takes no lock.
class SiteSchedule {
 public:
  explicit SiteSchedule(SiteId site) : site_(site) {}

  void RecordBegin(TxnId txn, GlobalTxnId global);
  void RecordOp(TxnId txn, const DataOp& op, int64_t time,
                TxnId read_from = TxnId());
  void RecordFinish(TxnId txn, TxnOutcome outcome,
                    std::optional<int64_t> serialization_key);

  SiteId site() const { return site_; }
  const std::vector<RecordedOp>& ops() const { return ops_; }
  const std::unordered_map<TxnId, TxnRecord>& txns() const { return txns_; }

  /// Record for `txn`; nullptr when it did not run here.
  const TxnRecord* FindTxn(TxnId txn) const;

 private:
  SiteId site_;
  int64_t next_seq_ = 0;
  std::vector<RecordedOp> ops_;
  std::unordered_map<TxnId, TxnRecord> txns_;
};

/// Captures the global schedule S as one local schedule per site: every
/// executed data operation plus transaction begin/finish outcomes. The
/// verification layer replays it to check local, global, and ser(S)
/// serializability. Purely observational — it subscribes to the event
/// stream (obs::EventSink) and never influences execution.
///
/// The shards are built with the recorder, before any site runs, and each
/// is written only by its site's strand; the map itself never changes. Read
/// the shards only after the run settled (Mdbs::FinishThreadedRun in
/// threaded mode).
class ScheduleRecorder {
 public:
  explicit ScheduleRecorder(const std::vector<SiteId>& sites = {});

  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  /// The local schedule of `site`, which must be one the recorder was
  /// built with.
  SiteSchedule& site(SiteId site);
  const SiteSchedule& site(SiteId site) const;
  const std::map<SiteId, SiteSchedule>& sites() const { return sites_; }

  /// Number of committed / aborted transactions over all sites.
  int64_t CommittedCount() const;
  int64_t AbortedCount() const;

  /// Human-readable dump of the first `limit` operations of each site.
  std::string Dump(size_t limit = 200) const;

 private:
  int64_t CountOutcome(TxnOutcome outcome) const;

  std::map<SiteId, SiteSchedule> sites_;
};

}  // namespace mdbs::sched

#endif  // MDBS_SCHED_SCHEDULE_H_
