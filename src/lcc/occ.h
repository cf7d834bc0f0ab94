#ifndef MDBS_LCC_OCC_H_
#define MDBS_LCC_OCC_H_

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lcc/protocol.h"
#include "obs/event_sink.h"

namespace mdbs::lcc {

/// Backward-validation optimistic concurrency control (BOCC). Reads execute
/// against the committed store, writes are buffered by the host
/// (WritesInPlace() == false) and installed atomically after validation. A
/// transaction validates against every transaction that committed during its
/// lifetime: any overlap between its read set and their write sets aborts it.
///
/// The local serialization order equals the commit-number order, but the
/// commit number is only known at commit — there is no *operation* of the
/// transaction usable as a serialization function a priori, so OCC sites use
/// tickets in the MDBS (§2.2), like SGT sites.
class OptimisticConcurrencyControl : public ConcurrencyControl {
 public:
  /// Validation failures go to `events`, labeled with `site`.
  explicit OptimisticConcurrencyControl(
      const obs::EventSink& events = obs::kNoEvents, SiteId site = SiteId())
      : events_(events), site_(site) {}

  ProtocolKind kind() const override { return ProtocolKind::kOptimistic; }
  const char* Name() const override { return "BOCC"; }

  void OnBegin(TxnId txn) override;
  AccessDecision OnAccess(TxnId txn, const DataOp& op) override;
  void OnAccessApplied(TxnId txn, const DataOp& op) override;
  AccessDecision OnValidate(TxnId txn) override;
  void OnFinish(TxnId txn, TxnOutcome outcome) override;

  bool WritesInPlace() const override { return false; }

  std::optional<int64_t> SerializationKey(TxnId txn) const override;

  /// Commit numbers are the serialization keys; recovered transactions must
  /// start (and commit) past every pre-crash number. The committed log
  /// restarting empty is safe: no pre-crash committed write set can overlap
  /// a post-recovery read set's lifetime.
  int64_t DurableClock() const override { return commit_counter_; }
  void RecoverClock(int64_t clock) override {
    commit_counter_ = std::max(commit_counter_, clock);
  }

  /// Validation-log length (tests/GC).
  size_t LogSize() const { return committed_log_.size(); }

 private:
  struct ActiveTxn {
    int64_t start_cn = 0;
    std::unordered_set<DataItemId> read_set;
    std::unordered_set<DataItemId> write_set;
  };
  struct CommittedEntry {
    int64_t cn = 0;
    std::vector<DataItemId> write_set;
  };

  void CollectGarbage();

  const obs::EventSink& events_;
  SiteId site_;
  int64_t commit_counter_ = 0;
  std::unordered_map<TxnId, ActiveTxn> active_;
  std::deque<CommittedEntry> committed_log_;
  std::unordered_map<TxnId, int64_t> commit_number_;
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_OCC_H_
