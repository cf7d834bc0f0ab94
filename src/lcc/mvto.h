#ifndef MDBS_LCC_MVTO_H_
#define MDBS_LCC_MVTO_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "lcc/protocol.h"

namespace mdbs::lcc {

/// Multiversion timestamp ordering (MVTO). Transactions get a timestamp at
/// begin; writes create new versions tagged with the writer's timestamp,
/// and a read by T observes the newest version with wts <= ts(T). A write
/// is rejected (abort) when a younger transaction already read the version
/// it would overwrite; reads of uncommitted versions wait for the writer
/// to finish (recoverability), which can never deadlock because waits
/// always point from younger readers to strictly older writers.
///
/// MVTO guarantees one-copy serializability in timestamp order, so — like
/// single-version TO — the begin operation is a serialization function for
/// MVTO sites (paper §2.2). Local schedules are *not* single-version
/// conflict serializable in general (old-version reads execute "late");
/// the verification layer checks MVTO sites with the multiversion
/// serialization graph instead.
///
/// The protocol goes beyond the paper's protocol list and demonstrates
/// that the serialization-function framework extends to multiversion
/// local DBMSs unchanged.
class MultiversionTimestampOrdering : public ConcurrencyControl {
 public:
  explicit MultiversionTimestampOrdering(ProtocolHost* host) : host_(host) {}

  ProtocolKind kind() const override { return ProtocolKind::kMultiversionTO; }
  const char* Name() const override { return "MVTO"; }

  void OnBegin(TxnId txn) override;
  AccessDecision OnAccess(TxnId txn, const DataOp& op) override;
  void OnAccessApplied(TxnId txn, const DataOp& op) override;
  AccessDecision OnValidate(TxnId txn) override;
  void OnFinish(TxnId txn, TxnOutcome outcome) override;

  bool WritesInPlace() const override { return false; }
  bool IsMultiversion() const override { return true; }
  std::optional<ResolvedRead> ResolveRead(TxnId txn,
                                          DataItemId item) override;

  std::optional<int64_t> SerializationKey(TxnId txn) const override;

  int64_t DurableClock() const override { return next_ts_; }
  void RecoverClock(int64_t clock) override {
    next_ts_ = std::max(next_ts_, clock);
  }
  /// Reinstates the latest committed version of `item` as of the crash,
  /// tagged wts = next_ts_ - 1 so every post-recovery reader (ts >=
  /// next_ts_) observes it — and records the right reads-from writer for
  /// the multiversion serialization graph. Called once per item, before
  /// any post-recovery transaction begins.
  void RecoverCommittedVersion(DataItemId item, int64_t value,
                               TxnId writer) override;

  /// Total retained versions across items (tests/GC).
  size_t VersionCount() const;

 private:
  struct Version {
    int64_t wts = 0;
    TxnId writer;
    int64_t value = 0;
    bool committed = false;
    int64_t max_rts = -1;
  };
  struct ItemState {
    /// Sorted ascending by wts; wts are unique (one per writer timestamp).
    std::vector<Version> versions;
    /// Max timestamp that read the (implicit) initial version.
    int64_t initial_max_rts = -1;
    /// Readers blocked on an uncommitted version, in arrival order; a
    /// vector because an empty one allocates nothing (see
    /// TimestampOrdering::ItemMeta::waiters).
    std::vector<TxnId> waiters;
  };

  /// Index of the newest version with wts <= ts, or -1 for the initial one.
  static int FindVersion(const ItemState& state, int64_t ts);

  void WakeWaiters(ItemState* state);
  void CollectGarbage();

  ProtocolHost* host_;
  int64_t next_ts_ = 0;
  std::unordered_map<TxnId, int64_t> ts_;
  std::unordered_map<TxnId, std::vector<DataItemId>> written_;
  std::unordered_map<DataItemId, ItemState> items_;
  std::unordered_map<TxnId, int64_t> active_;  // txn -> ts, for GC.
  int64_t finishes_since_gc_ = 0;
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_MVTO_H_
