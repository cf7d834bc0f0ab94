#ifndef MDBS_GTM_SCHEME1_H_
#define MDBS_GTM_SCHEME1_H_

#include <deque>
#include <optional>
#include <unordered_map>

#include "gtm/scheme.h"
#include "gtm/tsg.h"

namespace mdbs::gtm {

/// Scheme 1, the transaction-site graph scheme (paper §5). A BT-scheme:
/// when init_i is processed, every edge (G̃_i, s_k) that lies on a TSG cycle
/// gets its ser operation *marked*; marked operations may execute only at
/// the front of their site's insert queue, so potentially-conflicting
/// transactions serialize in init order at each shared site, while
/// unmarked operations run unconstrained. Acked operations move to a
/// per-site delete queue; fin_i waits until the transaction heads every one
/// of its delete queues, which keeps removals consistent with the
/// serialization order. Complexity O(m + n + n*dav) per transaction
/// (Theorem 4), dominated by cycle detection.
class Scheme1 : public ConservativeSchemeBase {
 public:
  /// `mark_all` is an ablation switch: mark *every* operation regardless of
  /// TSG cycles, degenerating to per-site init-order FIFO (≈ Scheme 0 with
  /// TSG bookkeeping). Quantifies what the cycle test buys (bench E8).
  explicit Scheme1(bool mark_all = false) : mark_all_(mark_all) {}

  SchemeKind kind() const override { return SchemeKind::kScheme1; }
  const char* Name() const override {
    return mark_all_ ? "Scheme1-markall" : "Scheme1-TSG";
  }
  bool IsConservative() const override { return true; }

  Status CheckStructuralInvariants() const override;
  Status AuditSerRelease(GlobalTxnId txn, SiteId site) const override;

  bool SupportsSnapshot() const override { return true; }
  void EncodeState(std::vector<uint8_t>* out) const override;
  bool DecodeState(const uint8_t* data, size_t size) override;

  void ActInit(const QueueOp& op) override;
  Verdict CondSer(GlobalTxnId txn, SiteId site) override;
  void ActSer(GlobalTxnId txn, SiteId site) override;
  void ActAck(GlobalTxnId txn, SiteId site) override;
  Verdict CondFin(GlobalTxnId txn) override;
  void ActFin(GlobalTxnId txn) override;
  void ActAbortCleanup(GlobalTxnId txn) override;

  const TransactionSiteGraph& tsg() const { return tsg_; }

  /// True when ser(txn@site) was marked at init (tests).
  bool IsMarked(GlobalTxnId txn, SiteId site) const;

 private:
  // The field lists (storage/framing.h) are those of the checkpoint image.
  struct InsertEntry {
    GlobalTxnId txn;
    bool marked = false;

    template <typename Io, storage::FieldsOf<InsertEntry> R>
    friend void Fields(Io& io, R& entry) {
      storage::Field(io, entry.txn);
      io.Bool(entry.marked);
    }
  };
  struct SiteState {
    std::deque<InsertEntry> insert_queue;
    std::deque<GlobalTxnId> delete_queue;
    /// Ser operation executed but not yet acked, if any.
    std::optional<GlobalTxnId> executing;

    template <typename Io, storage::FieldsOf<SiteState> R>
    friend void Fields(Io& io, R& state) {
      io.Vec(state.insert_queue);
      io.Vec(state.delete_queue);
      io.Optional(state.executing);
    }
  };
  /// DS as a checkpoint writes it (scheme1.cc).
  struct Image;

  SiteState& StateOf(SiteId site) { return sites_[site]; }

  bool mark_all_;
  TransactionSiteGraph tsg_;
  std::unordered_map<SiteId, SiteState> sites_;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_SCHEME1_H_
