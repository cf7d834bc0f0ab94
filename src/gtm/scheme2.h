#ifndef MDBS_GTM_SCHEME2_H_
#define MDBS_GTM_SCHEME2_H_

#include <set>
#include <utility>

#include "gtm/scheme.h"
#include "gtm/tsgd.h"

namespace mdbs::gtm {

/// Scheme 2, the transaction-site-graph-with-dependencies scheme (paper
/// §6). Dependencies record — and, for Δ from Eliminate_Cycles, prescribe —
/// the order in which ser operations are processed at each site:
///
///   act(init_i)  inserts G̃_i, adds dependencies from every already-executed
///                ser at its sites, then adds the Δ from Eliminate_Cycles so
///                the TSGD stays acyclic;
///   cond(ser)    waits until every dependency source into the operation has
///                been acked;
///   act(ser)     records dependencies towards every not-yet-executed ser at
///                the site;
///   cond(fin)    waits until no dependencies into the transaction remain
///                (its predecessors finished);
///   act(fin)     removes the transaction.
///
/// Complexity O(n^2 * dav) per transaction (Theorem 6), dominated by
/// Eliminate_Cycles; a *minimal* Δ would be NP-hard (Theorem 7).
class Scheme2 : public ConservativeSchemeBase {
 public:
  SchemeKind kind() const override { return SchemeKind::kScheme2; }
  const char* Name() const override { return "Scheme2-TSGD"; }
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

  const Tsgd& tsgd() const { return tsgd_; }

  /// When enabled, every ActInit asserts (exhaustively) that the TSGD has
  /// no cycle involving the new transaction — the Scheme 2 invariant.
  /// Exponential; tests only.
  void set_validate_acyclicity(bool value) { validate_acyclicity_ = value; }

 private:
  /// kDepDrop with the count of incoming dependencies retired with `txn`.
  void EmitDepDrop(GlobalTxnId txn, const char* why);

  bool Executed(GlobalTxnId txn, SiteId site) const {
    return executed_.contains({txn.value(), site.value()});
  }
  bool Acked(GlobalTxnId txn, SiteId site) const {
    return acked_.contains({txn.value(), site.value()});
  }

  Tsgd tsgd_;
  std::set<std::pair<int64_t, int64_t>> executed_;
  std::set<std::pair<int64_t, int64_t>> acked_;
  bool validate_acyclicity_ = false;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_SCHEME2_H_
