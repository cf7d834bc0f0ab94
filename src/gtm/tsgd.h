#ifndef MDBS_GTM_TSGD_H_
#define MDBS_GTM_TSGD_H_

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "storage/framing.h"

namespace mdbs::gtm {

/// A dependency (from, s) -> (s, to): ser_s(from) is (or must be) processed
/// before ser_s(to), i.e. `from` serializes before `to` at site `s`.
struct Dependency {
  SiteId site;
  GlobalTxnId from;
  GlobalTxnId to;

  friend bool operator==(const Dependency& a, const Dependency& b) {
    return a.site == b.site && a.from == b.from && a.to == b.to;
  }
  /// As Scheme 2's checkpoint image writes it.
  template <typename Io, storage::FieldsOf<Dependency> R>
  friend void Fields(Io& io, R& dep) {
    storage::Field(io, dep.site);
    storage::Field(io, dep.from);
    storage::Field(io, dep.to);
  }
};

/// The Transaction-Site Graph with Dependencies of Scheme 2 (paper §6):
/// the bipartite TSG plus a set D of dependencies between edges incident on
/// a common site node.
///
/// Cycle semantics (§6, spelled out): a *cycle* is a simple alternating
/// node cycle G_1, s_1, G_2, ..., G_p, s_p (all transaction nodes distinct,
/// all site nodes distinct, p >= 2) together with an orientation such that
/// no junction is contradicted: traversing G_i -> s_i -> G_{i+1} is
/// permitted unless D contains the opposing dependency
/// (G_{i+1}, s_i) -> (s_i, G_i). A dependency therefore *breaks* every
/// potential serialization cycle that would order its transactions the
/// other way; with no dependencies at all, every graph cycle is a TSGD
/// cycle, degenerating to Scheme 1's TSG.
class Tsgd {
 public:
  /// Inserts `txn` with one edge per site. `txn` must be absent.
  void InsertTxn(GlobalTxnId txn, const std::vector<SiteId>& sites);

  /// Removes `txn`, its edges, and every dependency involving it.
  void RemoveTxn(GlobalTxnId txn);

  bool HasTxn(GlobalTxnId txn) const { return txns_.contains(txn); }
  const std::vector<SiteId>& SitesOf(GlobalTxnId txn) const;
  /// Transactions with an edge at `site`, in id order (deterministic).
  const std::set<GlobalTxnId>& TxnsAt(SiteId site) const;

  void AddDependency(SiteId site, GlobalTxnId from, GlobalTxnId to);
  bool HasDependency(SiteId site, GlobalTxnId from, GlobalTxnId to) const;
  /// Sources of dependencies (·, site) -> (site, txn).
  std::vector<GlobalTxnId> DependenciesInto(GlobalTxnId txn,
                                            SiteId site) const;
  bool HasDependenciesInto(GlobalTxnId txn, SiteId site) const;

  size_t TxnCount() const { return txns_.size(); }
  size_t DependencyCount() const { return dep_count_; }

  /// Transaction nodes in id order (deterministic snapshot encoding).
  std::vector<GlobalTxnId> Txns() const;
  /// Every dependency, sorted by (site, from, to). Together with Txns()/
  /// SitesOf this is the whole graph; rebuilding via InsertTxn +
  /// AddDependency restores the derived maps.
  std::vector<Dependency> AllDependencies() const;

  /// Structural self-check (audit layer): adjacency maps mirror each
  /// other, every dependency connects two transactions that both have an
  /// edge at its site, deps_into_/deps_from_ are exact mirrors, counts
  /// match, and the *directed* dependency relation (from -> to, across all
  /// sites) is acyclic — a dependency cycle would deadlock cond(ser)/
  /// cond(fin) and can only arise when Eliminate_Cycles was skipped or
  /// applied inconsistently. On a dependency cycle the witness transaction
  /// ids are reported in the status message.
  Status Validate() const;

  /// Independent checker for the cycle definition above, restricted to
  /// cycles through `txn`. Exhaustive backtracking — exponential in the
  /// worst case; used by tests and the minimality experiment (E6), never on
  /// the hot path.
  bool HasCycleInvolving(GlobalTxnId txn) const;

  /// The paper's Eliminate_Cycles (Figure 4): computes a set Δ of
  /// dependencies, each of the form (v, u) -> (u, txn), such that
  /// (V, E, D ∪ Δ) contains no cycles involving `txn`. Polynomial, but Δ
  /// need not be minimal (minimality is NP-hard, Theorem 7). The returned
  /// dependencies are NOT added to D; the caller decides.
  /// `steps`, when non-null, accumulates the pair-examinations performed.
  std::vector<Dependency> EliminateCycles(GlobalTxnId txn,
                                          int64_t* steps) const;

 private:
  bool CycleSearch(GlobalTxnId origin, GlobalTxnId current,
                   std::set<GlobalTxnId>* txns_on_path,
                   std::set<SiteId>* sites_on_path) const;

  std::unordered_map<GlobalTxnId, std::vector<SiteId>> txns_;
  std::unordered_map<SiteId, std::set<GlobalTxnId>> sites_;
  /// site -> (to -> {from}) and site -> (from -> {to}).
  std::unordered_map<SiteId, std::map<GlobalTxnId, std::set<GlobalTxnId>>>
      deps_into_;
  std::unordered_map<SiteId, std::map<GlobalTxnId, std::set<GlobalTxnId>>>
      deps_from_;
  size_t dep_count_ = 0;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_TSGD_H_
