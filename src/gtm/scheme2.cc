#include "gtm/scheme2.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"

namespace mdbs::gtm {

void Scheme2::ActInit(const QueueOp& op) {
  tsgd_.InsertTxn(op.txn, op.sites);
  // Dependencies from every already-executed ser operation at each site:
  // those transactions are serialized before G̃_i there.
  for (SiteId site : op.sites) {
    for (GlobalTxnId other : tsgd_.TxnsAt(site)) {
      AddSteps(1);
      if (other == op.txn) continue;
      if (Executed(other, site)) {
        tsgd_.AddDependency(site, other, op.txn);
        events_->Emit({.kind = obs::TraceEventKind::kDepAdd,
                       .txn = op.txn.value(), .site = site.value(),
                       .a = other.value(), .b = op.txn.value(),
                       .detail = "executed"});
      }
    }
  }
  // Δ from Eliminate_Cycles breaks every remaining potential cycle through
  // G̃_i. A single pass suffices (Figure 4); the fixpoint loop guards the
  // invariant even for adversarial interleavings.
  for (int pass = 0; pass < 64; ++pass) {
    int64_t steps = 0;
    std::vector<Dependency> delta = tsgd_.EliminateCycles(op.txn, &steps);
    AddSteps(steps);
    if (delta.empty()) break;
    for (const Dependency& dep : delta) {
      tsgd_.AddDependency(dep.site, dep.from, dep.to);
      events_->Emit({.kind = obs::TraceEventKind::kDepAdd,
                     .txn = op.txn.value(), .site = dep.site.value(),
                     .a = dep.from.value(), .b = dep.to.value(),
                     .detail = "delta"});
    }
  }
  if (validate_acyclicity_) {
    MDBS_CHECK(!tsgd_.HasCycleInvolving(op.txn))
        << "TSGD cycle involving " << op.txn << " survived Eliminate_Cycles";
  }
}

Status Scheme2::CheckStructuralInvariants() const {
  MDBS_RETURN_IF_ERROR(tsgd_.Validate());
  // Executed/acked markers refer to live (txn, site) edges, and an acked
  // ser was necessarily executed first.
  for (const auto& [marker, name] :
       {std::pair{&executed_, "executed"}, std::pair{&acked_, "acked"}}) {
    for (const auto& [txn_value, site_value] : *marker) {
      GlobalTxnId txn(txn_value);
      SiteId site(site_value);
      const std::vector<SiteId>& sites = tsgd_.SitesOf(txn);
      if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
        return Status::Internal("Scheme2: stale " + std::string(name) +
                                " marker (" + ToString(txn) + ", " +
                                ToString(site) + ")");
      }
    }
  }
  for (const auto& pair : acked_) {
    if (!executed_.contains(pair)) {
      return Status::Internal(
          "Scheme2: (" + ToString(GlobalTxnId(pair.first)) + ", " +
          ToString(SiteId(pair.second)) + ") acked but never executed");
    }
  }
  return Status::OK();
}

Status Scheme2::AuditSerRelease(GlobalTxnId txn, SiteId site) const {
  if (!tsgd_.HasTxn(txn)) {
    return Status::Internal("Scheme2: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released for unknown txn");
  }
  for (GlobalTxnId source : tsgd_.DependenciesInto(txn, site)) {
    if (!Acked(source, site)) {
      return Status::Internal(
          "Scheme2: ser(" + ToString(txn) + "@" + ToString(site) +
          ") released before its dependency source " + ToString(source) +
          " was acked");
    }
  }
  return Status::OK();
}

Verdict Scheme2::CondSer(GlobalTxnId txn, SiteId site) {
  for (GlobalTxnId source : tsgd_.DependenciesInto(txn, site)) {
    AddSteps(1);
    if (!Acked(source, site)) return Verdict::kWait;
  }
  return Verdict::kReady;
}

void Scheme2::ActSer(GlobalTxnId txn, SiteId site) {
  executed_.insert({txn.value(), site.value()});
  // The execution order is now fixed: G̃_i precedes every ser operation at
  // this site that has not executed yet.
  for (GlobalTxnId other : tsgd_.TxnsAt(site)) {
    AddSteps(1);
    if (other == txn || Executed(other, site)) continue;
    tsgd_.AddDependency(site, txn, other);
    events_->Emit({.kind = obs::TraceEventKind::kDepAdd, .txn = txn.value(),
                   .site = site.value(), .a = txn.value(), .b = other.value(),
                   .detail = "order"});
  }
}

void Scheme2::ActAck(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  acked_.insert({txn.value(), site.value()});
}

Verdict Scheme2::CondFin(GlobalTxnId txn) {
  for (SiteId site : tsgd_.SitesOf(txn)) {
    AddSteps(1);
    if (tsgd_.HasDependenciesInto(txn, site)) return Verdict::kWait;
  }
  return Verdict::kReady;
}

void Scheme2::ActFin(GlobalTxnId txn) {
  for (SiteId site : tsgd_.SitesOf(txn)) {
    AddSteps(1);
    executed_.erase({txn.value(), site.value()});
    acked_.erase({txn.value(), site.value()});
  }
  EmitDepDrop(txn, "fin");
  tsgd_.RemoveTxn(txn);
}

void Scheme2::ActAbortCleanup(GlobalTxnId txn) {
  for (SiteId site : tsgd_.SitesOf(txn)) {
    executed_.erase({txn.value(), site.value()});
    acked_.erase({txn.value(), site.value()});
  }
  EmitDepDrop(txn, "abort");
  tsgd_.RemoveTxn(txn);
}

void Scheme2::EmitDepDrop(GlobalTxnId txn, const char* why) {
  if (!events_->Wants(obs::TraceEventKind::kDepDrop)) return;
  int64_t incoming = 0;
  for (SiteId site : tsgd_.SitesOf(txn)) {
    incoming += static_cast<int64_t>(tsgd_.DependenciesInto(txn, site).size());
  }
  events_->Emit({.kind = obs::TraceEventKind::kDepDrop, .txn = txn.value(),
                 .a = incoming, .detail = why});
}

namespace {

/// Scheme 2's DS as a checkpoint writes it: the TSGD (each transaction's
/// sites, then every dependency; the derived maps rebuild) and the
/// executed and acked (txn, site) markers.
struct Scheme2Image {
  TxnRows tsgd;
  std::vector<Dependency> dependencies;
  std::set<std::pair<int64_t, int64_t>> executed;
  std::set<std::pair<int64_t, int64_t>> acked;
};

template <typename Io, storage::FieldsOf<Scheme2Image> R>
void Fields(Io& io, R& image) {
  io.Vec(image.tsgd);
  io.Vec(image.dependencies);
  io.Vec(image.executed);
  io.Vec(image.acked);
}

}  // namespace

void Scheme2::EncodeState(std::vector<uint8_t>* out) const {
  *out = storage::EncodeFields(Scheme2Image{
      SortedTxnRows(tsgd_), tsgd_.AllDependencies(), executed_, acked_});
}

bool Scheme2::DecodeState(const uint8_t* data, size_t size) {
  Scheme2Image image;
  if (!storage::DecodeFields(data, size, &image) ||
      !RestoreTxnRows(image.tsgd, &tsgd_)) {
    return false;
  }
  for (const Dependency& dep : image.dependencies) {
    if (dep.from == dep.to) return false;
    tsgd_.AddDependency(dep.site, dep.from, dep.to);
  }
  executed_ = std::move(image.executed);
  acked_ = std::move(image.acked);
  return true;
}

}  // namespace mdbs::gtm
