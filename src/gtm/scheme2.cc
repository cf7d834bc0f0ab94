#include "gtm/scheme2.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "storage/framing.h"

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


void Scheme2::EncodeState(std::vector<uint8_t>* out) const {
  std::vector<GlobalTxnId> txns = tsgd_.Txns();
  storage::PutU32(out, static_cast<uint32_t>(txns.size()));
  for (GlobalTxnId txn : txns) {
    storage::PutI64(out, txn.value());
    const std::vector<SiteId>& txn_sites = tsgd_.SitesOf(txn);
    storage::PutU32(out, static_cast<uint32_t>(txn_sites.size()));
    for (SiteId site : txn_sites) storage::PutI64(out, site.value());
  }
  std::vector<Dependency> deps = tsgd_.AllDependencies();
  storage::PutU32(out, static_cast<uint32_t>(deps.size()));
  for (const Dependency& dep : deps) {
    storage::PutI64(out, dep.site.value());
    storage::PutI64(out, dep.from.value());
    storage::PutI64(out, dep.to.value());
  }
  storage::PutU32(out, static_cast<uint32_t>(executed_.size()));
  for (const auto& [txn, site] : executed_) {
    storage::PutI64(out, txn);
    storage::PutI64(out, site);
  }
  storage::PutU32(out, static_cast<uint32_t>(acked_.size()));
  for (const auto& [txn, site] : acked_) {
    storage::PutI64(out, txn);
    storage::PutI64(out, site);
  }
}

bool Scheme2::DecodeState(const uint8_t* data, size_t size) {
  storage::Cursor c(data, size);
  tsgd_ = Tsgd();
  executed_.clear();
  acked_.clear();
  uint32_t n_txns = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_txns && c.ok(); ++i) {
    GlobalTxnId txn(c.I64());
    uint32_t n_sites = c.U32();
    if (!c.ok()) return false;
    std::vector<SiteId> txn_sites;
    txn_sites.reserve(n_sites);
    for (uint32_t j = 0; j < n_sites && c.ok(); ++j) {
      txn_sites.push_back(SiteId(c.I64()));
    }
    if (!c.ok()) return false;
    tsgd_.InsertTxn(txn, txn_sites);
  }
  uint32_t n_deps = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_deps && c.ok(); ++i) {
    SiteId site(c.I64());
    GlobalTxnId from(c.I64());
    GlobalTxnId to(c.I64());
    if (!c.ok()) return false;
    tsgd_.AddDependency(site, from, to);
  }
  uint32_t n_executed = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_executed && c.ok(); ++i) {
    int64_t txn = c.I64();
    int64_t site = c.I64();
    executed_.insert({txn, site});
  }
  uint32_t n_acked = c.U32();
  if (!c.ok()) return false;
  for (uint32_t i = 0; i < n_acked && c.ok(); ++i) {
    int64_t txn = c.I64();
    int64_t site = c.I64();
    acked_.insert({txn, site});
  }
  return c.ok() && c.exhausted();
}

}  // namespace mdbs::gtm
