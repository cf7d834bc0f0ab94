#include "gtm/scheme3.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace mdbs::gtm {

void Scheme3::ActInit(const QueueOp& op) {
  MDBS_CHECK(!sites_.contains(op.txn)) << op.txn << " init twice";
  sites_[op.txn] = op.sites;
  std::set<GlobalTxnId>& sb = ser_bef_[op.txn];
  for (SiteId site : op.sites) {
    pending_[site].insert(op.txn);
    AddSteps(1);
    auto hist_it = released_live_.find(site);
    if (hist_it == released_live_.end() || hist_it->second.empty()) continue;
    GlobalTxnId last = hist_it->second.back();
    const std::set<GlobalTxnId>& last_sb = ser_bef_.at(last);
    sb.insert(last_sb.begin(), last_sb.end());
    sb.insert(last);
    AddSteps(static_cast<int64_t>(last_sb.size()) + 1);
  }
  events_->Emit({.kind = obs::TraceEventKind::kSerBefSeed,
                 .txn = op.txn.value(), .a = static_cast<int64_t>(sb.size())});
}

Status Scheme3::CheckStructuralInvariants() const {
  if (ser_bef_.size() != sites_.size()) {
    return Status::Internal(
        "Scheme3: ser_bef tracks " + std::to_string(ser_bef_.size()) +
        " txns but sites tracks " + std::to_string(sites_.size()));
  }
  for (const auto& [txn, sb] : ser_bef_) {
    // Irreflexivity: nothing serializes before itself (Theorem 8's working
    // invariant; ActSer also asserts it at the insertion point).
    if (sb.contains(txn)) {
      return Status::Internal("Scheme3: " + ToString(txn) +
                              " serialized before itself");
    }
    if (!sites_.contains(txn)) {
      return Status::Internal("Scheme3: ser_bef entry for " + ToString(txn) +
                              " without a site list");
    }
  }
  for (const auto& [site, pending] : pending_) {
    for (GlobalTxnId txn : pending) {
      auto it = sites_.find(txn);
      if (it == sites_.end() ||
          std::find(it->second.begin(), it->second.end(), site) ==
              it->second.end()) {
        return Status::Internal("Scheme3: pending " + ToString(txn) +
                                " at " + ToString(site) +
                                " without a matching announcement");
      }
    }
  }
  for (const auto& [site, last] : last_) {
    if (last.valid() && !sites_.contains(last)) {
      return Status::Internal("Scheme3: last ser at " + ToString(site) +
                              " refers to forgotten " + ToString(last));
    }
  }
  for (const auto& [site, history] : released_live_) {
    for (size_t i = 0; i < history.size(); ++i) {
      if (!sites_.contains(history[i])) {
        return Status::Internal("Scheme3: release history at " +
                                ToString(site) + " refers to forgotten " +
                                ToString(history[i]));
      }
      for (size_t j = i + 1; j < history.size(); ++j) {
        if (history[i] == history[j]) {
          return Status::Internal("Scheme3: " + ToString(history[i]) +
                                  " released twice at " + ToString(site));
        }
      }
    }
  }
  return Status::OK();
}

Status Scheme3::AuditSerRelease(GlobalTxnId txn, SiteId site) const {
  auto sb_it = ser_bef_.find(txn);
  if (sb_it == ser_bef_.end()) {
    return Status::Internal("Scheme3: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released for unknown txn");
  }
  if (pin_acks_) {
    auto last_it = last_.find(site);
    if (last_it != last_.end() && last_it->second.valid() &&
        !acked_.contains({last_it->second.value(), site.value()})) {
      return Status::Internal(
          "Scheme3: ser(" + ToString(txn) + "@" + ToString(site) +
          ") released before the previous ser of " +
          ToString(last_it->second) + " was acked");
    }
  }
  auto pending_it = pending_.find(site);
  if (pending_it != pending_.end()) {
    for (GlobalTxnId other : pending_it->second) {
      if (other != txn && sb_it->second.contains(other)) {
        return Status::Internal(
            "Scheme3: ser(" + ToString(txn) + "@" + ToString(site) +
            ") released although pending " + ToString(other) +
            " is serialized before it");
      }
    }
  }
  return Status::OK();
}

Verdict Scheme3::CondSer(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  // The previously executed ser operation at this site must be acked so the
  // local execution order matches the processing order.
  if (pin_acks_) {
    auto last_it = last_.find(site);
    if (last_it != last_.end() && last_it->second.valid() &&
        !acked_.contains({last_it->second.value(), site.value()})) {
      return Verdict::kWait;
    }
  }
  // Executing now serializes txn before every pending transaction at the
  // site; that must not contradict an established serialized-before
  // relation.
  const std::set<GlobalTxnId>& sb = ser_bef_.at(txn);
  for (GlobalTxnId other : pending_.at(site)) {
    AddSteps(1);
    if (other == txn) continue;
    if (sb.contains(other)) return Verdict::kWait;
  }
  return Verdict::kReady;
}

void Scheme3::ActSer(GlobalTxnId txn, SiteId site) {
  std::set<GlobalTxnId>& site_pending = pending_.at(site);
  site_pending.erase(txn);
  last_[site] = txn;

  // Set_1 = ser_bef(txn) ∪ {txn} flows into every transaction still pending
  // here and, for transitive closure, into every transaction that already
  // has a pending one in its ser_bef (the paper's Set_2).
  released_live_[site].push_back(txn);
  std::set<GlobalTxnId> set1 = ser_bef_.at(txn);
  set1.insert(txn);
  for (auto& [other, sb] : ser_bef_) {
    if (other == txn) continue;
    bool affected = site_pending.contains(other);
    if (!affected) {
      for (GlobalTxnId member : site_pending) {
        AddSteps(1);
        if (sb.contains(member)) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      sb.insert(set1.begin(), set1.end());
      AddSteps(static_cast<int64_t>(set1.size()));
      MDBS_CHECK(!sb.contains(other))
          << other << " serialized before itself (Scheme 3 invariant)";
    }
  }
}

void Scheme3::ActAck(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  acked_.insert({txn.value(), site.value()});
}

Verdict Scheme3::CondFin(GlobalTxnId txn) {
  AddSteps(1);
  return ser_bef_.at(txn).empty() ? Verdict::kReady : Verdict::kWait;
}

void Scheme3::ActFin(GlobalTxnId txn) { RemoveEverywhere(txn); }

void Scheme3::ActAbortCleanup(GlobalTxnId txn) {
  if (sites_.contains(txn)) RemoveEverywhere(txn);
}

void Scheme3::RemoveEverywhere(GlobalTxnId txn) {
  for (auto& [other, sb] : ser_bef_) {
    AddSteps(1);
    sb.erase(txn);
  }
  for (SiteId site : sites_.at(txn)) {
    AddSteps(1);
    pending_.at(site).erase(txn);
    auto last_it = last_.find(site);
    if (last_it != last_.end() && last_it->second == txn) {
      last_.erase(last_it);
    }
    auto hist_it = released_live_.find(site);
    if (hist_it != released_live_.end()) std::erase(hist_it->second, txn);
    acked_.erase({txn.value(), site.value()});
  }
  ser_bef_.erase(txn);
  sites_.erase(txn);
}

const std::set<GlobalTxnId>& Scheme3::SerBef(GlobalTxnId txn) const {
  static const std::set<GlobalTxnId>& empty =
      *new std::set<GlobalTxnId>();
  auto it = ser_bef_.find(txn);
  return it == ser_bef_.end() ? empty : it->second;
}

namespace {

/// Scheme 3's DS as a checkpoint writes it: the mode byte, each map by key,
/// then the acked (txn, site) pairs.
struct Scheme3Image {
  uint8_t pin_acks = 0;
  std::vector<std::pair<GlobalTxnId, std::set<GlobalTxnId>>> ser_bef;
  std::vector<std::pair<GlobalTxnId, std::vector<SiteId>>> sites;
  std::vector<std::pair<SiteId, GlobalTxnId>> last;
  std::vector<std::pair<SiteId, std::vector<GlobalTxnId>>> released_live;
  std::vector<std::pair<SiteId, std::set<GlobalTxnId>>> pending;
  std::set<std::pair<int64_t, int64_t>> acked;
};

template <typename Io, storage::FieldsOf<Scheme3Image> R>
void Fields(Io& io, R& image) {
  io.U8(image.pin_acks);
  io.Vec(image.ser_bef);
  io.Vec(image.sites);
  io.Vec(image.last);
  io.Vec(image.released_live);
  io.Vec(image.pending);
  io.Vec(image.acked);
}

}  // namespace

void Scheme3::EncodeState(std::vector<uint8_t>* out) const {
  *out = storage::EncodeFields(Scheme3Image{
      pin_acks_, SortedRows(ser_bef_), SortedRows(sites_), SortedRows(last_),
      SortedRows(released_live_), SortedRows(pending_), acked_});
}

bool Scheme3::DecodeState(const uint8_t* data, size_t size) {
  Scheme3Image image;
  if (!storage::DecodeFields(data, size, &image) ||
      image.pin_acks != pin_acks_) {
    return false;
  }
  acked_ = std::move(image.acked);
  return RestoreRows(image.ser_bef, &ser_bef_) &&
         RestoreRows(image.sites, &sites_) &&
         RestoreRows(image.last, &last_) &&
         RestoreRows(image.released_live, &released_live_) &&
         RestoreRows(image.pending, &pending_);
}

}  // namespace mdbs::gtm
