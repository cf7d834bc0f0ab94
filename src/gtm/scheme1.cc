#include "gtm/scheme1.h"

#include <algorithm>

#include "common/logging.h"

namespace mdbs::gtm {

void Scheme1::ActInit(const QueueOp& op) {
  tsg_.InsertTxn(op.txn, op.sites);
  for (SiteId site : op.sites) {
    bool marked = true;
    if (!mark_all_) {
      int64_t steps = 0;
      marked = tsg_.EdgeOnCycle(op.txn, site, &steps);
      AddSteps(steps);
    }
    AddSteps(1);
    if (marked) {
      events_->Emit({.kind = obs::TraceEventKind::kEdgeMark,
                     .txn = op.txn.value(), .site = site.value()});
    }
    StateOf(site).insert_queue.push_back(InsertEntry{op.txn, marked});
  }
}

Verdict Scheme1::CondSer(GlobalTxnId txn, SiteId site) {
  SiteState& state = StateOf(site);
  // No executed-but-unacked ser operation may be outstanding at the site.
  AddSteps(1);
  if (state.executing.has_value()) return Verdict::kWait;
  // A marked operation must additionally head the insert queue.
  for (const InsertEntry& entry : state.insert_queue) {
    AddSteps(1);
    if (entry.txn != txn) continue;
    if (entry.marked && state.insert_queue.front().txn != txn) {
      return Verdict::kWait;
    }
    return Verdict::kReady;
  }
  MDBS_CHECK(false) << "ser for " << txn << " not in insert queue of "
                    << site;
  return Verdict::kWait;
}

void Scheme1::ActSer(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  StateOf(site).executing = txn;
}

void Scheme1::ActAck(GlobalTxnId txn, SiteId site) {
  SiteState& state = StateOf(site);
  auto& queue = state.insert_queue;
  auto it = std::find_if(queue.begin(), queue.end(), [txn](
                                                         const InsertEntry&
                                                             entry) {
    return entry.txn == txn;
  });
  MDBS_CHECK(it != queue.end())
      << "ack for " << txn << " not in insert queue of " << site;
  AddSteps(static_cast<int64_t>(std::distance(queue.begin(), it)) + 1);
  if (it->marked) {
    events_->Emit({.kind = obs::TraceEventKind::kEdgeUnmark,
                   .txn = txn.value(), .site = site.value()});
  }
  queue.erase(it);
  state.delete_queue.push_back(txn);
  MDBS_CHECK(state.executing == txn)
      << "ack for " << txn << " but executing is different at " << site;
  state.executing.reset();
}

Verdict Scheme1::CondFin(GlobalTxnId txn) {
  for (SiteId site : tsg_.SitesOf(txn)) {
    AddSteps(1);
    const SiteState& state = sites_.at(site);
    if (state.delete_queue.empty() || state.delete_queue.front() != txn) {
      return Verdict::kWait;
    }
  }
  return Verdict::kReady;
}

void Scheme1::ActFin(GlobalTxnId txn) {
  // Copy: RemoveTxn below invalidates SitesOf's storage.
  std::vector<SiteId> sites = tsg_.SitesOf(txn);
  for (SiteId site : sites) {
    SiteState& state = StateOf(site);
    MDBS_CHECK(!state.delete_queue.empty() &&
               state.delete_queue.front() == txn)
        << "fin for " << txn << " not heading delete queue of " << site;
    state.delete_queue.pop_front();
    AddSteps(1);
  }
  tsg_.RemoveTxn(txn);
}

void Scheme1::ActAbortCleanup(GlobalTxnId txn) {
  std::vector<SiteId> sites = tsg_.SitesOf(txn);
  for (SiteId site : sites) {
    SiteState& state = StateOf(site);
    std::erase_if(state.insert_queue, [&](const InsertEntry& entry) {
      if (entry.txn != txn) return false;
      if (entry.marked) {
        events_->Emit({.kind = obs::TraceEventKind::kEdgeUnmark,
                       .txn = txn.value(), .site = site.value()});
      }
      return true;
    });
    auto& dq = state.delete_queue;
    dq.erase(std::remove(dq.begin(), dq.end(), txn), dq.end());
    if (state.executing == txn) state.executing.reset();
  }
  tsg_.RemoveTxn(txn);
}

Status Scheme1::CheckStructuralInvariants() const {
  MDBS_RETURN_IF_ERROR(tsg_.Validate());
  for (const auto& [site, state] : sites_) {
    std::unordered_map<GlobalTxnId, int> seen;
    for (const InsertEntry& entry : state.insert_queue) {
      if (++seen[entry.txn] > 1) {
        return Status::Internal("Scheme1: " + ToString(entry.txn) +
                                " twice in insert queue of " +
                                ToString(site));
      }
      // Queue entries are in the TSG until fin/abort removes both.
      if (!tsg_.HasTxn(entry.txn)) {
        return Status::Internal("Scheme1: " + ToString(entry.txn) +
                                " queued at " + ToString(site) +
                                " but absent from the TSG");
      }
    }
    for (GlobalTxnId txn : state.delete_queue) {
      if (!tsg_.HasTxn(txn)) {
        return Status::Internal("Scheme1: " + ToString(txn) +
                                " in delete queue of " + ToString(site) +
                                " but absent from the TSG");
      }
    }
    // An executing (released, unacked) ser still occupies the insert queue.
    if (state.executing.has_value() &&
        !seen.contains(*state.executing)) {
      return Status::Internal("Scheme1: executing " +
                              ToString(*state.executing) + " at " +
                              ToString(site) +
                              " missing from the insert queue");
    }
  }
  return Status::OK();
}

Status Scheme1::AuditSerRelease(GlobalTxnId txn, SiteId site) const {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    return Status::Internal("Scheme1: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released at unknown site");
  }
  const SiteState& state = it->second;
  if (state.executing.has_value() && *state.executing != txn) {
    return Status::Internal(
        "Scheme1: ser(" + ToString(txn) + "@" + ToString(site) +
        ") released while " + ToString(*state.executing) +
        " is executing unacked there");
  }
  for (const InsertEntry& entry : state.insert_queue) {
    if (entry.txn != txn) continue;
    if (entry.marked && state.insert_queue.front().txn != txn) {
      return Status::Internal(
          "Scheme1: marked ser(" + ToString(txn) + "@" + ToString(site) +
          ") released out of insert-queue order behind " +
          ToString(state.insert_queue.front().txn));
    }
    return Status::OK();
  }
  return Status::Internal("Scheme1: ser(" + ToString(txn) + "@" +
                          ToString(site) +
                          ") released but not in the insert queue");
}

bool Scheme1::IsMarked(GlobalTxnId txn, SiteId site) const {
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  for (const InsertEntry& entry : it->second.insert_queue) {
    if (entry.txn == txn) return entry.marked;
  }
  return false;
}

/// The mode byte, the TSG (txn -> sites is the whole graph; the derived
/// maps rebuild) and each site's queues and executing slot, by site. Marks
/// are frozen into the insert entries: re-deriving them against a
/// compacted history would be unsound, so they are snapshotted verbatim.
struct Scheme1::Image {
  uint8_t mark_all = 0;
  TxnRows tsg;
  std::vector<std::pair<SiteId, SiteState>> sites;

  template <typename Io, storage::FieldsOf<Image> R>
  friend void Fields(Io& io, R& image) {
    io.U8(image.mark_all);
    io.Vec(image.tsg);
    io.Vec(image.sites);
  }
};

void Scheme1::EncodeState(std::vector<uint8_t>* out) const {
  *out = storage::EncodeFields(
      Image{mark_all_, SortedTxnRows(tsg_), SortedRows(sites_)});
}

bool Scheme1::DecodeState(const uint8_t* data, size_t size) {
  Image image;
  return storage::DecodeFields(data, size, &image) &&
         image.mark_all == mark_all_ && RestoreTxnRows(image.tsg, &tsg_) &&
         RestoreRows(image.sites, &sites_);
}

}  // namespace mdbs::gtm
