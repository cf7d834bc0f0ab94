#include "gtm/scheme0.h"

#include <algorithm>

#include "common/logging.h"

namespace mdbs::gtm {

void Scheme0::ActInit(const QueueOp& op) {
  for (SiteId site : op.sites) {
    queues_[site].push_back(op.txn);
    AddSteps(1);
  }
}

Verdict Scheme0::CondSer(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  auto it = queues_.find(site);
  MDBS_CHECK(it != queues_.end() && !it->second.empty())
      << "ser for " << txn << " with empty queue at " << site;
  return it->second.front() == txn ? Verdict::kReady : Verdict::kWait;
}

void Scheme0::ActSer(GlobalTxnId, SiteId) { AddSteps(1); }

void Scheme0::ActAck(GlobalTxnId txn, SiteId site) {
  AddSteps(1);
  auto it = queues_.find(site);
  MDBS_CHECK(it != queues_.end() && !it->second.empty() &&
             it->second.front() == txn)
      << "ack for " << txn << " that is not at the front of " << site;
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
}

Verdict Scheme0::CondFin(GlobalTxnId) {
  AddSteps(1);
  return Verdict::kReady;
}

void Scheme0::ActFin(GlobalTxnId) { AddSteps(1); }

void Scheme0::ActAbortCleanup(GlobalTxnId txn) {
  for (auto it = queues_.begin(); it != queues_.end();) {
    auto& queue = it->second;
    queue.erase(std::remove(queue.begin(), queue.end(), txn), queue.end());
    it = queue.empty() ? queues_.erase(it) : std::next(it);
  }
}

Status Scheme0::CheckStructuralInvariants() const {
  for (const auto& [site, queue] : queues_) {
    if (queue.empty()) {
      return Status::Internal("Scheme0: empty queue retained for " +
                              ToString(site));
    }
    std::unordered_map<GlobalTxnId, int> seen;
    for (GlobalTxnId txn : queue) {
      if (++seen[txn] > 1) {
        return Status::Internal("Scheme0: " + ToString(txn) +
                                " enqueued twice at " + ToString(site));
      }
    }
  }
  return Status::OK();
}

Status Scheme0::AuditSerRelease(GlobalTxnId txn, SiteId site) const {
  auto it = queues_.find(site);
  if (it == queues_.end() || it->second.empty()) {
    return Status::Internal("Scheme0: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released with no queue");
  }
  if (it->second.front() != txn) {
    return Status::Internal("Scheme0: ser(" + ToString(txn) + "@" +
                            ToString(site) + ") released but " +
                            ToString(it->second.front()) +
                            " heads the FIFO queue");
  }
  return Status::OK();
}

size_t Scheme0::QueueLength(SiteId site) const {
  auto it = queues_.find(site);
  return it == queues_.end() ? 0 : it->second.size();
}

namespace {

/// Scheme 0's DS as a checkpoint writes it: each site's FIFO queue, by
/// site.
struct Scheme0Image {
  std::vector<std::pair<SiteId, std::deque<GlobalTxnId>>> queues;
};

template <typename Io, storage::FieldsOf<Scheme0Image> R>
void Fields(Io& io, R& image) {
  io.Vec(image.queues);
}

}  // namespace

void Scheme0::EncodeState(std::vector<uint8_t>* out) const {
  *out = storage::EncodeFields(Scheme0Image{SortedRows(queues_)});
}

bool Scheme0::DecodeState(const uint8_t* data, size_t size) {
  Scheme0Image image;
  return storage::DecodeFields(data, size, &image) &&
         RestoreRows(image.queues, &queues_);
}

}  // namespace mdbs::gtm
