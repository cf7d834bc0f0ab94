#include "sched/schedule.h"

#include <sstream>

#include "common/logging.h"

namespace mdbs::sched {

std::string RecordedOp::ToString() const {
  std::ostringstream os;
  os << "#" << seq << " t=" << time << " " << mdbs::ToString(txn) << " "
     << op.ToString();
  return os.str();
}

void SiteSchedule::RecordBegin(TxnId txn, GlobalTxnId global) {
  auto [it, inserted] = txns_.try_emplace(txn);
  MDBS_CHECK(inserted) << txn << " began twice at " << site_;
  it->second.txn = txn;
  it->second.global = global;
}

void SiteSchedule::RecordOp(TxnId txn, const DataOp& op, int64_t time,
                            TxnId read_from) {
  ops_.push_back(RecordedOp{next_seq_++, time, txn, op, read_from});
}

void SiteSchedule::RecordFinish(TxnId txn, TxnOutcome outcome,
                                std::optional<int64_t> serialization_key) {
  auto it = txns_.find(txn);
  MDBS_CHECK(it != txns_.end())
      << txn << " finished at " << site_ << " but never began there";
  it->second.outcome = outcome;
  it->second.serialization_key = serialization_key;
  it->second.finish_seq = next_seq_++;
}

const TxnRecord* SiteSchedule::FindTxn(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

ScheduleRecorder::ScheduleRecorder(const std::vector<SiteId>& sites) {
  for (SiteId id : sites) sites_.try_emplace(id, id);
}

SiteSchedule& ScheduleRecorder::site(SiteId site) {
  auto it = sites_.find(site);
  MDBS_CHECK(it != sites_.end()) << "no schedule kept for " << site;
  return it->second;
}

const SiteSchedule& ScheduleRecorder::site(SiteId site) const {
  auto it = sites_.find(site);
  MDBS_CHECK(it != sites_.end()) << "no schedule kept for " << site;
  return it->second;
}

int64_t ScheduleRecorder::CountOutcome(TxnOutcome outcome) const {
  int64_t count = 0;
  for (const auto& [id, schedule] : sites_) {
    for (const auto& [txn, record] : schedule.txns()) {
      if (record.outcome == outcome) ++count;
    }
  }
  return count;
}

int64_t ScheduleRecorder::CommittedCount() const {
  return CountOutcome(TxnOutcome::kCommitted);
}

int64_t ScheduleRecorder::AbortedCount() const {
  return CountOutcome(TxnOutcome::kAborted);
}

std::string ScheduleRecorder::Dump(size_t limit) const {
  std::ostringstream os;
  for (const auto& [id, schedule] : sites_) {
    const std::vector<RecordedOp>& ops = schedule.ops();
    os << mdbs::ToString(id) << ": " << ops.size() << " ops\n";
    for (size_t i = 0; i < ops.size() && i < limit; ++i) {
      os << "  " << ops[i].ToString() << "\n";
    }
    if (ops.size() > limit) {
      os << "  ... (" << ops.size() - limit << " more)\n";
    }
  }
  return os.str();
}

}  // namespace mdbs::sched
