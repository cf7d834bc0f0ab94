#include "sched/stats.h"

#include <set>
#include <sstream>
#include <unordered_set>

namespace mdbs::sched {

ScheduleStats ComputeScheduleStats(const ScheduleRecorder& recorder) {
  ScheduleStats stats;
  std::set<int64_t> committed_globals;
  for (const auto& [id, schedule] : recorder.sites()) {
    if (schedule.ops().empty() && schedule.txns().empty()) continue;
    SiteScheduleStats& site = stats.per_site[id];
    std::unordered_set<int64_t> items;
    for (const RecordedOp& op : schedule.ops()) {
      if (op.op.type == OpType::kRead) {
        ++site.reads;
      } else {
        ++site.writes;
      }
      items.insert(op.op.item.value());
    }
    site.distinct_items = static_cast<int64_t>(items.size());
    stats.total_ops += static_cast<int64_t>(schedule.ops().size());
    for (const auto& [txn, record] : schedule.txns()) {
      if (record.outcome == TxnOutcome::kCommitted) {
        ++site.committed_txns;
        if (record.global.valid()) {
          ++site.global_subtxns;
          committed_globals.insert(record.global.value());
        } else {
          ++stats.committed_local_txns;
        }
      } else if (record.outcome == TxnOutcome::kAborted) {
        ++site.aborted_txns;
      }
    }
  }
  stats.committed_global_txns =
      static_cast<int64_t>(committed_globals.size());
  return stats;
}

std::string ScheduleStats::ToString() const {
  std::ostringstream os;
  os << "schedule: " << total_ops << " ops, " << committed_global_txns
     << " global txns, " << committed_local_txns
     << " local txns committed\n";
  for (const auto& [site, s] : per_site) {
    os << "  " << mdbs::ToString(site) << ": r=" << s.reads
       << " w=" << s.writes << " committed=" << s.committed_txns << " ("
       << s.global_subtxns << " global)"
       << " aborted=" << s.aborted_txns << " items=" << s.distinct_items
       << "\n";
  }
  return os.str();
}

}  // namespace mdbs::sched
