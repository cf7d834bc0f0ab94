#include "obs/event_sink.h"

#include "sched/schedule.h"

namespace mdbs::obs {

void EventSink::Record(const Event& event) const {
  sched::SiteSchedule& site = schedule_->site(SiteId(event.site));
  const TxnId txn(event.txn);
  switch (event.kind) {
    case TraceEventKind::kSiteBegin:
      site.RecordBegin(txn, GlobalTxnId(event.a));
      return;
    case TraceEventKind::kSiteRead:
      site.RecordOp(txn, *event.op, event.ticks, TxnId(event.b));
      return;
    case TraceEventKind::kSiteWrite:
      site.RecordOp(txn, *event.op, event.ticks);
      return;
    case TraceEventKind::kSiteCommit:
      site.RecordFinish(txn, TxnOutcome::kCommitted, event.key);
      return;
    case TraceEventKind::kSiteAbort:
      site.RecordFinish(txn, TxnOutcome::kAborted, std::nullopt);
      return;
    default:
      return;
  }
}

}  // namespace mdbs::obs
