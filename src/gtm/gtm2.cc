#include "gtm/gtm2.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/framing.h"

namespace mdbs::gtm {

namespace {

/// WAIT events of ser and validate operations carry Step::kGtm2: those are
/// the job's critical path, while an init, ack or fin waits beside it.
obs::Step WaitStep(QueueOpKind kind) {
  return kind == QueueOpKind::kSer || kind == QueueOpKind::kValidate
             ? obs::Step::kGtm2
             : obs::Step::kNone;
}

}  // namespace

Gtm2::Gtm2(std::unique_ptr<Scheme> scheme, Callbacks callbacks,
           const obs::EventSink& events)
    : scheme_(std::move(scheme)),
      callbacks_(std::move(callbacks)),
      events_(&events) {
  MDBS_CHECK(scheme_ != nullptr);
  scheme_->AttachEvents(events_);
}

void Gtm2::Rebind(Callbacks callbacks, const obs::EventSink& events) {
  callbacks_ = std::move(callbacks);
  events_ = &events;
  scheme_->AttachEvents(events_);
}

void Gtm2::CopyAuditFrom(const Gtm2& other) {
  audit_enabled_ = other.audit_enabled_;
  auditor_ = other.auditor_;
}

void Gtm2::EnableAudit(const audit::AuditConfig& config,
                       audit::Auditor* auditor) {
  audit_enabled_ = audit::kAuditCompiledIn && config.enabled;
  auditor_ = auditor != nullptr ? auditor : audit::Auditor::Default();
}

void Gtm2::AuditVerdict(const QueueOp& op, Verdict verdict) {
  if (!audit_enabled_) return;
  if (verdict == Verdict::kAbort && scheme_->IsConservative()) {
    auditor_->Report(audit::AuditViolation{
        "conservative-discipline",
        std::string(scheme_->Name()) + " demanded an abort on " +
            op.ToString() + " (Theorems 3/5/8: Schemes 0-3 never abort)",
        {op.txn.value()},
        op.txn.value()});
  }
}

void Gtm2::AuditBeforeSerRelease(GlobalTxnId txn, SiteId site) {
  if (!audit_enabled_ || !scheme_->IsConservative()) return;
  Status status = scheme_->AuditSerRelease(txn, site);
  if (!status.ok()) {
    auditor_->Report(audit::AuditViolation{
        "ser-release-discipline", status.message(), {txn.value()},
        txn.value()});
  }
  std::optional<std::vector<int64_t>> cycle =
      ser_graph_.RecordRelease(txn.value(), site.value());
  if (cycle.has_value()) {
    auditor_->Report(audit::AuditViolation{
        "ser-graph-acyclic",
        "releasing ser(" + ToString(txn) + "@" + ToString(site) +
            ") closes a cycle in the abstract ser(S) graph (Theorem 1)",
        *cycle, txn.value()});
  }
}

void Gtm2::AuditAfterAct(const QueueOp& op) {
  if (!audit_enabled_) return;
  if (op.kind == QueueOpKind::kFin) ser_graph_.RemoveTxn(op.txn.value());
  Status status = scheme_->CheckStructuralInvariants();
  if (!status.ok()) {
    auditor_->Report(audit::AuditViolation{
        "scheme-structure",
        status.message() + " (after " + op.ToString() + ")",
        {op.txn.value()}, op.txn.value()});
  }
}

void Gtm2::Enqueue(QueueOp op) {
  queue_.push_back(std::move(op));
  events_->Emit({.kind = obs::TraceEventKind::kQueueDepth,
                .txn = queue_.back().txn.value(),
                .a = static_cast<int64_t>(queue_.size()),
                .b = static_cast<int64_t>(wait_.size())});
  if (!pumping_) Pump();
}

void Gtm2::Pump() {
  pumping_ = true;
  while (!queue_.empty()) {
    QueueOp op = std::move(queue_.front());
    queue_.pop_front();
    if (dead_txns_.contains(op.txn)) continue;
    if (TryProcess(op)) {
      DrainWait();
    } else {
      ++stats_.wait_additions;
      if (op.kind == QueueOpKind::kSer) ++stats_.ser_wait_additions;
      events_->Emit({.kind = obs::TraceEventKind::kWaitEnter,
                    .txn = op.txn.value(), .site = op.site.value(),
                    .a = static_cast<int64_t>(wait_.size()) + 1,
                    .detail = QueueOpKindName(op.kind),
                    .step = WaitStep(op.kind)});
      wait_.push_back(std::move(op));
    }
  }
  pumping_ = false;
}

bool Gtm2::TryProcess(const QueueOp& op) {
  ++stats_.cond_evaluations;
  Verdict verdict = Verdict::kReady;
  switch (op.kind) {
    case QueueOpKind::kInit:
      verdict = scheme_->CondInit(op);
      break;
    case QueueOpKind::kSer:
      verdict = scheme_->CondSer(op.txn, op.site);
      break;
    case QueueOpKind::kAck:
      verdict = scheme_->CondAck(op.txn, op.site);
      break;
    case QueueOpKind::kValidate:
      verdict = scheme_->CondValidate(op.txn);
      break;
    case QueueOpKind::kFin:
      verdict = scheme_->CondFin(op.txn);
      break;
  }
  AuditVerdict(op, verdict);
  switch (verdict) {
    case Verdict::kWait:
      return false;
    case Verdict::kAbort:
      ++stats_.scheme_aborts;
      events_->Emit({.kind = obs::TraceEventKind::kSchemeAbort,
                    .txn = op.txn.value(), .site = op.site.value(),
                    .detail = QueueOpKindName(op.kind)});
      if (callbacks_.abort_txn) callbacks_.abort_txn(op.txn);
      return true;
    case Verdict::kReady:
      RunAct(op);
      return true;
  }
  return false;
}

void Gtm2::RunAct(const QueueOp& op) {
  ++stats_.processed_ops;
  switch (op.kind) {
    case QueueOpKind::kInit:
      scheme_->ActInit(op);
      events_->Emit({.kind = obs::TraceEventKind::kInit, .txn = op.txn.value(),
                    .a = static_cast<int64_t>(op.sites.size())});
      break;
    case QueueOpKind::kSer:
      // Audit before the act mutates DS: the release decision must be
      // justified by the data structures as they are *now*.
      AuditBeforeSerRelease(op.txn, op.site);
      scheme_->ActSer(op.txn, op.site);
      events_->Emit({.kind = obs::TraceEventKind::kSerRelease,
                    .txn = op.txn.value(), .site = op.site.value()});
      if (callbacks_.release_ser) callbacks_.release_ser(op.txn, op.site);
      break;
    case QueueOpKind::kAck:
      scheme_->ActAck(op.txn, op.site);
      events_->Emit({.kind = obs::TraceEventKind::kAck, .txn = op.txn.value(),
                    .site = op.site.value()});
      if (callbacks_.forward_ack) callbacks_.forward_ack(op.txn, op.site);
      break;
    case QueueOpKind::kValidate:
      scheme_->ActValidate(op.txn);
      events_->Emit({.kind = obs::TraceEventKind::kValidate,
                    .txn = op.txn.value()});
      if (callbacks_.validate_passed) callbacks_.validate_passed(op.txn);
      break;
    case QueueOpKind::kFin:
      scheme_->ActFin(op.txn);
      events_->Emit(
          {.kind = obs::TraceEventKind::kFin, .txn = op.txn.value()});
      if (callbacks_.fin_done) callbacks_.fin_done(op.txn);
      break;
  }
  AuditAfterAct(op);
}

void Gtm2::DrainWait() {
  // Figure 3: after an act, process every waiting operation whose cond now
  // holds; each success can enable further ones, so rescan to fixpoint.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = wait_.begin(); it != wait_.end();) {
      if (dead_txns_.contains(it->txn)) {
        events_->Emit({.kind = obs::TraceEventKind::kWaitAbandon,
                      .txn = it->txn.value(), .site = it->site.value(),
                      .detail = QueueOpKindName(it->kind)});
        it = wait_.erase(it);
        continue;
      }
      int64_t steps_before = scheme_->steps();
      // Snapshot identity before TryProcess: a scheme abort inside the call
      // may splice other entries out of wait_, but never *it itself.
      const QueueOp& waiting = *it;
      if (TryProcess(waiting)) {
        events_->Emit({.kind = obs::TraceEventKind::kWaitExit,
                      .txn = waiting.txn.value(), .site = waiting.site.value(),
                      .a = static_cast<int64_t>(wait_.size()) - 1,
                      .detail = QueueOpKindName(waiting.kind),
                      .step = WaitStep(waiting.kind)});
        it = wait_.erase(it);
        progress = true;
      } else {
        stats_.failed_rescan_steps += scheme_->steps() - steps_before;
        ++it;
      }
    }
  }
}

void Gtm2::AbortCleanup(GlobalTxnId txn) {
  dead_txns_.insert(txn);
  if (audit_enabled_) ser_graph_.RemoveTxn(txn.value());
  if (!pumping_) {
    // Eager purge. When called from inside the pump (a scheme abort
    // surfacing mid-scan), the purge must stay lazy: Pump/DrainWait skip
    // and erase dead transactions' operations as they encounter them, and
    // erasing here would invalidate the iterator of the scan that invoked
    // the abort callback.
    for (auto it = wait_.begin(); it != wait_.end();) {
      if (it->txn == txn) {
        events_->Emit({.kind = obs::TraceEventKind::kWaitAbandon,
                      .txn = it->txn.value(), .site = it->site.value(),
                      .detail = QueueOpKindName(it->kind)});
        it = wait_.erase(it);
      } else {
        ++it;
      }
    }
  }
  scheme_->ActAbortCleanup(txn);
  // Removing the transaction may unblock waiting operations.
  if (!pumping_) {
    pumping_ = true;
    DrainWait();
    pumping_ = false;
    if (!queue_.empty()) Pump();
  }
}

namespace {

std::vector<int64_t> SortedTxns(
    const std::unordered_set<GlobalTxnId>& txns) {
  std::vector<int64_t> sorted;
  sorted.reserve(txns.size());
  for (GlobalTxnId txn : txns) sorted.push_back(txn.value());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

Gtm2::VolatileImage Gtm2::SnapshotForCheckpoint() const {
  MDBS_CHECK(!pumping_ && queue_.empty())
      << "GTM2 snapshot requires a quiescent driver";
  return Image();
}

Gtm2::VolatileImage Gtm2::Image() const {
  VolatileImage image;
  image.wait.assign(wait_.begin(), wait_.end());
  image.dead_txns = SortedTxns(dead_txns_);
  image.stats = stats_;
  image.scheme_steps = scheme_->steps();
  scheme_->EncodeState(&image.scheme_state);
  return image;
}

void Gtm2::RestoreFromCheckpoint(const VolatileImage& image) {
  MDBS_CHECK(!pumping_ && queue_.empty());
  wait_.assign(image.wait.begin(), image.wait.end());
  dead_txns_.clear();
  for (int64_t txn : image.dead_txns) dead_txns_.insert(GlobalTxnId(txn));
  stats_ = image.stats;
  MDBS_CHECK(scheme_->SupportsSnapshot())
      << scheme_->Name() << " cannot restore a checkpoint";
  MDBS_CHECK(scheme_->DecodeState(image.scheme_state.data(),
                                  image.scheme_state.size()))
      << "undecodable " << scheme_->Name() << " snapshot";
  scheme_->RestoreSteps(image.scheme_steps);
}

void Gtm2::ResetForRecovery(std::unique_ptr<Scheme> fresh) {
  MDBS_CHECK(fresh != nullptr);
  queue_.clear();
  wait_.clear();
  dead_txns_.clear();
  stats_ = Gtm2Stats{};
  pumping_ = false;
  ser_graph_ = audit::SerGraphAudit();
  scheme_ = std::move(fresh);
  scheme_->AttachEvents(events_);
}

std::vector<uint8_t> Gtm2::StateFingerprint() const {
  return storage::EncodeFields(Image());
}

}  // namespace mdbs::gtm
