#include "gtm/gtm1.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "gtm/gtm_log.h"

namespace mdbs::gtm {

const char* GtmAttemptFailReasonName(GtmAttemptFailReason reason) {
  switch (reason) {
    case GtmAttemptFailReason::kSite:
      return "site";
    case GtmAttemptFailReason::kScheme:
      return "scheme";
    case GtmAttemptFailReason::kTimeout:
      return "timeout";
    case GtmAttemptFailReason::kSiteDown:
      return "site_down";
    case GtmAttemptFailReason::kGtmCrash:
      return "gtm_crash";
  }
  return "?";
}

Gtm1::Gtm1(const Gtm1Config& config, sim::TaskRunner* loop,
           SiteGateway* gateway, uint64_t seed, const obs::EventSink& events)
    : config_(config),
      loop_(loop),
      gateway_(gateway),
      events_(events),
      gtm2_(std::make_unique<Gtm2>(MakeFreshScheme(), Gtm2Callbacks(),
                                   events)),
      rng_(seed) {}

Gtm1::~Gtm1() = default;

Gtm2::Callbacks Gtm1::Gtm2Callbacks() {
  Gtm2::Callbacks callbacks;
  callbacks.release_ser = [this](GlobalTxnId txn, SiteId site) {
    OnSerReleased(txn, site);
  };
  callbacks.forward_ack = [this](GlobalTxnId txn, SiteId site) {
    OnAckForwarded(txn, site);
  };
  callbacks.validate_passed = [this](GlobalTxnId txn) {
    // Defer: validate_passed fires inside the GTM2 pump.
    loop_->Schedule(0, Guarded([this, txn]() { OnValidatePassed(txn); }));
  };
  callbacks.abort_txn = [this](GlobalTxnId txn) {
    loop_->Schedule(0, Guarded([this, txn]() {
      FailAttempt(txn, Status::TransactionAborted("GTM scheme abort"),
                  GtmAttemptFailReason::kScheme);
    }));
  };
  return callbacks;
}

std::unique_ptr<Scheme> Gtm1::MakeFreshScheme() const {
  return config_.scheme_factory ? config_.scheme_factory()
                                : MakeScheme(config_.scheme);
}

void Gtm1::Log(const GtmLogRecord& record) {
  CountRecord(record, &stats_);
  if (journal_) journal_(record);
}

void Gtm1::EnqueueGtm2(QueueOp op) {
  if (journal_) Log({.type = GtmLogRecordType::kEnqueue, .op = op});
  gtm2_->Enqueue(std::move(op));
  if (gtm2_observer_) gtm2_observer_();
}

void Gtm1::AbortCleanupGtm2(GlobalTxnId txn) {
  Log({.type = GtmLogRecordType::kAbortCleanup, .attempt = txn.value()});
  gtm2_->AbortCleanup(txn);
  if (gtm2_observer_) gtm2_observer_();
}

void Gtm1::Snapshot(GtmCheckpoint* cp) const {
  cp->next_txn_id = next_txn_id_;
  cp->next_attempt_id = next_attempt_id_;
  cp->next_job_id = next_job_id_;
  cp->gtm1_stats = stats_;
  // jobs_ is id-ordered (ids are allocated monotonically at Submit and
  // erasure preserves order).
  for (const std::unique_ptr<Job>& job : jobs_) {
    GtmCheckpoint::JobImage image;
    image.id = job->id;
    image.submit_time = job->submit_time;
    image.attempts = job->attempts;
    image.parked = job->parked;
    if (attempts_.find(job->current_attempt) != attempts_.end()) {
      image.current_attempt = job->current_attempt.value();
    }
    cp->jobs.push_back(image);
  }
  std::vector<const Attempt*> live;
  live.reserve(attempts_.size());
  for (const auto& [id, attempt] : attempts_) live.push_back(attempt.get());
  std::sort(live.begin(), live.end(), [](const Attempt* a, const Attempt* b) {
    return a->id.value() < b->id.value();
  });
  for (const Attempt* attempt : live) {
    GtmCheckpoint::AttemptImage image;
    image.id = attempt->id.value();
    image.job = attempt->job->id;
    image.committing = attempt->committing;
    image.commit_index = static_cast<int64_t>(attempt->commit_next);
    for (SiteId site : attempt->begun_sites) {
      image.subs.emplace_back(site.value(),
                              attempt->sub_ids.at(site).value());
    }
    for (const auto& [key, value] : attempt->reads) {
      image.reads.push_back({key.first.value(), key.second.value(), value});
    }
    cp->attempts.push_back(std::move(image));
  }
  for (SiteId site : quarantined_) cp->quarantined.push_back(site.value());
  std::sort(cp->quarantined.begin(), cp->quarantined.end());
  cp->gtm2 = gtm2_->SnapshotForCheckpoint();
}

void Gtm1::EmitStep(const Job& job, obs::Step step) {
  events_.Emit({.kind = obs::TraceEventKind::kStep, .job = job.id,
                .step = step});
}

SiteGateway::OpCallback Gtm1::WrapRoundTrip(GlobalTxnId attempt_id, TxnId sub,
                                            SiteGateway::OpCallback done) {
  return [this, attempt_id, sub, done = std::move(done)](const Status& status,
                                                         int64_t value) {
    Attempt* attempt = FindAttempt(attempt_id);
    if (attempt != nullptr) {
      events_.Emit({.kind = obs::TraceEventKind::kRoundTripEnd,
                    .txn = sub.value(), .job = attempt->job->id});
    }
    done(status, value);
  };
}

void Gtm1::Submit(GlobalTxnSpec spec, ResultCallback cb) {
  MDBS_CHECK(!spec.ops.empty()) << "empty global transaction";
  ++in_flight_;
  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->spec = std::move(spec);
  job->cb = std::move(cb);
  job->submit_time = loop_->now();
  const std::vector<SiteId> sites = job->spec.Sites();
  events_.Emit({.kind = obs::TraceEventKind::kSubmit, .txn = job->id,
                .a = static_cast<int64_t>(sites.size()), .job = job->id,
                .sites = &sites});
  Log({.type = GtmLogRecordType::kSubmit, .job = job->id,
       .time = job->submit_time});
  Job* raw = job.get();
  jobs_.push_back(std::move(job));
  if (activity_hook_) activity_hook_();
  if (TouchesQuarantine(*raw)) {
    // A needed site is already known-down: don't burn an attempt on it.
    ParkJob(raw);
    return;
  }
  StartAttempt(raw);
}

std::vector<Gtm1::Step> Gtm1::BuildSteps(const GlobalTxnSpec& spec) const {
  std::vector<Step> steps;
  std::vector<SiteId> seen;
  // Last data-op index per site, for the kLastOp serialization point.
  std::unordered_map<SiteId, size_t> last_data_index;
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    last_data_index[spec.ops[i].site] = i;
  }
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    SiteId site = spec.ops[i].site;
    // Certified fast path: the ser-op machinery exists to order what the
    // analyzer proved cannot become cyclic, so no step is a ser operation
    // (none routes through GTM2) and no ticket is injected.
    std::optional<SerPointKind> ser_point;
    if (!config_.certified_fast_path) {
      ser_point = SerPointKindFor(gateway_->ProtocolAt(site));
    }
    if (std::find(seen.begin(), seen.end(), site) == seen.end()) {
      seen.push_back(site);
      steps.push_back(Step{Step::Kind::kBegin, site, 0,
                           ser_point == SerPointKind::kBegin});
      if (ser_point == SerPointKind::kTicket && !config_.ticket_last) {
        steps.push_back(Step{Step::Kind::kTicket, site, 0, true});
      }
    }
    steps.push_back(Step{Step::Kind::kData, site, i,
                         ser_point == SerPointKind::kLastOp &&
                             last_data_index[site] == i});
    if (ser_point == SerPointKind::kTicket && config_.ticket_last &&
        last_data_index[site] == i) {
      steps.push_back(Step{Step::Kind::kTicket, site, 0, true});
    }
  }
  return steps;
}

void Gtm1::StartAttempt(Job* job) {
  ++job->attempts;
  auto attempt = std::make_unique<Attempt>();
  attempt->id = GlobalTxnId(next_attempt_id_++);
  attempt->job = job;
  attempt->steps = BuildSteps(job->spec);
  job->current_attempt = attempt->id;
  GlobalTxnId attempt_id = attempt->id;
  std::vector<SiteId> sites = job->spec.Sites();
  attempts_[attempt_id] = std::move(attempt);
  Log({.type = GtmLogRecordType::kAttemptStart, .job = job->id,
       .attempt = attempt_id.value(), .index = job->attempts});
  events_.Emit({.kind = obs::TraceEventKind::kAttemptStart,
                .txn = attempt_id.value(), .a = job->id, .b = job->attempts,
                .job = job->id});
  if (config_.certified_fast_path) {
    ++stats_.fast_path_attempts;
    events_.Emit({.kind = obs::TraceEventKind::kDowngrade,
                  .txn = attempt_id.value(), .a = job->id});
  }

  if (config_.attempt_timeout > 0) {
    loop_->Schedule(config_.attempt_timeout, Guarded([this, attempt_id]() {
      Attempt* timed_out = FindAttempt(attempt_id);
      if (timed_out == nullptr || timed_out->failed ||
          timed_out->committing) {
        return;
      }
      events_.Emit({.kind = obs::TraceEventKind::kAttemptTimeout,
                    .txn = attempt_id.value()});
      FailAttempt(attempt_id,
                  Status::TransactionAborted("attempt timed out"),
                  GtmAttemptFailReason::kTimeout);
    }));
  }

  EnqueueGtm2(QueueOp::Init(attempt_id, std::move(sites)));
  AdvanceStep(attempt_id);
}

void Gtm1::AdvanceStep(GlobalTxnId attempt_id) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  if (attempt->next_step == attempt->steps.size()) {
    // All operations acknowledged: pre-commit validation point.
    EmitStep(*attempt->job, obs::Step::kGtm2);
    EnqueueGtm2(QueueOp::Validate(attempt_id));
    return;
  }
  const Step& step = attempt->steps[attempt->next_step];
  if (step.is_ser) {
    // Route through GTM2; PerformStep happens when the scheme releases it.
    EmitStep(*attempt->job, obs::Step::kGtm2);
    EnqueueGtm2(QueueOp::Ser(attempt_id, step.site));
    return;
  }
  PerformStep(attempt, step,
              [this, attempt_id](const Status& status, int64_t) {
                Attempt* done = FindAttempt(attempt_id);
                if (done == nullptr || done->failed) return;
                if (!status.ok()) {
                  FailAttempt(attempt_id, status, GtmAttemptFailReason::kSite);
                  return;
                }
                ++done->next_step;
                AdvanceStep(attempt_id);
              });
}

void Gtm1::OnSerReleased(GlobalTxnId attempt_id, SiteId site) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  MDBS_CHECK(attempt->next_step < attempt->steps.size());
  const Step& step = attempt->steps[attempt->next_step];
  MDBS_CHECK(step.is_ser && step.site == site)
      << "ser release does not match current step of " << attempt_id;
  PerformStep(attempt, step,
              [this, attempt_id, site](const Status& status, int64_t) {
                Attempt* done = FindAttempt(attempt_id);
                if (done == nullptr || done->failed) return;
                if (!status.ok()) {
                  FailAttempt(attempt_id, status, GtmAttemptFailReason::kSite);
                  return;
                }
                // The server inserts the ack into QUEUE (paper §4).
                EnqueueGtm2(QueueOp::Ack(attempt_id, site));
              });
}

void Gtm1::OnAckForwarded(GlobalTxnId attempt_id, SiteId) {
  // Deferred: forward_ack fires inside the GTM2 pump.
  loop_->Schedule(0, Guarded([this, attempt_id]() {
    Attempt* attempt = FindAttempt(attempt_id);
    if (attempt == nullptr || attempt->failed) return;
    ++attempt->next_step;
    AdvanceStep(attempt_id);
  }));
}

void Gtm1::PerformStep(Attempt* attempt, const Step& step,
                       SiteGateway::OpCallback done) {
  GlobalTxnId attempt_id = attempt->id;
  EmitStep(*attempt->job,
           step.kind == Step::Kind::kTicket  ? obs::Step::kTicket
           : step.kind == Step::Kind::kBegin ? obs::Step::kBegin
                                             : obs::Step::kData);
  switch (step.kind) {
    case Step::Kind::kBegin: {
      TxnId sub_id = TxnId(next_txn_id_++);
      attempt->sub_ids[step.site] = sub_id;
      attempt->begun_sites.push_back(step.site);
      Log({.type = GtmLogRecordType::kBeginSite,
           .attempt = attempt_id.value(), .site = step.site.value(),
           .sub = sub_id.value()});
      gateway_->Begin(step.site, sub_id, attempt_id,
                      [done](const Status& status) { done(status, 0); });
      return;
    }
    case Step::Kind::kTicket: {
      // The paper's take-a-ticket: read the ticket, write back the
      // incremented value. The read half is load-bearing — a blind ticket
      // write would let a backward-validating protocol (OCC checks only
      // read sets) commit two ticket writers in either order, silently
      // inverting the serialization order the ticket exists to pin.
      SiteId site = step.site;
      TxnId sub_id = attempt->sub_ids.at(site);
      gateway_->Submit(
          site, sub_id, DataOp::Read(kTicketItem),
          WrapRoundTrip(
              attempt_id, sub_id,
              [this, attempt_id, site, sub_id, done = std::move(done)](
                  const Status& status, int64_t value) mutable {
                if (!status.ok()) {
                  done(status, 0);
                  return;
                }
                Attempt* holder = FindAttempt(attempt_id);
                if (holder == nullptr || holder->failed) return;
                gateway_->Submit(site, sub_id,
                                 DataOp::Write(kTicketItem, value + 1),
                                 WrapRoundTrip(attempt_id, sub_id,
                                               std::move(done)));
              }));
      return;
    }
    case Step::Kind::kData: {
      const GlobalOp& global_op = attempt->job->spec.ops[step.spec_index];
      DataOp op = global_op.op;
      if (op.type == OpType::kWrite && global_op.value_fn != nullptr) {
        op.value = global_op.value_fn(attempt->reads);
      }
      SiteId site = step.site;
      TxnId sub_id = attempt->sub_ids.at(site);
      gateway_->Submit(
          site, sub_id, op,
          WrapRoundTrip(attempt_id, sub_id,
                        [this, attempt_id, site, op, done = std::move(done)](
                            const Status& status, int64_t value) {
                          Attempt* reader = FindAttempt(attempt_id);
                          if (reader != nullptr && status.ok() &&
                              op.type == OpType::kRead) {
                            reader->reads[{site, op.item}] = value;
                            Log({.type = GtmLogRecordType::kRead,
                                 .attempt = attempt_id.value(),
                                 .site = site.value(),
                                 .item = op.item.value(), .value = value});
                          }
                          done(status, value);
                        }));
      return;
    }
  }
}

void Gtm1::OnValidatePassed(GlobalTxnId attempt_id) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  attempt->committing = true;
  // Once this record is durable, a crashed GTM forward-rolls the commit
  // fan-out (site commits are idempotent) instead of aborting.
  Log({.type = GtmLogRecordType::kCommitStart,
       .attempt = attempt_id.value()});
  CommitNextSite(attempt_id, 0);
}

void Gtm1::CommitNextSite(GlobalTxnId attempt_id, size_t index) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  attempt->commit_next = index;
  if (index == attempt->begun_sites.size()) {
    // Fully committed.
    EnqueueGtm2(QueueOp::Fin(attempt_id));
    GlobalTxnResult result;
    result.reads = std::move(attempt->reads);
    EndJob(attempt->job, attempt_id, GtmFinishOutcome::kCommitted,
           std::move(result));
    return;
  }
  SiteId site = attempt->begun_sites[index];
  TxnId sub_id = attempt->sub_ids.at(site);
  EmitStep(*attempt->job, obs::Step::kCommit);
  // The guard matters here more than anywhere: after a crash the
  // recovered GTM re-drives this very attempt id from its logged commit
  // index, and a stale pre-crash ack racing the re-driven fan-out would
  // advance the cursor twice.
  gateway_->Commit(
      site, sub_id,
      Guarded([this, attempt_id, index, sub_id](const Status& status) {
        Attempt* committing = FindAttempt(attempt_id);
        if (committing == nullptr || committing->failed) return;
        events_.Emit({.kind = obs::TraceEventKind::kRoundTripEnd,
                      .txn = sub_id.value(), .job = committing->job->id});
        if (status.ok()) {
          Log({.type = GtmLogRecordType::kCommitSite,
               .attempt = attempt_id.value(),
               .index = static_cast<int64_t>(index)});
          CommitNextSite(attempt_id, index + 1);
          return;
        }
        // Local validation failed at commit (OCC).
        if (index == 0) {
          // Nothing committed yet: the attempt is cleanly retryable.
          committing->committing = false;
          FailAttempt(attempt_id, status, GtmAttemptFailReason::kSite);
          return;
        }
        // Some subtransactions already committed: atomic commitment is out
        // of the paper's scope, so report a partial commit and do not retry
        // (a retry would double-apply the committed sites' effects).
        GlobalTxnResult result;
        result.status =
            Status::TransactionAborted("partial commit: " + status.message());
        result.retry_safe = false;
        EndJob(committing->job, attempt_id, GtmFinishOutcome::kPartial,
               std::move(result));
      }));
}

void Gtm1::FailAttempt(GlobalTxnId attempt_id, const Status& status,
                       GtmAttemptFailReason reason) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  Job* job = attempt->job;
  RetireAttempt(attempt, reason);
  if (job->attempts >= config_.max_attempts) {
    GlobalTxnResult result;
    result.status = Status::TransactionAborted(
        "gave up after " + std::to_string(job->attempts) +
        " attempts; last: " + status.ToString());
    EndJob(job, attempt_id, GtmFinishOutcome::kGaveUp, std::move(result));
    return;
  }
  // Randomized backoff, then a fresh attempt (or a park, if a site the job
  // needs was quarantined in the meantime).
  ScheduleRetry(*job, RetryDelay(*job));
}

void Gtm1::RetireAttempt(Attempt* attempt, GtmAttemptFailReason reason) {
  attempt->failed = true;
  const GlobalTxnId id = attempt->id;
  const Job& job = *attempt->job;
  events_.Emit({.kind = obs::TraceEventKind::kAttemptAbort,
                .txn = id.value(), .a = job.id, .b = job.attempts,
                .detail = GtmAttemptFailReasonName(reason), .job = job.id});
  Log({.type = GtmLogRecordType::kAttemptFail, .attempt = id.value(),
       .code = static_cast<uint8_t>(reason)});
  // Abort every begun subtransaction (idempotent at the sites).
  for (SiteId site : attempt->begun_sites) {
    gateway_->Abort(site, attempt->sub_ids.at(site), [](const Status&) {});
  }
  AbortCleanupGtm2(id);
  attempts_.erase(id);
}

void Gtm1::ScheduleRetry(const Job& job, sim::Time delay) {
  EmitStep(job, obs::Step::kBackoff);
  loop_->Schedule(delay, Guarded([this, id = job.id]() { RetryJob(id); }));
}

sim::Time Gtm1::RetryDelay(const Job& job) {
  // Doubles per failed attempt, capped; jitter keeps retries of transactions
  // aborted together from colliding again. At one failure this reduces to
  // backoff + U[0, backoff], the original uniform scheme.
  sim::Time base = config_.retry_backoff;
  for (int i = 1; i < job.attempts && base < config_.retry_backoff_cap; ++i) {
    base *= 2;
  }
  base = std::min(base,
                  std::max(config_.retry_backoff_cap, config_.retry_backoff));
  return base + static_cast<sim::Time>(
                    rng_.NextBelow(static_cast<uint64_t>(base) + 1));
}

void Gtm1::RetryJob(int64_t job_id) {
  Job* job = FindJob(job_id);
  if (job == nullptr || job->parked) return;
  if (TouchesQuarantine(*job)) {
    ParkJob(job);
    return;
  }
  StartAttempt(job);
}

void Gtm1::ParkJob(Job* job) {
  job->parked = true;
  ++job->park_epoch;
  Log({.type = GtmLogRecordType::kPark, .job = job->id});
  events_.Emit({.kind = obs::TraceEventKind::kTxnParked, .txn = job->id,
                .a = job->attempts, .job = job->id});
  ArmParkTimeout(job);
}

void Gtm1::ArmParkTimeout(Job* job) {
  if (config_.quarantine_park_timeout <= 0) return;
  auto expire = [this, job_id = job->id, park_epoch = job->park_epoch]() {
    Job* parked = FindJob(job_id);
    if (parked == nullptr || !parked->parked ||
        parked->park_epoch != park_epoch) {
      return;
    }
    GlobalTxnResult result;
    result.status = Status::TransactionAborted(
        "parked waiting for site recovery beyond the park timeout");
    EndJob(parked, parked->current_attempt, GtmFinishOutcome::kParkTimeout,
           std::move(result));
  };
  loop_->Schedule(config_.quarantine_park_timeout, Guarded(std::move(expire)));
}

void Gtm1::OnSiteDown(SiteId site) {
  if (!quarantined_.insert(site).second) return;
  Log({.type = GtmLogRecordType::kSiteDown, .site = site.value()});
  // Collect first: FailAttempt erases from attempts_.
  std::vector<GlobalTxnId> doomed;
  for (const auto& [id, attempt] : attempts_) {
    if (attempt->failed || attempt->committing) continue;
    const std::vector<SiteId> sites = attempt->job->spec.Sites();
    if (std::find(sites.begin(), sites.end(), site) != sites.end()) {
      doomed.push_back(id);
    }
  }
  for (GlobalTxnId id : doomed) {
    FailAttempt(id,
                Status::TransactionAborted(
                    "site " + std::to_string(site.value()) + " down"),
                GtmAttemptFailReason::kSiteDown);
  }
}

void Gtm1::OnSiteUp(SiteId site) {
  if (quarantined_.erase(site) == 0) return;
  Log({.type = GtmLogRecordType::kSiteUp, .site = site.value()});
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (job->parked && !TouchesQuarantine(*job)) UnparkJob(job.get());
  }
}

void Gtm1::UnparkJob(Job* job) {
  job->parked = false;
  ++job->park_epoch;  // Invalidate the park timeout.
  Log({.type = GtmLogRecordType::kUnpark, .job = job->id});
  events_.Emit({.kind = obs::TraceEventKind::kTxnUnparked, .txn = job->id,
                .a = job->attempts});
  // Jittered resume so a herd of parked transactions doesn't stampede the
  // recovering site; RetryJob re-checks quarantine at fire time.
  const uint64_t jitter = static_cast<uint64_t>(config_.retry_backoff) + 1;
  ScheduleRetry(*job, 1 + static_cast<sim::Time>(rng_.NextBelow(jitter)));
}

bool Gtm1::IsQuarantined(SiteId site) const {
  return quarantined_.count(site) > 0;
}

int64_t Gtm1::ParkedJobs() const {
  int64_t parked = 0;
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (job->parked) ++parked;
  }
  return parked;
}

bool Gtm1::TouchesQuarantine(const Job& job) const {
  if (quarantined_.empty()) return false;
  for (SiteId site : job.spec.Sites()) {
    if (quarantined_.count(site) > 0) return true;
  }
  return false;
}

void Gtm1::EndJob(Job* job, GlobalTxnId attempt_id, GtmFinishOutcome outcome,
                  GlobalTxnResult result) {
  // The kTxnFail detail of each failed outcome, by its byte.
  static constexpr const char* kFailDetail[] = {
      nullptr, "gave_up", "partial_commit", "park_timeout"};
  obs::TraceEventKind kind = obs::TraceEventKind::kTxnFail;
  if (outcome == GtmFinishOutcome::kCommitted) {
    kind = obs::TraceEventKind::kTxnCommit;
  }
  events_.Emit({.kind = kind, .txn = attempt_id.value(), .a = job->id,
                .b = job->attempts,
                .detail = kFailDetail[static_cast<size_t>(outcome)],
                .job = job->id});
  if (outcome == GtmFinishOutcome::kPartial) {
    // Sites [0, commit_next] committed or refused; abort the rest.
    const Attempt& attempt = *FindAttempt(attempt_id);
    for (size_t i = attempt.commit_next + 1; i < attempt.begun_sites.size();
         ++i) {
      SiteId rest = attempt.begun_sites[i];
      gateway_->Abort(rest, attempt.sub_ids.at(rest), [](const Status&) {});
    }
    AbortCleanupGtm2(attempt_id);
  }
  Log({.type = GtmLogRecordType::kFinish, .job = job->id,
       .index = job->attempts, .code = static_cast<uint8_t>(outcome)});
  attempts_.erase(attempt_id);
  result.attempts = job->attempts;
  result.submit_time = job->submit_time;
  result.finish_time = loop_->now();
  --in_flight_;
  ResultCallback cb = std::move(job->cb);
  auto it = std::find_if(
      jobs_.begin(), jobs_.end(),
      [job](const std::unique_ptr<Job>& owned) { return owned.get() == job; });
  MDBS_CHECK(it != jobs_.end());
  jobs_.erase(it);
  if (cb) cb(result);
}

Gtm1::Attempt* Gtm1::FindAttempt(GlobalTxnId attempt_id) {
  auto it = attempts_.find(attempt_id);
  return it == attempts_.end() ? nullptr : it->second.get();
}

Gtm1::Job* Gtm1::FindJob(int64_t job_id) {
  for (const std::unique_ptr<Job>& job : jobs_) {
    if (job->id == job_id) return job.get();
  }
  return nullptr;
}

Gtm1::Clients Gtm1::Crash() {
  // Invalidate every scheduled lambda and in-flight gateway callback: a
  // pre-crash timer or site ack must not drive post-recovery state.
  ++epoch_;
  events_.Emit({.kind = obs::TraceEventKind::kGtmCrash,
                .a = static_cast<int64_t>(attempts_.size()),
                .b = static_cast<int64_t>(jobs_.size())});
  Clients clients;
  for (std::unique_ptr<Job>& job : jobs_) {
    clients.emplace(job->id, Client{std::move(job->spec), std::move(job->cb),
                                    job->submit_time});
  }
  // in_flight_ survives: the jobs are not finished, merely forgotten until
  // Install() rebuilds them from the log.
  attempts_.clear();
  jobs_.clear();
  quarantined_.clear();
  stats_ = Gtm1Stats{};
  gtm2_->ResetForRecovery(MakeFreshScheme());
  return clients;
}

int64_t Gtm1::Install(const GtmLogAnalysis& analysis,
                      std::unique_ptr<Gtm2> gtm2, Clients clients,
                      const std::vector<SiteId>& down_sites) {
  gtm2_ = std::move(gtm2);
  gtm2_->Rebind(Gtm2Callbacks(), events_);
  next_txn_id_ = analysis.next_txn_id;
  next_attempt_id_ = analysis.next_attempt_id;
  next_job_id_ = analysis.next_job_id;
  stats_ = analysis.stats;
  if (config_.certified_fast_path) {
    stats_.fast_path_attempts = stats_.attempts;
  }
  // The health monitor's *current* view supersedes the logged quarantine
  // churn: sites went down and came back while the GTM was blind.
  quarantined_.clear();
  for (SiteId site : down_sites) quarantined_.insert(site);

  // Re-attach the clients to the unfinished jobs the log knows about. The
  // two views must agree exactly: a logged job without a client, or a
  // client whose job never reached the log, is a durability bug.
  for (const auto& [job_id, image] : analysis.jobs) {
    auto client = clients.find(job_id);
    MDBS_CHECK(client != clients.end())
        << "logged unfinished job " << job_id << " has no attached client";
    auto job = std::make_unique<Job>();
    job->id = image.id;
    job->spec = std::move(client->second.spec);
    job->cb = std::move(client->second.cb);
    job->attempts = static_cast<int>(image.attempts);
    job->submit_time = client->second.submit_time;
    job->parked = image.parked;
    jobs_.push_back(std::move(job));
    clients.erase(client);
  }
  MDBS_CHECK(clients.empty())
      << "client retained a job the log never admitted";
  MDBS_CHECK(in_flight_ == static_cast<int64_t>(jobs_.size()));

  int64_t aborted = 0;
  for (const auto& [attempt_id, image] : analysis.attempts) {
    Job* job = FindJob(image.job);
    MDBS_CHECK(job != nullptr);
    auto owned = std::make_unique<Attempt>();
    Attempt* attempt = owned.get();
    attempt->id = GlobalTxnId(attempt_id);
    attempt->job = job;
    attempt->committing = image.committing;
    attempt->commit_next = static_cast<size_t>(image.commit_index);
    for (const auto& [site, sub] : image.subs) {
      attempt->begun_sites.emplace_back(site);
      attempt->sub_ids.emplace(SiteId(site), TxnId(sub));
    }
    for (const auto& read : image.reads) {
      attempt->reads[{SiteId(read[0]), DataItemId(read[1])}] = read[2];
    }
    attempts_.emplace(attempt->id, std::move(owned));
    if (image.committing) {
      // Validation passed before the crash: the global commit is decided.
      // Resume() forward-rolls the fan-out from the logged commit cursor
      // (site Commit is idempotent).
      job->current_attempt = attempt->id;
    } else {
      // In flight but undecided at the crash: abort it and retry fresh —
      // the safe default for an attempt whose site-side fate is unknown.
      RetireAttempt(attempt, GtmAttemptFailReason::kGtmCrash);
      ++aborted;
    }
  }
  return aborted;
}

int64_t Gtm1::Resume() {
  int64_t resumed_commits = 0;
  // Collect ids first: CommitNextSite on an attempt whose fan-out already
  // finished every site completes the job synchronously, erasing it from
  // jobs_ under our feet.
  std::vector<int64_t> job_ids;
  job_ids.reserve(jobs_.size());
  for (const std::unique_ptr<Job>& job : jobs_) job_ids.push_back(job->id);
  for (int64_t job_id : job_ids) {
    Job* job = FindJob(job_id);
    if (job == nullptr) continue;
    Attempt* attempt = FindAttempt(job->current_attempt);
    if (attempt != nullptr) {
      // Forward-roll the decided commit from its logged cursor.
      ++resumed_commits;
      CommitNextSite(attempt->id, attempt->commit_next);
      continue;
    }
    if (job->parked) {
      if (!TouchesQuarantine(*job)) {
        // The blocking site recovered during the outage: unpark now.
        UnparkJob(job);
      } else {
        EmitStep(*job, obs::Step::kPark);
        // The pre-crash park timer died with the crash; the timeout
        // restarts from recovery time.
        ArmParkTimeout(job);
      }
      continue;
    }
    // Backoff / freshly-aborted jobs retry on the normal schedule.
    ScheduleRetry(*job, RetryDelay(*job));
  }
  return resumed_commits;
}

}  // namespace mdbs::gtm
