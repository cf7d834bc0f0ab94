#include "gtm/gtm1.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "gtm/gtm_log.h"

namespace mdbs::gtm {

namespace {

/// Reads the whole GTM log on `device` and cuts a torn tail off it, so the
/// next append starts on a frame boundary.
GtmLogScan ReadLogCuttingTornTail(storage::LogDevice* device) {
  GtmLogScan scan;
  Status read = ReadGtmLog(*device, &scan);
  MDBS_CHECK(read.ok()) << read.message();
  if (scan.torn_tail) device->Truncate(static_cast<int64_t>(scan.valid_bytes));
  return scan;
}

}  // namespace

Gtm1::Gtm1(const Gtm1Config& config, sim::TaskRunner* loop,
           SiteGateway* gateway, uint64_t seed, const obs::EventSink& events)
    : config_(config),
      loop_(loop),
      gateway_(gateway),
      events_(events),
      gtm2_events_(events),
      rng_(seed) {
  Gtm2::Callbacks callbacks;
  // All four callbacks are muted during WAL replay (the live run already
  // performed their side effects) and the deferred ones capture the crash
  // epoch so a pre-crash pump cannot drive post-recovery state.
  callbacks.release_ser = [this](GlobalTxnId txn, SiteId site) {
    if (replaying_) return;
    OnSerReleased(txn, site);
  };
  callbacks.forward_ack = [this](GlobalTxnId txn, SiteId site) {
    if (replaying_) return;
    OnAckForwarded(txn, site);
  };
  callbacks.validate_passed = [this](GlobalTxnId txn) {
    if (replaying_) return;
    // Defer: validate_passed fires inside the GTM2 pump.
    int64_t epoch = epoch_;
    loop_->Schedule(0, [this, txn, epoch]() {
      if (epoch != epoch_) return;
      OnValidatePassed(txn);
    });
  };
  callbacks.abort_txn = [this](GlobalTxnId txn) {
    if (replaying_) return;
    int64_t epoch = epoch_;
    loop_->Schedule(0, [this, txn, epoch]() {
      if (epoch != epoch_) return;
      FailAttempt(txn, Status::TransactionAborted("GTM scheme abort"),
                  /*scheme_demanded=*/true);
    });
  };
  gtm2_ = std::make_unique<Gtm2>(MakeFreshScheme(), std::move(callbacks),
                                 gtm2_events_);
  fence_ = config_.fence != nullptr ? config_.fence
                                    : std::make_shared<FencingToken>();
  fence_held_ = fence_->epoch;
  if (config_.durable) {
    MDBS_CHECK(gtm2_->scheme().SupportsSnapshot())
        << "durable GTM requires a snapshot-capable scheme; "
        << gtm2_->scheme().Name() << " is not (Schemes 0-3 and the "
        << "certified fast path are)";
    wal_device_ = config_.wal_device != nullptr
                      ? config_.wal_device
                      : std::make_shared<storage::MemLogDevice>();
    wal_ = std::make_unique<GtmLogWriter>(wal_device_.get());
    wal_->SetSyncConfig(config_.wal_sync);
  }
  if (config_.standby) {
    MDBS_CHECK(config_.durable) << "a warm standby requires a durable GTM";
    // Passive until Promote(): down (submissions would be buffered, but the
    // facade never routes any here) and permanently "replaying" — shadow
    // GTM2 mutations must neither log, nor drive GTM1 callbacks, nor emit
    // events the primary already emitted.
    standby_ = true;
    down_ = true;
    replaying_ = true;
    MuteGtm2(true);
    standby_replayer_ = std::make_unique<GtmLogReplayer>();
  }
}

Gtm1::~Gtm1() = default;

std::unique_ptr<Scheme> Gtm1::MakeFreshScheme() const {
  return config_.scheme_factory ? config_.scheme_factory()
                                : MakeScheme(config_.scheme);
}

GtmDurabilityStats Gtm1::durability_stats() const {
  GtmDurabilityStats stats = durability_stats_;
  if (wal_ != nullptr) {
    stats.wal_records = wal_->records_written();
    stats.wal_bytes = wal_->bytes_written();
    stats.wal_syncs = wal_->syncs();
  }
  return stats;
}

GtmStandbyStats Gtm1::standby_stats() const {
  GtmStandbyStats stats = standby_stats_;
  stats.fencing_epoch = fence_->epoch;
  stats.stale_rejections = fence_->stale_rejections;
  return stats;
}

void Gtm1::SetWalShipper(
    std::function<void(int64_t seq, std::vector<uint8_t> frame)> shipper) {
  if (wal_ != nullptr) wal_->SetShipper(std::move(shipper));
}

void Gtm1::LogRecord(const GtmLogRecord& record) {
  if (wal_ == nullptr || replaying_) return;
  wal_->Append(record);
  MaybeScheduleCheckpoint();
}

void Gtm1::EnqueueGtm2(QueueOp op) {
  if (wal_ != nullptr && !replaying_) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kEnqueue;
    record.op = op;
    LogRecord(record);
  }
  gtm2_->Enqueue(std::move(op));
  if (gtm2_observer_) gtm2_observer_();
}

void Gtm1::AbortCleanupGtm2(GlobalTxnId txn) {
  if (wal_ != nullptr && !replaying_) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kAbortCleanup;
    record.attempt = txn.value();
    LogRecord(record);
  }
  gtm2_->AbortCleanup(txn);
  if (gtm2_observer_) gtm2_observer_();
}

void Gtm1::MaybeScheduleCheckpoint() {
  if (config_.checkpoint_interval <= 0 || checkpoint_scheduled_) return;
  if (wal_->records_since_checkpoint() < config_.checkpoint_interval) return;
  // Deferred to a strand-turn boundary, where GTM2's QUEUE is provably
  // empty and the volatile image is exactly WAIT + dead set + scheme DS.
  checkpoint_scheduled_ = true;
  int64_t epoch = epoch_;
  loop_->Schedule(0, [this, epoch]() {
    checkpoint_scheduled_ = false;
    if (epoch != epoch_ || down_) return;
    TakeCheckpoint();
  });
}

void Gtm1::TakeCheckpoint() {
  GtmLogRecord record;
  record.type = GtmLogRecordType::kCheckpoint;
  GtmCheckpoint* cp = &record.checkpoint;
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
  LogRecord(record);
  ++durability_stats_.checkpoints;
}

void Gtm1::MuteGtm2(bool muted) {
  gtm2_events_ = muted ? obs::EventSink() : events_;
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
  if (down_) {
    // The GTM is crashed or still replaying: the client's submission rides
    // out the outage in the admission buffer and is admitted, in arrival
    // order, when the recovered GTM resumes.
    ++durability_stats_.buffered_submits;
    pending_submits_.push_back(PendingSubmit{std::move(spec), std::move(cb)});
    return;
  }
  ++stats_.submitted;
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
  if (wal_ != nullptr) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kSubmit;
    record.job = job->id;
    record.time = job->submit_time;
    LogRecord(record);
  }
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
  // Certified fast path: the ser-op machinery exists to order what the
  // analyzer proved cannot become cyclic, so no step is a ser operation
  // (none routes through GTM2) and no ticket is injected.
  if (config_.certified_fast_path) {
    for (size_t i = 0; i < spec.ops.size(); ++i) {
      SiteId site = spec.ops[i].site;
      if (std::find(seen.begin(), seen.end(), site) == seen.end()) {
        seen.push_back(site);
        steps.push_back(Step{Step::Kind::kBegin, site, 0, false});
      }
      steps.push_back(Step{Step::Kind::kData, site, i, false});
    }
    return steps;
  }
  for (size_t i = 0; i < spec.ops.size(); ++i) {
    SiteId site = spec.ops[i].site;
    SerPointKind ser_point = SerPointKindFor(gateway_->ProtocolAt(site));
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
  ++stats_.attempts;
  auto attempt = std::make_unique<Attempt>();
  attempt->id = GlobalTxnId(next_attempt_id_++);
  attempt->job = job;
  attempt->steps = BuildSteps(job->spec);
  job->current_attempt = attempt->id;
  GlobalTxnId attempt_id = attempt->id;
  std::vector<SiteId> sites = job->spec.Sites();
  attempts_[attempt_id] = std::move(attempt);
  if (wal_ != nullptr) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kAttemptStart;
    record.attempt = attempt_id.value();
    record.job = job->id;
    record.index = job->attempts;
    LogRecord(record);
  }
  events_.Emit({.kind = obs::TraceEventKind::kAttemptStart,
                .txn = attempt_id.value(), .a = job->id, .b = job->attempts,
                .job = job->id});
  if (config_.certified_fast_path) {
    ++stats_.fast_path_attempts;
    events_.Emit({.kind = obs::TraceEventKind::kDowngrade,
                  .txn = attempt_id.value(), .a = job->id});
  }

  if (config_.attempt_timeout > 0) {
    int64_t epoch = epoch_;
    loop_->Schedule(config_.attempt_timeout, [this, attempt_id, epoch]() {
      if (epoch != epoch_) return;
      Attempt* timed_out = FindAttempt(attempt_id);
      if (timed_out == nullptr || timed_out->failed ||
          timed_out->committing) {
        return;
      }
      ++stats_.timeouts;
      events_.Emit({.kind = obs::TraceEventKind::kAttemptTimeout,
                    .txn = attempt_id.value()});
      FailAttempt(attempt_id,
                  Status::TransactionAborted("attempt timed out"),
                  /*scheme_demanded=*/false);
    });
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
                  FailAttempt(attempt_id, status, /*scheme_demanded=*/false);
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
                  FailAttempt(attempt_id, status, /*scheme_demanded=*/false);
                  return;
                }
                // The server inserts the ack into QUEUE (paper §4).
                EnqueueGtm2(QueueOp::Ack(attempt_id, site));
              });
}

void Gtm1::OnAckForwarded(GlobalTxnId attempt_id, SiteId) {
  // Deferred: forward_ack fires inside the GTM2 pump.
  int64_t epoch = epoch_;
  loop_->Schedule(0, [this, attempt_id, epoch]() {
    if (epoch != epoch_) return;
    Attempt* attempt = FindAttempt(attempt_id);
    if (attempt == nullptr || attempt->failed) return;
    ++attempt->next_step;
    AdvanceStep(attempt_id);
  });
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
      if (wal_ != nullptr) {
        GtmLogRecord record;
        record.type = GtmLogRecordType::kBeginSite;
        record.attempt = attempt_id.value();
        record.site = step.site.value();
        record.sub = sub_id.value();
        LogRecord(record);
      }
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
                            if (wal_ != nullptr) {
                              GtmLogRecord record;
                              record.type = GtmLogRecordType::kRead;
                              record.attempt = attempt_id.value();
                              record.site = site.value();
                              record.item = op.item.value();
                              record.value = value;
                              LogRecord(record);
                            }
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
  if (wal_ != nullptr) {
    // Once this record is durable, a crashed GTM forward-rolls the commit
    // fan-out (site commits are idempotent) instead of aborting.
    GtmLogRecord record;
    record.type = GtmLogRecordType::kCommitStart;
    record.attempt = attempt_id.value();
    LogRecord(record);
  }
  CommitNextSite(attempt_id, 0);
}

void Gtm1::CommitNextSite(GlobalTxnId attempt_id, size_t index) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  attempt->commit_next = index;
  if (index == attempt->begun_sites.size()) {
    // Fully committed.
    EnqueueGtm2(QueueOp::Fin(attempt_id));
    Job* job = attempt->job;
    ++stats_.committed;
    if (wal_ != nullptr) {
      GtmLogRecord record;
      record.type = GtmLogRecordType::kFinish;
      record.job = job->id;
      record.code = static_cast<uint8_t>(GtmFinishOutcome::kCommitted);
      record.index = job->attempts;
      LogRecord(record);
    }
    events_.Emit({.kind = obs::TraceEventKind::kTxnCommit,
                  .txn = attempt_id.value(), .a = job->id, .b = job->attempts,
                  .job = job->id});
    GlobalTxnResult result;
    result.status = Status::OK();
    result.attempts = job->attempts;
    result.submit_time = job->submit_time;
    result.finish_time = loop_->now();
    result.reads = std::move(attempt->reads);
    result.gtm_epoch = fence_->epoch;
    attempts_.erase(attempt_id);
    FinishJob(job, std::move(result));
    return;
  }
  SiteId site = attempt->begun_sites[index];
  TxnId sub_id = attempt->sub_ids.at(site);
  EmitStep(*attempt->job, obs::Step::kCommit);
  // The epoch guard matters here more than anywhere: after a crash the
  // recovered GTM re-drives this very attempt id from its logged commit
  // index, and a stale pre-crash ack racing the re-driven fan-out would
  // advance the cursor twice. The fence guard is its cross-instance twin:
  // after a failover the promoted standby re-drives the fan-out, and an
  // ack still in flight to the fenced old primary must be rejected (and
  // counted) rather than advance a cursor no longer authoritative.
  int64_t epoch = epoch_;
  int64_t fence = fence_->epoch;
  gateway_->Commit(
      site, sub_id,
      [this, attempt_id, index, sub_id, epoch, fence](const Status& status) {
        if (fence != fence_->epoch) {
          ++fence_->stale_rejections;
          return;
        }
        if (epoch != epoch_) return;
        Attempt* committing = FindAttempt(attempt_id);
        if (committing == nullptr || committing->failed) return;
        events_.Emit({.kind = obs::TraceEventKind::kRoundTripEnd,
                      .txn = sub_id.value(), .job = committing->job->id});
        if (status.ok()) {
          if (wal_ != nullptr) {
            GtmLogRecord record;
            record.type = GtmLogRecordType::kCommitSite;
            record.attempt = attempt_id.value();
            record.index = static_cast<int64_t>(index);
            LogRecord(record);
          }
          CommitNextSite(attempt_id, index + 1);
          return;
        }
        // Local validation failed at commit (OCC).
        if (index == 0) {
          // Nothing committed yet: the attempt is cleanly retryable.
          committing->committing = false;
          FailAttempt(attempt_id, status, /*scheme_demanded=*/false);
          return;
        }
        // Some subtransactions already committed: atomic commitment is out
        // of the paper's scope, so report a partial commit and do not retry
        // (a retry would double-apply the committed sites' effects).
        ++stats_.partial_commits;
        Job* job = committing->job;
        events_.Emit({.kind = obs::TraceEventKind::kTxnFail,
                      .txn = attempt_id.value(), .a = job->id,
                      .b = job->attempts, .detail = "partial_commit",
                      .job = job->id});
        // Abort the rest.
        for (size_t i = index + 1; i < committing->begun_sites.size(); ++i) {
          SiteId rest = committing->begun_sites[i];
          gateway_->Abort(rest, committing->sub_ids.at(rest),
                          [](const Status&) {});
        }
        AbortCleanupGtm2(attempt_id);
        if (wal_ != nullptr) {
          GtmLogRecord record;
          record.type = GtmLogRecordType::kFinish;
          record.job = job->id;
          record.code = static_cast<uint8_t>(GtmFinishOutcome::kPartial);
          record.index = job->attempts;
          LogRecord(record);
        }
        GlobalTxnResult result;
        result.status =
            Status::TransactionAborted("partial commit: " + status.message());
        result.attempts = job->attempts;
        result.submit_time = job->submit_time;
        result.finish_time = loop_->now();
        result.retry_safe = false;
        result.gtm_epoch = fence_->epoch;
        attempts_.erase(attempt_id);
        ++stats_.failed;
        FinishJob(job, std::move(result));
      });
}

void Gtm1::FailAttempt(GlobalTxnId attempt_id, const Status& reason,
                       bool scheme_demanded) {
  Attempt* attempt = FindAttempt(attempt_id);
  if (attempt == nullptr || attempt->failed) return;
  attempt->failed = true;
  ++stats_.aborted_attempts;
  if (scheme_demanded) ++stats_.scheme_aborts;
  const std::string& msg = reason.message();
  bool by_timeout = msg == "attempt timed out";
  bool by_site_down =
      msg.size() > 5 && msg.compare(msg.size() - 5, 5, " down") == 0;
  const char* why = scheme_demanded ? "scheme"
                    : by_timeout    ? "timeout"
                    : by_site_down  ? "site_down"
                                    : "site";
  events_.Emit({.kind = obs::TraceEventKind::kAttemptAbort,
                .txn = attempt_id.value(), .a = attempt->job->id,
                .b = attempt->job->attempts, .detail = why,
                .job = attempt->job->id});
  if (wal_ != nullptr) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kAttemptFail;
    record.attempt = attempt_id.value();
    record.code =
        static_cast<uint8_t>(scheme_demanded ? GtmAttemptFailReason::kScheme
                             : by_timeout    ? GtmAttemptFailReason::kTimeout
                             : by_site_down  ? GtmAttemptFailReason::kSiteDown
                                             : GtmAttemptFailReason::kSite);
    LogRecord(record);
  }

  // Abort every begun subtransaction (idempotent at the sites).
  for (SiteId site : attempt->begun_sites) {
    gateway_->Abort(site, attempt->sub_ids.at(site), [](const Status&) {});
  }
  AbortCleanupGtm2(attempt_id);

  Job* job = attempt->job;
  attempts_.erase(attempt_id);
  if (job->attempts >= config_.max_attempts) {
    ++stats_.failed;
    if (wal_ != nullptr) {
      GtmLogRecord record;
      record.type = GtmLogRecordType::kFinish;
      record.job = job->id;
      record.code = static_cast<uint8_t>(GtmFinishOutcome::kGaveUp);
      record.index = job->attempts;
      LogRecord(record);
    }
    events_.Emit({.kind = obs::TraceEventKind::kTxnFail,
                  .txn = attempt_id.value(), .a = job->id, .b = job->attempts,
                  .detail = "gave_up", .job = job->id});
    GlobalTxnResult result;
    result.status = Status::TransactionAborted(
        "gave up after " + std::to_string(job->attempts) +
        " attempts; last: " + reason.ToString());
    result.attempts = job->attempts;
    result.submit_time = job->submit_time;
    result.finish_time = loop_->now();
    result.gtm_epoch = fence_->epoch;
    FinishJob(job, std::move(result));
    return;
  }
  // Randomized backoff, then a fresh attempt (or a park, if a site the job
  // needs was quarantined in the meantime).
  int64_t job_id = job->id;
  EmitStep(*job, obs::Step::kBackoff);
  int64_t epoch = epoch_;
  loop_->Schedule(RetryDelay(*job), [this, job_id, epoch]() {
    if (epoch != epoch_) return;
    RetryJob(job_id);
  });
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
  ++stats_.parked;
  if (wal_ != nullptr) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kPark;
    record.job = job->id;
    LogRecord(record);
  }
  events_.Emit({.kind = obs::TraceEventKind::kTxnParked, .txn = job->id,
                .a = job->attempts, .job = job->id});
  ArmParkTimeout(job);
}

void Gtm1::ArmParkTimeout(Job* job) {
  if (config_.quarantine_park_timeout <= 0) return;
  int64_t job_id = job->id;
  int64_t park_epoch = job->park_epoch;
  int64_t epoch = epoch_;
  loop_->Schedule(config_.quarantine_park_timeout,
                  [this, job_id, park_epoch, epoch]() {
    if (epoch != epoch_) return;
    Job* parked = FindJob(job_id);
    if (parked == nullptr || !parked->parked ||
        parked->park_epoch != park_epoch) {
      return;
    }
    ++stats_.park_timeouts;
    ++stats_.failed;
    if (wal_ != nullptr) {
      GtmLogRecord record;
      record.type = GtmLogRecordType::kFinish;
      record.job = parked->id;
      record.code = static_cast<uint8_t>(GtmFinishOutcome::kParkTimeout);
      record.index = parked->attempts;
      LogRecord(record);
    }
    events_.Emit({.kind = obs::TraceEventKind::kTxnFail,
                  .txn = parked->current_attempt.value(), .a = parked->id,
                  .b = parked->attempts, .detail = "park_timeout",
                  .job = parked->id});
    GlobalTxnResult result;
    result.status = Status::TransactionAborted(
        "parked waiting for site recovery beyond the park timeout");
    result.attempts = parked->attempts;
    result.submit_time = parked->submit_time;
    result.finish_time = loop_->now();
    result.gtm_epoch = fence_->epoch;
    FinishJob(parked, std::move(result));
  });
}

void Gtm1::OnSiteDown(SiteId site) {
  // While the GTM itself is down, site churn is invisible to it; Recover()
  // takes the health monitor's current view instead of replaying this churn.
  if (down_) return;
  if (!quarantined_.insert(site).second) return;
  if (wal_ != nullptr) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kSiteDown;
    record.site = site.value();
    LogRecord(record);
  }
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
    ++stats_.site_down_aborts;
    FailAttempt(id,
                Status::TransactionAborted(
                    "site " + std::to_string(site.value()) + " down"),
                /*scheme_demanded=*/false);
  }
}

void Gtm1::OnSiteUp(SiteId site) {
  if (down_) return;
  if (quarantined_.erase(site) == 0) return;
  if (wal_ != nullptr) {
    GtmLogRecord record;
    record.type = GtmLogRecordType::kSiteUp;
    record.site = site.value();
    LogRecord(record);
  }
  for (const std::unique_ptr<Job>& owned : jobs_) {
    Job* job = owned.get();
    if (!job->parked || TouchesQuarantine(*job)) continue;
    job->parked = false;
    ++job->park_epoch;  // Invalidate the park timeout.
    ++stats_.unparked;
    if (wal_ != nullptr) {
      GtmLogRecord record;
      record.type = GtmLogRecordType::kUnpark;
      record.job = job->id;
      LogRecord(record);
    }
    events_.Emit({.kind = obs::TraceEventKind::kTxnUnparked, .txn = job->id,
                  .a = job->attempts});
    // Jittered resume so a herd of parked transactions doesn't stampede the
    // recovering site; RetryJob re-checks quarantine at fire time.
    int64_t job_id = job->id;
    sim::Time delay =
        1 + static_cast<sim::Time>(rng_.NextBelow(
                static_cast<uint64_t>(config_.retry_backoff) + 1));
    int64_t epoch = epoch_;
    loop_->Schedule(delay, [this, job_id, epoch]() {
      if (epoch != epoch_) return;
      RetryJob(job_id);
    });
  }
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

void Gtm1::FinishJob(Job* job, GlobalTxnResult result) {
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

void Gtm1::Crash() {
  MDBS_CHECK(config_.durable) << "Crash() requires Gtm1Config::durable";
  if (down_) return;
  down_ = true;
  // Invalidate every scheduled lambda and in-flight gateway callback: a
  // pre-crash timer or site ack must not drive post-recovery state.
  ++epoch_;
  checkpoint_scheduled_ = false;
  ++durability_stats_.crashes;
  events_.Emit({.kind = obs::TraceEventKind::kGtmCrash,
                .a = static_cast<int64_t>(attempts_.size()),
                .b = static_cast<int64_t>(jobs_.size())});
  // The clients outlive the GTM: model them retaining their specs, result
  // callbacks and submit times across the outage (closures are not
  // serializable, so the log cannot carry them).
  client_registry_.clear();
  for (std::unique_ptr<Job>& job : jobs_) {
    ClientEntry entry;
    entry.spec = std::move(job->spec);
    entry.cb = std::move(job->cb);
    entry.submit_time = job->submit_time;
    client_registry_.emplace(job->id, std::move(entry));
  }
  // in_flight_ survives: the jobs are not finished, merely forgotten until
  // Recover() rebuilds them from the log.
  attempts_.clear();
  jobs_.clear();
  quarantined_.clear();
  stats_ = Gtm1Stats{};
  gtm2_->ResetForRecovery(MakeFreshScheme());
}

void Gtm1::Recover(const std::vector<SiteId>& down_sites) {
  if (!down_ || recovering_) return;
  if (fence_held_ != fence_->epoch) {
    // A standby was promoted past this instance while it was down: it is
    // fenced out and must stay dead — recovering would put two GTMs in
    // charge of the same jobs (split brain). Counted, refused.
    ++fence_->stale_rejections;
    return;
  }
  recovering_ = true;
  ++durability_stats_.recoveries;

  GtmLogScan scan = ReadLogCuttingTornTail(wal_device_.get());
  GtmLogAnalysis analysis;
  Status analyzed = AnalyzeGtmLog(scan.records, &analysis);
  MDBS_CHECK(analyzed.ok()) << analyzed.message();

  // Rebuild GTM2 (WAIT, dead set, scheme DS) by replaying the log from its
  // latest checkpoint, whose image supersedes every earlier mutation.
  // GTM2 is muted so replay emits no events; the audit stays on.
  replaying_ = true;
  MuteGtm2(true);
  size_t first = analysis.checkpoint_index == GtmLogAnalysis::kNoCheckpoint
                     ? 0
                     : analysis.checkpoint_index;
  auto fresh_scheme = [this]() { return MakeFreshScheme(); };
  for (size_t i = first; i < scan.records.size(); ++i) {
    if (ReplayIntoGtm2(scan.records[i], gtm2_.get(), fresh_scheme)) {
      ++durability_stats_.replayed_enqueues;
    }
  }
  MuteGtm2(false);
  replaying_ = false;

  InstallRecoveredState(analysis, down_sites, /*standby_promotion=*/false);
  ChargeReplayThenResume(static_cast<int64_t>(scan.records.size()),
                         static_cast<int64_t>(scan.valid_bytes),
                         /*promoted=*/false);
}

void Gtm1::ChargeReplayThenResume(int64_t records, int64_t bytes,
                                  bool promoted) {
  durability_stats_.replayed_records += records;
  durability_stats_.replayed_bytes += bytes;
  // Model the replay cost: the GTM stays down for a further base + per-record
  // delay before it resumes driving transactions.
  sim::Time delay = config_.recovery_base_time +
                    config_.recovery_time_per_record * records;
  durability_stats_.recovery_ticks += delay;
  int64_t epoch = epoch_;
  loop_->Schedule(delay, [this, epoch, records, promoted]() {
    if (epoch != epoch_) return;
    ResumeAfterRecovery(records, promoted);
  });
}

void Gtm1::InstallRecoveredState(const GtmLogAnalysis& analysis,
                                 const std::vector<SiteId>& down_sites,
                                 bool standby_promotion) {
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
    auto entry = client_registry_.find(job_id);
    MDBS_CHECK(entry != client_registry_.end())
        << "logged unfinished job " << job_id << " has no attached client";
    auto job = std::make_unique<Job>();
    job->id = image.id;
    job->spec = std::move(entry->second.spec);
    job->cb = std::move(entry->second.cb);
    job->attempts = static_cast<int>(image.attempts);
    job->submit_time = entry->second.submit_time;
    job->parked = image.parked;
    jobs_.push_back(std::move(job));
    client_registry_.erase(entry);
  }
  MDBS_CHECK(client_registry_.empty())
      << "client retained a job the log never admitted";
  MDBS_CHECK(in_flight_ == static_cast<int64_t>(jobs_.size()));

  for (const auto& [attempt_id, image] : analysis.attempts) {
    Job* job = FindJob(image.job);
    MDBS_CHECK(job != nullptr);
    if (image.committing) {
      // Validation passed before the crash: the global commit is decided.
      // Rebuild the attempt at its logged commit cursor; ResumeAfterRecovery
      // forward-rolls the fan-out (site Commit is idempotent).
      auto attempt = std::make_unique<Attempt>();
      attempt->id = GlobalTxnId(attempt_id);
      attempt->job = job;
      attempt->committing = true;
      attempt->commit_next = static_cast<size_t>(image.commit_index);
      for (const auto& [site, sub] : image.subs) {
        attempt->begun_sites.emplace_back(site);
        attempt->sub_ids.emplace(SiteId(site), TxnId(sub));
      }
      for (const auto& read : image.reads) {
        attempt->reads[{SiteId(read[0]), DataItemId(read[1])}] = read[2];
      }
      job->current_attempt = attempt->id;
      attempts_.emplace(attempt->id, std::move(attempt));
    } else {
      // In flight but undecided at the crash: abort the begun
      // sub-transactions (idempotent at the sites) and retry fresh — the
      // safe default for an attempt whose site-side fate is unknown.
      ++stats_.aborted_attempts;
      ++durability_stats_.recovery_aborted_attempts;
      for (const auto& [site, sub] : image.subs) {
        gateway_->Abort(SiteId(site), TxnId(sub), [](const Status&) {});
      }
      events_.Emit({.kind = obs::TraceEventKind::kAttemptAbort,
                    .txn = attempt_id, .a = job->id, .b = job->attempts,
                    .detail = "gtm_crash", .job = job->id});
      if (standby_promotion) {
        // The promoted standby's fresh WAL never admitted these attempts:
        // purge the shadow GTM2 directly and let the promotion checkpoint
        // capture the post-abort state instead of logging per-attempt
        // kAttemptFail/kAbortCleanup records.
        gtm2_->AbortCleanup(GlobalTxnId(attempt_id));
        if (gtm2_observer_) gtm2_observer_();
      } else {
        GtmLogRecord record;
        record.type = GtmLogRecordType::kAttemptFail;
        record.attempt = attempt_id;
        record.code = static_cast<uint8_t>(GtmAttemptFailReason::kGtmCrash);
        LogRecord(record);
        AbortCleanupGtm2(GlobalTxnId(attempt_id));
      }
      job->current_attempt = GlobalTxnId();
    }
  }
}

void Gtm1::ResumeAfterRecovery(int64_t replayed_records, bool promoted) {
  down_ = false;
  recovering_ = false;
  events_.Emit({.kind = promoted ? obs::TraceEventKind::kGtmPromote
                                 : obs::TraceEventKind::kGtmRecover,
                .a = replayed_records,
                .b = static_cast<int64_t>(jobs_.size())});
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
      ++durability_stats_.resumed_commits;
      CommitNextSite(attempt->id, attempt->commit_next);
      continue;
    }
    if (job->parked) {
      if (!TouchesQuarantine(*job)) {
        // The blocking site recovered during the outage: unpark now.
        job->parked = false;
        ++job->park_epoch;
        ++stats_.unparked;
        if (wal_ != nullptr) {
          GtmLogRecord record;
          record.type = GtmLogRecordType::kUnpark;
          record.job = job->id;
          LogRecord(record);
        }
        events_.Emit({.kind = obs::TraceEventKind::kTxnUnparked,
                      .txn = job->id, .a = job->attempts});
        EmitStep(*job, obs::Step::kBackoff);
        int64_t id = job->id;
        sim::Time delay =
            1 + static_cast<sim::Time>(rng_.NextBelow(
                    static_cast<uint64_t>(config_.retry_backoff) + 1));
        int64_t epoch = epoch_;
        loop_->Schedule(delay, [this, id, epoch]() {
          if (epoch != epoch_) return;
          RetryJob(id);
        });
      } else {
        EmitStep(*job, obs::Step::kPark);
        // The pre-crash park timer died with the crash; the timeout
        // restarts from recovery time.
        ArmParkTimeout(job);
      }
      continue;
    }
    // Backoff / freshly-aborted jobs retry on the normal schedule.
    EmitStep(*job, obs::Step::kBackoff);
    int64_t id = job->id;
    int64_t epoch = epoch_;
    loop_->Schedule(RetryDelay(*job), [this, id, epoch]() {
      if (epoch != epoch_) return;
      RetryJob(id);
    });
  }
  // Admit the submissions that arrived while the GTM was down, in arrival
  // order.
  std::vector<PendingSubmit> buffered = std::move(pending_submits_);
  pending_submits_.clear();
  for (PendingSubmit& pending : buffered) {
    Submit(std::move(pending.spec), std::move(pending.cb));
  }
}

void Gtm1::ReceiveShippedFrame(int64_t seq, std::vector<uint8_t> frame) {
  if (!standby_) {
    // Already promoted: this frame was shipped by the fenced primary's
    // final strand turns and its content is (at most) a prefix of what the
    // promotion already read from the durable log. Count and drop.
    ++standby_stats_.dropped_frames;
    return;
  }
  MDBS_CHECK(seq == standby_stats_.applied_records)
      << "shipped frame out of order: got seq " << seq << ", expected "
      << standby_stats_.applied_records
      << " (the shipping channel must be a FIFO)";
  storage::FrameScan scan;
  Status scanned = storage::ScanFrames(frame, &scan);
  MDBS_CHECK(scanned.ok() && !scan.torn_tail && scan.payloads.size() == 1)
      << "malformed shipped frame at seq " << seq;
  GtmLogRecord record;
  MDBS_CHECK(DecodeGtmLogPayload(frame.data() + scan.payloads[0].first,
                                 scan.payloads[0].second, &record))
      << "undecodable shipped frame at seq " << seq;
  ApplyStandbyRecord(record);
  standby_stats_.applied_bytes += static_cast<int64_t>(frame.size());
}

bool Gtm1::ApplyStandbyRecord(const GtmLogRecord& record) {
  size_t index = static_cast<size_t>(standby_stats_.applied_records++);
  Status applied = standby_replayer_->Apply(record, index);
  MDBS_CHECK(applied.ok()) << applied.message();
  // The shadow GTM2 replays the log from its head, so promotion starts from
  // the primary's exact WAIT / dead-set / scheme state. replaying_ keeps
  // the shadow's callbacks and logging mute.
  return ReplayIntoGtm2(record, gtm2_.get(),
                        [this]() { return MakeFreshScheme(); });
}

void Gtm1::Promote(Gtm1* primary, const std::vector<SiteId>& down_sites) {
  MDBS_CHECK(standby_) << "Promote() requires a standby GTM";
  MDBS_CHECK(primary->IsDown())
      << "refusing to promote a standby while the primary is live";
  ++standby_stats_.promotions;

  // Adopt the primary's clients: they retained their specs and callbacks
  // across the outage and re-attach to whoever answers — now this GTM. The
  // buffered submissions and in-flight accounting come along.
  client_registry_ = std::move(primary->client_registry_);
  primary->client_registry_.clear();
  in_flight_ = primary->in_flight_;
  primary->in_flight_ = 0;
  for (PendingSubmit& pending : primary->pending_submits_) {
    pending_submits_.push_back(std::move(pending));
  }
  primary->pending_submits_.clear();

  // The primary's durable log is the ground truth; the shipping channel
  // had delivered a prefix of it. Read the log, drop any torn tail, and
  // apply only the unshipped remainder — the lag that bounds this
  // failover's replay work, independent of total log length.
  GtmLogScan scan = ReadLogCuttingTornTail(primary->wal_device_.get());
  int64_t applied = standby_stats_.applied_records;
  MDBS_CHECK(applied <= static_cast<int64_t>(scan.records.size()))
      << "standby applied " << applied << " records but the primary's log "
      << "only holds " << scan.records.size();
  int64_t tail_records = static_cast<int64_t>(scan.records.size()) - applied;
  standby_stats_.lag_records = tail_records;
  standby_stats_.lag_bytes =
      static_cast<int64_t>(scan.valid_bytes) - standby_stats_.applied_bytes;

  // Fence: from here on, anything still acting under the old epoch — the
  // primary's in-flight gateway callbacks, a stray Recover() — is stale.
  ++fence_->epoch;
  fence_held_ = fence_->epoch;
  events_.Emit({.kind = obs::TraceEventKind::kGtmPromoteBegin,
                .a = fence_->epoch, .b = tail_records});

  for (size_t i = static_cast<size_t>(applied); i < scan.records.size(); ++i) {
    if (ApplyStandbyRecord(scan.records[i])) {
      ++durability_stats_.replayed_enqueues;
    }
  }

  // Become the active GTM: the shadow GTM2 goes live (unmuted), and the
  // recovered state installs exactly as Recover() would — minus
  // per-attempt logging, since the fresh WAL gets a full checkpoint below.
  standby_ = false;
  recovering_ = true;
  MuteGtm2(false);
  InstallRecoveredState(standby_replayer_->analysis(), down_sites,
                        /*standby_promotion=*/true);
  replaying_ = false;
  TakeCheckpoint();

  // Unavailability model: the promoted GTM pays for the tail it had to
  // read back, not for the primary's whole log — the warm-standby claim.
  ChargeReplayThenResume(tail_records, standby_stats_.lag_bytes,
                         /*promoted=*/true);
}

}  // namespace mdbs::gtm
