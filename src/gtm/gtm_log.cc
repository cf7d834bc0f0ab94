#include "gtm/gtm_log.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace mdbs::gtm {

namespace {

using storage::ByteCounter;
using storage::ByteWriter;
using storage::Cursor;

// The encoders below write into a storage::ByteCounter (sizing) or a
// storage::ByteWriter (writing in place).
template <typename Out>
void EncodeGtm1Stats(const Gtm1Stats& s, Out& out) {
  out.I64(s.submitted);
  out.I64(s.committed);
  out.I64(s.failed);
  out.I64(s.attempts);
  out.I64(s.aborted_attempts);
  out.I64(s.scheme_aborts);
  out.I64(s.timeouts);
  out.I64(s.partial_commits);
  out.I64(s.site_down_aborts);
  out.I64(s.parked);
  out.I64(s.unparked);
  out.I64(s.park_timeouts);
  out.I64(s.fast_path_attempts);
}

void DecodeGtm1Stats(Cursor* c, Gtm1Stats* s) {
  s->submitted = c->I64();
  s->committed = c->I64();
  s->failed = c->I64();
  s->attempts = c->I64();
  s->aborted_attempts = c->I64();
  s->scheme_aborts = c->I64();
  s->timeouts = c->I64();
  s->partial_commits = c->I64();
  s->site_down_aborts = c->I64();
  s->parked = c->I64();
  s->unparked = c->I64();
  s->park_timeouts = c->I64();
  s->fast_path_attempts = c->I64();
}

template <typename Out>
void EncodeGtm2Stats(const Gtm2Stats& s, Out& out) {
  out.I64(s.processed_ops);
  out.I64(s.wait_additions);
  out.I64(s.ser_wait_additions);
  out.I64(s.cond_evaluations);
  out.I64(s.failed_rescan_steps);
  out.I64(s.scheme_aborts);
}

void DecodeGtm2Stats(Cursor* c, Gtm2Stats* s) {
  s->processed_ops = c->I64();
  s->wait_additions = c->I64();
  s->ser_wait_additions = c->I64();
  s->cond_evaluations = c->I64();
  s->failed_rescan_steps = c->I64();
  s->scheme_aborts = c->I64();
}

template <typename Out>
void EncodeQueueOpInto(const QueueOp& op, Out& out) {
  out.U8(static_cast<uint8_t>(op.kind));
  out.I64(op.txn.value());
  out.I64(op.site.value());
  out.U32(static_cast<uint32_t>(op.sites.size()));
  for (SiteId site : op.sites) out.I64(site.value());
}

bool DecodeQueueOpFrom(Cursor* c, QueueOp* op) {
  uint8_t kind = c->U8();
  if (kind > static_cast<uint8_t>(QueueOpKind::kFin)) return false;
  op->kind = static_cast<QueueOpKind>(kind);
  op->txn = GlobalTxnId(c->I64());
  op->site = SiteId(c->I64());
  uint32_t n = c->U32();
  op->sites.clear();
  for (uint32_t i = 0; i < n && c->ok(); ++i) op->sites.emplace_back(c->I64());
  return c->ok();
}

template <typename Out>
void EncodeCheckpoint(const GtmCheckpoint& cp, Out& out) {
  out.I64(cp.next_txn_id);
  out.I64(cp.next_attempt_id);
  out.I64(cp.next_job_id);
  EncodeGtm1Stats(cp.gtm1_stats, out);
  out.U32(static_cast<uint32_t>(cp.jobs.size()));
  for (const GtmCheckpoint::JobImage& job : cp.jobs) {
    out.I64(job.id);
    out.I64(job.submit_time);
    out.I64(job.attempts);
    out.I64(job.current_attempt);
    out.U8(job.parked ? 1 : 0);
  }
  out.U32(static_cast<uint32_t>(cp.attempts.size()));
  for (const GtmCheckpoint::AttemptImage& attempt : cp.attempts) {
    out.I64(attempt.id);
    out.I64(attempt.job);
    out.U8(attempt.committing ? 1 : 0);
    out.I64(attempt.commit_index);
    out.U32(static_cast<uint32_t>(attempt.subs.size()));
    for (const auto& [site, sub] : attempt.subs) {
      out.I64(site);
      out.I64(sub);
    }
    out.U32(static_cast<uint32_t>(attempt.reads.size()));
    for (const auto& read : attempt.reads) {
      out.I64(read[0]);
      out.I64(read[1]);
      out.I64(read[2]);
    }
  }
  out.U32(static_cast<uint32_t>(cp.quarantined.size()));
  for (int64_t site : cp.quarantined) out.I64(site);
  const Gtm2::VolatileImage& gtm2 = cp.gtm2;
  out.U32(static_cast<uint32_t>(gtm2.wait.size()));
  for (const QueueOp& op : gtm2.wait) EncodeQueueOpInto(op, out);
  out.U32(static_cast<uint32_t>(gtm2.dead_txns.size()));
  for (int64_t txn : gtm2.dead_txns) out.I64(txn);
  EncodeGtm2Stats(gtm2.stats, out);
  out.I64(gtm2.scheme_steps);
  out.U32(static_cast<uint32_t>(gtm2.scheme_state.size()));
  out.Bytes(gtm2.scheme_state.data(), gtm2.scheme_state.size());
}

bool DecodeCheckpoint(Cursor* c, GtmCheckpoint* cp) {
  cp->next_txn_id = c->I64();
  cp->next_attempt_id = c->I64();
  cp->next_job_id = c->I64();
  DecodeGtm1Stats(c, &cp->gtm1_stats);
  uint32_t jobs = c->U32();
  for (uint32_t i = 0; i < jobs && c->ok(); ++i) {
    GtmCheckpoint::JobImage job;
    job.id = c->I64();
    job.submit_time = c->I64();
    job.attempts = c->I64();
    job.current_attempt = c->I64();
    job.parked = c->U8() != 0;
    cp->jobs.push_back(job);
  }
  uint32_t attempts = c->U32();
  for (uint32_t i = 0; i < attempts && c->ok(); ++i) {
    GtmCheckpoint::AttemptImage attempt;
    attempt.id = c->I64();
    attempt.job = c->I64();
    attempt.committing = c->U8() != 0;
    attempt.commit_index = c->I64();
    uint32_t subs = c->U32();
    for (uint32_t j = 0; j < subs && c->ok(); ++j) {
      int64_t site = c->I64();
      int64_t sub = c->I64();
      attempt.subs.emplace_back(site, sub);
    }
    uint32_t reads = c->U32();
    for (uint32_t j = 0; j < reads && c->ok(); ++j) {
      std::array<int64_t, 3> read;
      read[0] = c->I64();
      read[1] = c->I64();
      read[2] = c->I64();
      attempt.reads.push_back(read);
    }
    cp->attempts.push_back(std::move(attempt));
  }
  uint32_t quarantined = c->U32();
  for (uint32_t i = 0; i < quarantined && c->ok(); ++i) {
    cp->quarantined.push_back(c->I64());
  }
  Gtm2::VolatileImage* gtm2 = &cp->gtm2;
  uint32_t wait = c->U32();
  for (uint32_t i = 0; i < wait && c->ok(); ++i) {
    QueueOp op;
    if (!DecodeQueueOpFrom(c, &op)) return false;
    gtm2->wait.push_back(std::move(op));
  }
  uint32_t dead = c->U32();
  for (uint32_t i = 0; i < dead && c->ok(); ++i) {
    gtm2->dead_txns.push_back(c->I64());
  }
  DecodeGtm2Stats(c, &gtm2->stats);
  gtm2->scheme_steps = c->I64();
  uint32_t blob = c->U32();
  for (uint32_t i = 0; i < blob && c->ok(); ++i) {
    gtm2->scheme_state.push_back(c->U8());
  }
  return c->ok();
}

template <typename Out>
void EncodePayload(const GtmLogRecord& record, Out& out) {
  out.U8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case GtmLogRecordType::kSubmit:
      out.I64(record.job);
      out.I64(record.time);
      break;
    case GtmLogRecordType::kAttemptStart:
      out.I64(record.attempt);
      out.I64(record.job);
      out.I64(record.index);
      break;
    case GtmLogRecordType::kBeginSite:
      out.I64(record.attempt);
      out.I64(record.site);
      out.I64(record.sub);
      break;
    case GtmLogRecordType::kRead:
      out.I64(record.attempt);
      out.I64(record.site);
      out.I64(record.item);
      out.I64(record.value);
      break;
    case GtmLogRecordType::kEnqueue:
      EncodeQueueOpInto(record.op, out);
      break;
    case GtmLogRecordType::kAbortCleanup:
      out.I64(record.attempt);
      break;
    case GtmLogRecordType::kAttemptFail:
      out.I64(record.attempt);
      out.U8(record.code);
      break;
    case GtmLogRecordType::kCommitStart:
      out.I64(record.attempt);
      break;
    case GtmLogRecordType::kCommitSite:
      out.I64(record.attempt);
      out.I64(record.index);
      break;
    case GtmLogRecordType::kFinish:
      out.I64(record.job);
      out.U8(record.code);
      out.I64(record.index);
      break;
    case GtmLogRecordType::kPark:
    case GtmLogRecordType::kUnpark:
      out.I64(record.job);
      break;
    case GtmLogRecordType::kSiteDown:
    case GtmLogRecordType::kSiteUp:
      out.I64(record.site);
      break;
    case GtmLogRecordType::kCheckpoint:
      EncodeCheckpoint(record.checkpoint, out);
      break;
  }
}

size_t PayloadSize(const GtmLogRecord& record) {
  ByteCounter counter;
  EncodePayload(record, counter);
  return counter.size();
}

}  // namespace

bool DecodeGtmLogPayload(const uint8_t* data, size_t size,
                         GtmLogRecord* record) {
  Cursor c(data, size);
  uint8_t type = c.U8();
  if (type < static_cast<uint8_t>(GtmLogRecordType::kSubmit) ||
      type > static_cast<uint8_t>(GtmLogRecordType::kCheckpoint)) {
    return false;
  }
  record->type = static_cast<GtmLogRecordType>(type);
  switch (record->type) {
    case GtmLogRecordType::kSubmit:
      record->job = c.I64();
      record->time = c.I64();
      break;
    case GtmLogRecordType::kAttemptStart:
      record->attempt = c.I64();
      record->job = c.I64();
      record->index = c.I64();
      break;
    case GtmLogRecordType::kBeginSite:
      record->attempt = c.I64();
      record->site = c.I64();
      record->sub = c.I64();
      break;
    case GtmLogRecordType::kRead:
      record->attempt = c.I64();
      record->site = c.I64();
      record->item = c.I64();
      record->value = c.I64();
      break;
    case GtmLogRecordType::kEnqueue:
      if (!DecodeQueueOpFrom(&c, &record->op)) return false;
      break;
    case GtmLogRecordType::kAbortCleanup:
      record->attempt = c.I64();
      break;
    case GtmLogRecordType::kAttemptFail:
      record->attempt = c.I64();
      record->code = c.U8();
      break;
    case GtmLogRecordType::kCommitStart:
      record->attempt = c.I64();
      break;
    case GtmLogRecordType::kCommitSite:
      record->attempt = c.I64();
      record->index = c.I64();
      break;
    case GtmLogRecordType::kFinish:
      record->job = c.I64();
      record->code = c.U8();
      record->index = c.I64();
      break;
    case GtmLogRecordType::kPark:
    case GtmLogRecordType::kUnpark:
      record->job = c.I64();
      break;
    case GtmLogRecordType::kSiteDown:
    case GtmLogRecordType::kSiteUp:
      record->site = c.I64();
      break;
    case GtmLogRecordType::kCheckpoint:
      if (!DecodeCheckpoint(&c, &record->checkpoint)) return false;
      break;
  }
  return c.ok() && c.exhausted();
}

const char* GtmLogRecordTypeName(GtmLogRecordType type) {
  switch (type) {
    case GtmLogRecordType::kSubmit:
      return "submit";
    case GtmLogRecordType::kAttemptStart:
      return "attempt_start";
    case GtmLogRecordType::kBeginSite:
      return "begin_site";
    case GtmLogRecordType::kRead:
      return "read";
    case GtmLogRecordType::kEnqueue:
      return "enqueue";
    case GtmLogRecordType::kAbortCleanup:
      return "abort_cleanup";
    case GtmLogRecordType::kAttemptFail:
      return "attempt_fail";
    case GtmLogRecordType::kCommitStart:
      return "commit_start";
    case GtmLogRecordType::kCommitSite:
      return "commit_site";
    case GtmLogRecordType::kFinish:
      return "finish";
    case GtmLogRecordType::kPark:
      return "park";
    case GtmLogRecordType::kUnpark:
      return "unpark";
    case GtmLogRecordType::kSiteDown:
      return "site_down";
    case GtmLogRecordType::kSiteUp:
      return "site_up";
    case GtmLogRecordType::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeGtmLogRecord(const GtmLogRecord& record) {
  auto encode = [&](ByteWriter& out) { EncodePayload(record, out); };
  return storage::FrameEncoded(PayloadSize(record), encode);
}

Status ReadGtmLog(storage::LogDevice& device, GtmLogScan* out) {
  *out = GtmLogScan{};
  std::vector<uint8_t> image;
  Status status = device.ReadAll(&image);
  if (!status.ok()) return status;
  storage::FrameScan frames;
  status = storage::ScanFrames(image, &frames);
  if (!status.ok()) return status;
  out->valid_bytes = frames.valid_bytes;
  out->torn_tail = frames.torn_tail;
  out->records.reserve(frames.payloads.size());
  for (const auto& [offset, length] : frames.payloads) {
    GtmLogRecord record;
    if (!DecodeGtmLogPayload(image.data() + offset, length, &record)) {
      return Status::Internal(
          "GTM log corruption: undecodable frame at byte " +
          std::to_string(offset - 8));
    }
    out->records.push_back(std::move(record));
  }
  return Status::OK();
}

std::span<const uint8_t> GtmLogWriter::Append(const GtmLogRecord& record) {
  bool is_checkpoint = record.type == GtmLogRecordType::kCheckpoint;
  bool is_commit_point = is_checkpoint ||
                         record.type == GtmLogRecordType::kCommitStart ||
                         record.type == GtmLogRecordType::kFinish;
  auto encode = [&](ByteWriter& out) { EncodePayload(record, out); };
  return frames_.AppendEncoded(PayloadSize(record), encode, is_checkpoint,
                               is_commit_point);
}

namespace {

/// Applies one checkpoint record to the analysis accumulator.
void RestoreFromCheckpoint(const GtmCheckpoint& cp, GtmLogAnalysis* out) {
  out->next_txn_id = cp.next_txn_id;
  out->next_attempt_id = cp.next_attempt_id;
  out->next_job_id = cp.next_job_id;
  out->stats = cp.gtm1_stats;
  out->jobs.clear();
  for (const GtmCheckpoint::JobImage& job : cp.jobs) out->jobs[job.id] = job;
  out->attempts.clear();
  for (const GtmCheckpoint::AttemptImage& attempt : cp.attempts) {
    out->attempts[attempt.id] = attempt;
  }
  out->quarantined = cp.quarantined;
}

void InsertSorted(std::vector<int64_t>* values, int64_t value) {
  auto it = std::lower_bound(values->begin(), values->end(), value);
  if (it == values->end() || *it != value) values->insert(it, value);
}

void EraseSorted(std::vector<int64_t>* values, int64_t value) {
  auto it = std::lower_bound(values->begin(), values->end(), value);
  if (it != values->end() && *it == value) values->erase(it);
}

}  // namespace

Status GtmLogReplayer::Apply(const GtmLogRecord& r) {
  const size_t index = static_cast<size_t>(applied_++);
  GtmLogAnalysis* out = &analysis_;
  switch (r.type) {
    case GtmLogRecordType::kCheckpoint:
      RestoreFromCheckpoint(r.checkpoint, out);
      out->checkpoint_index = index;
      break;
    case GtmLogRecordType::kSubmit: {
      GtmCheckpoint::JobImage job;
      job.id = r.job;
      job.submit_time = r.time;
      out->jobs[r.job] = job;
      ++out->stats.submitted;
      out->next_job_id = std::max(out->next_job_id, r.job + 1);
      break;
    }
    case GtmLogRecordType::kAttemptStart: {
      auto job = out->jobs.find(r.job);
      if (job == out->jobs.end()) {
        return Status::Internal("GTM log: attempt_start for unknown job " +
                                std::to_string(r.job));
      }
      GtmCheckpoint::AttemptImage attempt;
      attempt.id = r.attempt;
      attempt.job = r.job;
      out->attempts[r.attempt] = std::move(attempt);
      job->second.attempts = r.index;
      job->second.current_attempt = r.attempt;
      job->second.parked = false;
      ++out->stats.attempts;
      out->next_attempt_id = std::max(out->next_attempt_id, r.attempt + 1);
      break;
    }
    case GtmLogRecordType::kBeginSite: {
      auto attempt = out->attempts.find(r.attempt);
      if (attempt == out->attempts.end()) {
        return Status::Internal("GTM log: begin_site for unknown attempt " +
                                std::to_string(r.attempt));
      }
      attempt->second.subs.emplace_back(r.site, r.sub);
      out->next_txn_id = std::max(out->next_txn_id, r.sub + 1);
      break;
    }
    case GtmLogRecordType::kRead: {
      auto attempt = out->attempts.find(r.attempt);
      if (attempt == out->attempts.end()) {
        return Status::Internal("GTM log: read for unknown attempt " +
                                std::to_string(r.attempt));
      }
      attempt->second.reads.push_back({r.site, r.item, r.value});
      break;
    }
    case GtmLogRecordType::kEnqueue:
    case GtmLogRecordType::kAbortCleanup:
      break;
    case GtmLogRecordType::kAttemptFail: {
      auto attempt = out->attempts.find(r.attempt);
      if (attempt == out->attempts.end()) {
        return Status::Internal(
            "GTM log: attempt_fail for unknown attempt " +
            std::to_string(r.attempt));
      }
      auto job = out->jobs.find(attempt->second.job);
      if (job != out->jobs.end()) job->second.current_attempt = -1;
      out->attempts.erase(attempt);
      CountAttemptAbort(static_cast<GtmAttemptFailReason>(r.code),
                        &out->stats);
      break;
    }
    case GtmLogRecordType::kCommitStart: {
      auto attempt = out->attempts.find(r.attempt);
      if (attempt == out->attempts.end()) {
        return Status::Internal(
            "GTM log: commit_start for unknown attempt " +
            std::to_string(r.attempt));
      }
      attempt->second.committing = true;
      attempt->second.commit_index = 0;
      break;
    }
    case GtmLogRecordType::kCommitSite: {
      auto attempt = out->attempts.find(r.attempt);
      if (attempt == out->attempts.end()) {
        return Status::Internal(
            "GTM log: commit_site for unknown attempt " +
            std::to_string(r.attempt));
      }
      attempt->second.commit_index = r.index + 1;
      break;
    }
    case GtmLogRecordType::kFinish: {
      auto job = out->jobs.find(r.job);
      if (job == out->jobs.end()) {
        return Status::Internal("GTM log: finish for unknown job " +
                                std::to_string(r.job));
      }
      if (job->second.current_attempt >= 0) {
        out->attempts.erase(job->second.current_attempt);
      }
      out->jobs.erase(job);
      switch (static_cast<GtmFinishOutcome>(r.code)) {
        case GtmFinishOutcome::kCommitted:
          ++out->stats.committed;
          break;
        case GtmFinishOutcome::kGaveUp:
          ++out->stats.failed;
          break;
        case GtmFinishOutcome::kPartial:
          ++out->stats.failed;
          ++out->stats.partial_commits;
          break;
        case GtmFinishOutcome::kParkTimeout:
          ++out->stats.failed;
          ++out->stats.park_timeouts;
          break;
      }
      break;
    }
    case GtmLogRecordType::kPark: {
      auto job = out->jobs.find(r.job);
      if (job == out->jobs.end()) {
        return Status::Internal("GTM log: park for unknown job " +
                                std::to_string(r.job));
      }
      job->second.parked = true;
      ++out->stats.parked;
      break;
    }
    case GtmLogRecordType::kUnpark: {
      auto job = out->jobs.find(r.job);
      if (job == out->jobs.end()) {
        return Status::Internal("GTM log: unpark for unknown job " +
                                std::to_string(r.job));
      }
      job->second.parked = false;
      ++out->stats.unparked;
      break;
    }
    case GtmLogRecordType::kSiteDown:
      InsertSorted(&out->quarantined, r.site);
      break;
    case GtmLogRecordType::kSiteUp:
      EraseSorted(&out->quarantined, r.site);
      break;
  }
  return Status::OK();
}

Status AnalyzeGtmLog(const std::vector<GtmLogRecord>& records,
                     GtmLogAnalysis* out) {
  GtmLogReplayer replayer;
  for (const GtmLogRecord& record : records) {
    MDBS_RETURN_IF_ERROR(replayer.Apply(record));
  }
  *out = replayer.analysis();
  return Status::OK();
}

bool ReplayIntoGtm2(
    const GtmLogRecord& record, Gtm2* gtm2,
    const std::function<std::unique_ptr<Scheme>()>& fresh_scheme) {
  switch (record.type) {
    case GtmLogRecordType::kEnqueue:
      gtm2->Enqueue(record.op);
      return true;
    case GtmLogRecordType::kAbortCleanup:
      gtm2->AbortCleanup(GlobalTxnId(record.attempt));
      return true;
    case GtmLogRecordType::kCheckpoint:
      gtm2->ResetForRecovery(fresh_scheme());
      gtm2->RestoreFromCheckpoint(record.checkpoint.gtm2);
      return false;
    default:
      return false;
  }
}

}  // namespace mdbs::gtm
