#include "gtm/gtm_log.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace mdbs::gtm {

// The records' field lists (storage/framing.h); GTM2's part of a
// checkpoint has its own in gtm2.h.
template <typename Io, storage::FieldsOf<Gtm1Stats> R>
void Fields(Io& io, R& stats) {
  io.I64(stats.submitted);
  io.I64(stats.committed);
  io.I64(stats.failed);
  io.I64(stats.attempts);
  io.I64(stats.aborted_attempts);
  io.I64(stats.scheme_aborts);
  io.I64(stats.timeouts);
  io.I64(stats.partial_commits);
  io.I64(stats.site_down_aborts);
  io.I64(stats.parked);
  io.I64(stats.unparked);
  io.I64(stats.park_timeouts);
  io.I64(stats.fast_path_attempts);
}
template <typename Io, storage::FieldsOf<GtmCheckpoint::JobImage> R>
void Fields(Io& io, R& job) {
  io.I64(job.id);
  io.I64(job.submit_time);
  io.I64(job.attempts);
  io.I64(job.current_attempt);
  io.Bool(job.parked);
}
template <typename Io, storage::FieldsOf<GtmCheckpoint::AttemptImage> R>
void Fields(Io& io, R& attempt) {
  io.I64(attempt.id);
  io.I64(attempt.job);
  io.Bool(attempt.committing);
  io.I64(attempt.commit_index);
  io.Vec(attempt.subs);
  io.Vec(attempt.reads);
}
template <typename Io, storage::FieldsOf<GtmCheckpoint> R>
void Fields(Io& io, R& cp) {
  io.I64(cp.next_txn_id);
  io.I64(cp.next_attempt_id);
  io.I64(cp.next_job_id);
  Fields(io, cp.gtm1_stats);
  io.Vec(cp.jobs);
  io.Vec(cp.attempts);
  io.Vec(cp.quarantined);
  Fields(io, cp.gtm2);
}
template <typename Io, storage::FieldsOf<GtmLogRecord> R>
void Fields(Io& io, R& r) {
  io.Enum(r.type, GtmLogRecordType::kSubmit, GtmLogRecordType::kCheckpoint);
  switch (r.type) {
    case GtmLogRecordType::kSubmit:
      io.I64(r.job);
      io.I64(r.time);
      break;
    case GtmLogRecordType::kAttemptStart:
      io.I64(r.attempt);
      io.I64(r.job);
      io.I64(r.index);
      break;
    case GtmLogRecordType::kBeginSite:
      io.I64(r.attempt);
      io.I64(r.site);
      io.I64(r.sub);
      break;
    case GtmLogRecordType::kRead:
      io.I64(r.attempt);
      io.I64(r.site);
      io.I64(r.item);
      io.I64(r.value);
      break;
    case GtmLogRecordType::kEnqueue:
      Fields(io, r.op);
      break;
    case GtmLogRecordType::kAbortCleanup:
    case GtmLogRecordType::kCommitStart:
      io.I64(r.attempt);
      break;
    case GtmLogRecordType::kAttemptFail:
      io.I64(r.attempt);
      io.U8(r.code);
      break;
    case GtmLogRecordType::kCommitSite:
      io.I64(r.attempt);
      io.I64(r.index);
      break;
    case GtmLogRecordType::kFinish:
      io.I64(r.job);
      io.U8(r.code);
      io.I64(r.index);
      break;
    case GtmLogRecordType::kPark:
    case GtmLogRecordType::kUnpark:
      io.I64(r.job);
      break;
    case GtmLogRecordType::kSiteDown:
    case GtmLogRecordType::kSiteUp:
      io.I64(r.site);
      break;
    case GtmLogRecordType::kCheckpoint:
      Fields(io, r.checkpoint);
      break;
  }
}

bool DecodeGtmLogPayload(const uint8_t* data, size_t size,
                         GtmLogRecord* record) {
  return storage::DecodeFields(data, size, record);
}

std::vector<uint8_t> EncodeGtmLogRecord(const GtmLogRecord& record) {
  return storage::FrameFields(record);
}

Status ReadGtmLog(const storage::LogDevice& device, GtmLogScan* out) {
  return storage::ReadLog(device, out);
}

std::span<const uint8_t> GtmLogWriter::Append(const GtmLogRecord& record) {
  const bool is_checkpoint = record.type == GtmLogRecordType::kCheckpoint;
  return frames_.AppendFields(
      record, is_checkpoint,
      is_checkpoint || record.type == GtmLogRecordType::kCommitStart ||
          record.type == GtmLogRecordType::kFinish);
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
