#include "gtm/gtm_log.h"

#include <algorithm>
#include <string>
#include <type_traits>

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

void CountRecord(const GtmLogRecord& r, Gtm1Stats* stats) {
  switch (r.type) {
    case GtmLogRecordType::kSubmit:
      ++stats->submitted;
      break;
    case GtmLogRecordType::kAttemptStart:
      ++stats->attempts;
      break;
    case GtmLogRecordType::kAttemptFail: {
      const auto reason = static_cast<GtmAttemptFailReason>(r.code);
      ++stats->aborted_attempts;
      if (reason == GtmAttemptFailReason::kScheme) ++stats->scheme_aborts;
      if (reason == GtmAttemptFailReason::kTimeout) ++stats->timeouts;
      if (reason == GtmAttemptFailReason::kSiteDown) ++stats->site_down_aborts;
      break;
    }
    case GtmLogRecordType::kFinish: {
      const auto outcome = static_cast<GtmFinishOutcome>(r.code);
      if (outcome == GtmFinishOutcome::kCommitted) {
        ++stats->committed;
        break;
      }
      ++stats->failed;
      if (outcome == GtmFinishOutcome::kPartial) ++stats->partial_commits;
      if (outcome == GtmFinishOutcome::kParkTimeout) ++stats->park_timeouts;
      break;
    }
    case GtmLogRecordType::kPark:
      ++stats->parked;
      break;
    case GtmLogRecordType::kUnpark:
      ++stats->unparked;
      break;
    default:
      break;
  }
}

namespace {

/// The corruption status "GTM log: <record> for <what> <id>".
Status Refuse(const char* record, const char* what, int64_t id) {
  std::string message = "GTM log: ";
  message.append(record).append(" for ").append(what).append(" ");
  return Status::Internal(message.append(std::to_string(id)));
}

/// The one lookup of the job or attempt `id` a `record` names: its row in
/// `table`, or corruption when the table lacks it.
template <typename Row>
Status FindLive(std::map<int64_t, Row>& table, int64_t id,
                const char* record, Row** row) {
  constexpr bool is_job = std::is_same_v<Row, GtmCheckpoint::JobImage>;
  auto it = table.find(id);
  if (it == table.end()) {
    return Refuse(record, is_job ? "unknown job" : "unknown attempt", id);
  }
  *row = &it->second;
  return Status::OK();
}

/// Applies one checkpoint record to the analysis accumulator, refusing an
/// image that repeats an id or holds an attempt of a job it lacks.
Status RestoreFromCheckpoint(const GtmCheckpoint& cp, GtmLogAnalysis* out) {
  out->next_txn_id = cp.next_txn_id;
  out->next_attempt_id = cp.next_attempt_id;
  out->next_job_id = cp.next_job_id;
  out->stats = cp.gtm1_stats;
  out->jobs.clear();
  for (const GtmCheckpoint::JobImage& job : cp.jobs) {
    if (!out->jobs.emplace(job.id, job).second) {
      return Refuse("checkpoint", "repeated job", job.id);
    }
  }
  out->attempts.clear();
  for (const GtmCheckpoint::AttemptImage& attempt : cp.attempts) {
    if (out->jobs.count(attempt.job) == 0) {
      return Refuse("checkpoint", "unknown job", attempt.job);
    }
    if (!out->attempts.emplace(attempt.id, attempt).second) {
      return Refuse("checkpoint", "repeated attempt", attempt.id);
    }
  }
  out->quarantined = cp.quarantined;
  return Status::OK();
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
  GtmCheckpoint::JobImage* job = nullptr;
  GtmCheckpoint::AttemptImage* attempt = nullptr;
  switch (r.type) {
    case GtmLogRecordType::kCheckpoint:
      MDBS_RETURN_IF_ERROR(RestoreFromCheckpoint(r.checkpoint, out));
      out->checkpoint_index = index;
      break;
    case GtmLogRecordType::kSubmit: {
      GtmCheckpoint::JobImage image;
      image.id = r.job;
      image.submit_time = r.time;
      if (!out->jobs.emplace(r.job, image).second) {
        return Refuse("submit", "live job", r.job);
      }
      out->next_job_id = std::max(out->next_job_id, r.job + 1);
      break;
    }
    case GtmLogRecordType::kAttemptStart: {
      MDBS_RETURN_IF_ERROR(FindLive(out->jobs, r.job, "attempt_start", &job));
      GtmCheckpoint::AttemptImage image;
      image.id = r.attempt;
      image.job = r.job;
      if (!out->attempts.emplace(r.attempt, std::move(image)).second) {
        return Refuse("attempt_start", "live attempt", r.attempt);
      }
      // A job starts an attempt only after retiring its last one; a second
      // live attempt would outlive the job's finish.
      if (out->attempts.count(job->current_attempt) != 0) {
        return Refuse("attempt_start", "job with live attempt", r.job);
      }
      job->attempts = r.index;
      job->current_attempt = r.attempt;
      job->parked = false;
      out->next_attempt_id = std::max(out->next_attempt_id, r.attempt + 1);
      break;
    }
    case GtmLogRecordType::kBeginSite:
      MDBS_RETURN_IF_ERROR(
          FindLive(out->attempts, r.attempt, "begin_site", &attempt));
      attempt->subs.emplace_back(r.site, r.sub);
      out->next_txn_id = std::max(out->next_txn_id, r.sub + 1);
      break;
    case GtmLogRecordType::kRead:
      MDBS_RETURN_IF_ERROR(
          FindLive(out->attempts, r.attempt, "read", &attempt));
      attempt->reads.push_back({r.site, r.item, r.value});
      break;
    case GtmLogRecordType::kEnqueue:
    case GtmLogRecordType::kAbortCleanup:
      break;
    case GtmLogRecordType::kAttemptFail: {
      MDBS_RETURN_IF_ERROR(
          FindLive(out->attempts, r.attempt, "attempt_fail", &attempt));
      auto owner = out->jobs.find(attempt->job);
      if (owner != out->jobs.end()) owner->second.current_attempt = -1;
      out->attempts.erase(r.attempt);
      break;
    }
    case GtmLogRecordType::kCommitStart:
      MDBS_RETURN_IF_ERROR(
          FindLive(out->attempts, r.attempt, "commit_start", &attempt));
      attempt->committing = true;
      attempt->commit_index = 0;
      break;
    case GtmLogRecordType::kCommitSite:
      MDBS_RETURN_IF_ERROR(
          FindLive(out->attempts, r.attempt, "commit_site", &attempt));
      attempt->commit_index = r.index + 1;
      break;
    case GtmLogRecordType::kFinish:
      MDBS_RETURN_IF_ERROR(FindLive(out->jobs, r.job, "finish", &job));
      if (job->current_attempt >= 0) {
        out->attempts.erase(job->current_attempt);
      }
      out->jobs.erase(r.job);
      break;
    case GtmLogRecordType::kPark:
      MDBS_RETURN_IF_ERROR(FindLive(out->jobs, r.job, "park", &job));
      job->parked = true;
      break;
    case GtmLogRecordType::kUnpark:
      MDBS_RETURN_IF_ERROR(FindLive(out->jobs, r.job, "unpark", &job));
      job->parked = false;
      break;
    case GtmLogRecordType::kSiteDown:
      InsertSorted(&out->quarantined, r.site);
      break;
    case GtmLogRecordType::kSiteUp:
      EraseSorted(&out->quarantined, r.site);
      break;
  }
  CountRecord(r, &out->stats);
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
