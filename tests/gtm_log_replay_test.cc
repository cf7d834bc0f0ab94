// The GTM log's two folds over single records, pinned directly:
// CountRecord (record -> Gtm1Stats, the rule the live GTM and every replay
// share) and GtmLogReplayer's refusal of structurally impossible record
// sequences. The crash-point battery compares live and replayed counters,
// but both come from CountRecord, so only this table pins the mapping.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "gtm/gtm1.h"
#include "gtm/gtm_log.h"
#include "gtm_install_capture.h"

namespace mdbs {
namespace {

using gtm::GtmCheckpoint;
using gtm::GtmLogRecord;
using Outcome = gtm::GtmFinishOutcome;
using Reason = gtm::GtmAttemptFailReason;
using S = gtm::Gtm1Stats;
using Type = gtm::GtmLogRecordType;

GtmLogRecord Of(Type type) { return {.type = type}; }

GtmLogRecord OfJob(Type type, int64_t job) {
  return {.type = type, .job = job};
}

GtmLogRecord OfAttempt(Type type, int64_t attempt) {
  return {.type = type, .attempt = attempt};
}

GtmLogRecord Fail(Reason reason) {
  return {.type = Type::kAttemptFail, .code = static_cast<uint8_t>(reason)};
}

GtmLogRecord Finish(Outcome outcome) {
  return {.type = Type::kFinish, .code = static_cast<uint8_t>(outcome)};
}

/// Counting `record` twice adds two to each of `counters` and leaves every
/// other counter alone: a rule that sets instead of adding, or that moves
/// a counter it should not, shows.
template <typename... Counter>
void Counts(const GtmLogRecord& record, Counter... counters) {
  S counted;
  gtm::CountRecord(record, &counted);
  gtm::CountRecord(record, &counted);
  S expected;
  ((expected.*counters += 2), ...);
  EXPECT_EQ(StatsFields(counted), StatsFields(expected))
      << "record type " << static_cast<int>(record.type) << ", code "
      << static_cast<int>(record.code);
}

TEST(CountRecordTest, EachRecordChangesExactlyItsCounters) {
  Counts(Of(Type::kSubmit), &S::submitted);
  Counts(Of(Type::kAttemptStart), &S::attempts);
  Counts(Of(Type::kBeginSite));
  Counts(Of(Type::kRead));
  Counts(Of(Type::kEnqueue));
  Counts(Of(Type::kAbortCleanup));
  Counts(Fail(Reason::kSite), &S::aborted_attempts);
  Counts(Fail(Reason::kScheme), &S::aborted_attempts, &S::scheme_aborts);
  Counts(Fail(Reason::kTimeout), &S::aborted_attempts, &S::timeouts);
  Counts(Fail(Reason::kSiteDown), &S::aborted_attempts, &S::site_down_aborts);
  Counts(Fail(Reason::kGtmCrash), &S::aborted_attempts);
  Counts(Of(Type::kCommitStart));
  Counts(Of(Type::kCommitSite));
  Counts(Finish(Outcome::kCommitted), &S::committed);
  Counts(Finish(Outcome::kGaveUp), &S::failed);
  Counts(Finish(Outcome::kPartial), &S::failed, &S::partial_commits);
  Counts(Finish(Outcome::kParkTimeout), &S::failed, &S::park_timeouts);
  Counts(Of(Type::kPark), &S::parked);
  Counts(Of(Type::kUnpark), &S::unparked);
  Counts(Of(Type::kSiteDown));
  Counts(Of(Type::kSiteUp));
  // A checkpoint carries the counters; replay restores them from it.
  GtmLogRecord checkpoint = Of(Type::kCheckpoint);
  checkpoint.checkpoint.gtm1_stats.submitted = 7;
  checkpoint.checkpoint.gtm1_stats.committed = 5;
  Counts(checkpoint);
}

GtmLogRecord Start(int64_t job, int64_t attempt) {
  return {.type = Type::kAttemptStart, .job = job, .attempt = attempt,
          .index = 1};
}

GtmLogRecord Begin(int64_t attempt, int64_t sub) {
  return {.type = Type::kBeginSite, .attempt = attempt, .site = 0,
          .sub = sub};
}

/// Applies `records` in order; the status of the first refusal, or OK.
Status ApplyAll(const std::vector<GtmLogRecord>& records) {
  gtm::GtmLogReplayer replayer;
  for (const GtmLogRecord& record : records) {
    MDBS_RETURN_IF_ERROR(replayer.Apply(record));
  }
  return Status::OK();
}

void ExpectRefused(const std::vector<GtmLogRecord>& records,
                   const std::string& message) {
  Status status = ApplyAll(records);
  EXPECT_FALSE(status.ok()) << "accepted; expected: " << message;
  EXPECT_NE(status.message().find(message), std::string::npos)
      << status.message();
}

TEST(GtmLogReplayerTest, AcceptsAWellFormedSequence) {
  gtm::GtmLogReplayer replayer;
  ASSERT_TRUE(replayer.Apply(OfJob(Type::kSubmit, 1)).ok());
  ASSERT_TRUE(replayer.Apply(Start(1, 5)).ok());
  ASSERT_TRUE(replayer.Apply(Begin(5, 9)).ok());
  ASSERT_TRUE(replayer.Apply(OfAttempt(Type::kAttemptFail, 5)).ok());
  ASSERT_TRUE(replayer.Apply(Start(1, 6)).ok());
  ASSERT_TRUE(replayer.Apply(OfAttempt(Type::kCommitStart, 6)).ok());
  ASSERT_TRUE(replayer.Apply(OfJob(Type::kFinish, 1)).ok());
  const gtm::GtmLogAnalysis& analysis = replayer.analysis();
  EXPECT_TRUE(analysis.jobs.empty());
  EXPECT_TRUE(analysis.attempts.empty());
  EXPECT_EQ(analysis.next_job_id, 2);
  EXPECT_EQ(analysis.next_attempt_id, 7);
  EXPECT_EQ(analysis.next_txn_id, 10);
  EXPECT_EQ(analysis.stats.submitted, 1);
  EXPECT_EQ(analysis.stats.attempts, 2);
  EXPECT_EQ(analysis.stats.aborted_attempts, 1);
  EXPECT_EQ(analysis.stats.committed, 1);
}

TEST(GtmLogReplayerTest, RefusesARepeatedLiveId) {
  const GtmLogRecord submit1 = OfJob(Type::kSubmit, 1);
  const GtmLogRecord submit2 = OfJob(Type::kSubmit, 2);
  ExpectRefused({submit1, submit1}, "submit for live job 1");
  ExpectRefused({submit1, Start(1, 5), Start(1, 5)},
                "attempt_start for live attempt 5");
  // Another job's repeat must not take over the live attempt's subs.
  ExpectRefused({submit1, submit2, Start(1, 5), Begin(5, 3), Start(2, 5)},
                "attempt_start for live attempt 5");
  // A second attempt while the first is live would orphan the first: the
  // job's finish retires only its current attempt.
  ExpectRefused({submit1, Start(1, 5), Start(1, 6), OfJob(Type::kFinish, 1)},
                "attempt_start for job with live attempt 1");
}

GtmCheckpoint::JobImage JobOf(int64_t id) {
  GtmCheckpoint::JobImage job;
  job.id = id;
  return job;
}

GtmCheckpoint::AttemptImage AttemptOf(int64_t job, int64_t id) {
  GtmCheckpoint::AttemptImage attempt;
  attempt.id = id;
  attempt.job = job;
  return attempt;
}

TEST(GtmLogReplayerTest, RefusesACheckpointThatRepeatsOrOrphans) {
  GtmLogRecord checkpoint = Of(Type::kCheckpoint);
  GtmCheckpoint& cp = checkpoint.checkpoint;
  cp.jobs = {JobOf(1), JobOf(1)};
  ExpectRefused({checkpoint}, "checkpoint for repeated job 1");

  cp.jobs = {JobOf(1)};
  cp.attempts = {AttemptOf(1, 5), AttemptOf(1, 5)};
  ExpectRefused({checkpoint}, "checkpoint for repeated attempt 5");

  cp.attempts = {AttemptOf(2, 5)};
  ExpectRefused({checkpoint}, "checkpoint for unknown job 2");

  cp.attempts = {AttemptOf(1, 5)};
  EXPECT_TRUE(ApplyAll({checkpoint}).ok());
}

/// `type` naming attempt 5 after the attempt was live and then retired.
void ExpectRefusedAfterRetiring(Type type, const std::string& name) {
  ExpectRefused({OfJob(Type::kSubmit, 1), Start(1, 5),
                 OfAttempt(Type::kAttemptFail, 5), OfAttempt(type, 5)},
                name + " for unknown attempt 5");
}

TEST(GtmLogReplayerTest, RefusesARecordNamingAnUnknownJobOrAttempt) {
  ExpectRefused({Start(4, 5)}, "attempt_start for unknown job 4");
  ExpectRefused({OfJob(Type::kFinish, 4)}, "finish for unknown job 4");
  ExpectRefused({OfJob(Type::kPark, 4)}, "park for unknown job 4");
  ExpectRefused({OfJob(Type::kUnpark, 4)}, "unpark for unknown job 4");
  ExpectRefusedAfterRetiring(Type::kBeginSite, "begin_site");
  ExpectRefusedAfterRetiring(Type::kRead, "read");
  ExpectRefusedAfterRetiring(Type::kAttemptFail, "attempt_fail");
  ExpectRefusedAfterRetiring(Type::kCommitStart, "commit_start");
  ExpectRefusedAfterRetiring(Type::kCommitSite, "commit_site");
}

}  // namespace
}  // namespace mdbs
