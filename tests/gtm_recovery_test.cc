// GTM durability battery: crash-point fuzzing over WAL prefixes plus
// end-to-end gtm_crash outages.
//
// The fuzz core treats every frame boundary of a real run's GTM log as a
// potential crash point and checks, with oracles independent of the code
// under test's own bookkeeping:
//   (1) State oracle — a standalone GTM2 rebuilt from the prefix through
//       ReplayIntoGtm2 must fingerprint-match the live GTM2 captured at
//       exactly that mutation during the original run (via the mutation
//       observer hook), whether the replay starts at the prefix's latest
//       checkpoint, as cold recovery does, or at its head, as the warm
//       standby does.
//   (2) Committed-prefix oracle — a job that reached its committed kFinish
//       record within the prefix is never resurrected as unfinished, and
//       the committed count never regresses as the prefix grows.
//   (3) Torn tails — truncating mid-frame (what a crash during an append
//       leaves) is admitted and ignored, never an error and never a
//       phantom record.
// The end-to-end tests crash the whole GTM mid-run through the fault plan
// and assert clients ride out the outage: buffered submissions drain in
// order, nothing is lost, and the federation stays serializable.
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "gtm/gtm1.h"
#include "gtm/gtm2.h"
#include "gtm/gtm_log.h"
#include "gtm_log_analysis.h"
#include "history_log_device.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace mdbs {
namespace {

using gtm::GtmFinishOutcome;
using gtm::GtmLogAnalysis;
using gtm::GtmLogRecord;
using gtm::GtmLogRecordType;
using gtm::GtmLogScan;
using gtm::SchemeKind;
using lcc::ProtocolKind;

const std::vector<ProtocolKind> kProtocols = {
    ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
    ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic};

/// A standalone GTM2 with muted callbacks: the replay target. Its internal
/// state transitions are a pure function of the mutation sequence, which is
/// exactly what the fingerprint oracle relies on.
std::unique_ptr<gtm::Gtm2> MakeReplayGtm2(SchemeKind scheme) {
  gtm::Gtm2::Callbacks callbacks;
  callbacks.release_ser = [](GlobalTxnId, SiteId) {};
  callbacks.forward_ack = [](GlobalTxnId, SiteId) {};
  callbacks.validate_passed = [](GlobalTxnId) {};
  callbacks.abort_txn = [](GlobalTxnId) {};
  return std::make_unique<gtm::Gtm2>(gtm::MakeScheme(scheme),
                                     std::move(callbacks));
}

/// Replays `prefix` from record `first` through ReplayIntoGtm2 into a
/// standalone GTM2 and fingerprints the result.
std::vector<uint8_t> ReplayFingerprint(const std::vector<GtmLogRecord>& prefix,
                                       size_t first, SchemeKind scheme) {
  std::unique_ptr<gtm::Gtm2> gtm2 = MakeReplayGtm2(scheme);
  for (size_t i = first; i < prefix.size(); ++i) {
    gtm::ReplayIntoGtm2(prefix[i], gtm2.get(),
                        [scheme]() { return gtm::MakeScheme(scheme); });
  }
  return gtm2->StateFingerprint();
}

class GtmCrashPointFuzzTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, int64_t>> {};

INSTANTIATE_TEST_SUITE_P(
    SchemesAndCheckpoints, GtmCrashPointFuzzTest,
    ::testing::Combine(::testing::Values(SchemeKind::kScheme0,
                                         SchemeKind::kScheme1,
                                         SchemeKind::kScheme2,
                                         SchemeKind::kScheme3),
                       ::testing::Values<int64_t>(0, 32)),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == 0 ? "_NoCheckpoint"
                                           : "_Checkpoint32");
    });

// The battery: run a faulty workload against a durable GTM while capturing
// a live GTM2 fingerprint after every logged mutation, then truncate the
// log at 100+ frame boundaries and replay each prefix into a standalone
// GTM2. Every replayed fingerprint must equal the live capture at the same
// mutation count — over schemes 0-3, with and without checkpoints, so
// crash points straddle checkpoint records in both directions.
TEST_P(GtmCrashPointFuzzTest, EveryLogPrefixReplaysToTheLiveState) {
  const SchemeKind scheme = std::get<0>(GetParam());
  const int64_t checkpoint_interval = std::get<1>(GetParam());

  // The GTM keeps only its log's suffix from the latest checkpoint on; the
  // battery cuts the whole history the device recorded.
  auto device = std::make_shared<HistoryLogDevice>();
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, scheme);
  config.seed = 101;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = checkpoint_interval;
  config.gtm.wal_device = device;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  // One crash sweep: quarantine churn puts park/unpark/site_down records
  // into the log so analysis covers the whole record taxonomy.
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/4000, /*duration=*/1500);
  Mdbs system(config);

  // Live captures: fingerprint after the k-th GTM2 mutation. The observer
  // fires after each logged enqueue / abort-cleanup once the synchronous
  // pump quiesced — the same positions the log's mutation records mark.
  std::vector<std::vector<uint8_t>> captures;
  system.gtm().SetGtm2MutationObserverForTest([&]() {
    captures.push_back(system.gtm().gtm2().StateFingerprint());
  });

  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 2;
  RunDriver(&system, driver, 101);

  GtmLogScan scan;
  storage::MemLogDevice history(device->history());
  ASSERT_TRUE(ReadGtmLog(history, &scan).ok());
  ASSERT_FALSE(scan.torn_tail);
  ASSERT_GT(scan.records.size(), 150u)
      << "workload too small for a meaningful crash-point sweep";
  if (checkpoint_interval > 0) {
    int64_t checkpoints = 0;
    for (const GtmLogRecord& r : scan.records) {
      if (r.type == GtmLogRecordType::kCheckpoint) ++checkpoints;
    }
    ASSERT_GT(checkpoints, 1) << "sweep never straddled a checkpoint";
  }

  // Truncation points: every frame boundary, strided down to ~150 probes
  // (always including the empty log and the full log).
  const size_t n = scan.records.size();
  const size_t stride = std::max<size_t>(1, n / 150);
  size_t probes = 0;
  int64_t last_committed = 0;
  std::vector<int64_t> committed_jobs;  // in log order
  size_t consumed = 0;                  // records folded into the oracles
  for (size_t cut = 0;; cut += stride) {
    if (cut > n) break;
    std::vector<GtmLogRecord> prefix(scan.records.begin(),
                                     scan.records.begin() + cut);
    for (; consumed < cut; ++consumed) {
      const GtmLogRecord& r = scan.records[consumed];
      if (r.type == GtmLogRecordType::kFinish &&
          r.code == static_cast<uint8_t>(GtmFinishOutcome::kCommitted)) {
        committed_jobs.push_back(r.job);
      }
    }
    size_t mutations = 0;
    for (const GtmLogRecord& r : prefix) {
      if (r.type == GtmLogRecordType::kEnqueue ||
          r.type == GtmLogRecordType::kAbortCleanup) {
        ++mutations;
      }
    }
    ASSERT_LE(mutations, captures.size());

    // Oracle (1): replayed state == live state at the same mutation, both
    // from the prefix's latest checkpoint (as cold recovery replays) and
    // from its head (as the standby applies it).
    GtmLogAnalysis analysis;
    ASSERT_TRUE(AnalyzeGtmLog(prefix, &analysis).ok());
    size_t checkpoint =
        analysis.checkpoint_index == GtmLogAnalysis::kNoCheckpoint
            ? 0
            : analysis.checkpoint_index;
    std::vector<uint8_t> expected =
        mutations == 0 ? MakeReplayGtm2(scheme)->StateFingerprint()
                       : captures[mutations - 1];
    EXPECT_EQ(ReplayFingerprint(prefix, checkpoint, scheme), expected)
        << "prefix of " << cut << " records (mutation " << mutations
        << ") replayed from record " << checkpoint
        << " to a different GTM2 state";
    EXPECT_EQ(ReplayFingerprint(prefix, 0, scheme), expected)
        << "prefix of " << cut << " records (mutation " << mutations
        << ") replayed from the log head to a different GTM2 state";

    // Oracle (2): committed jobs stay committed and never reappear.
    EXPECT_GE(analysis.stats.committed, last_committed)
        << "committed count regressed at cut " << cut;
    last_committed = analysis.stats.committed;
    for (int64_t job : committed_jobs) {
      EXPECT_EQ(analysis.jobs.count(job), 0u)
          << "committed job " << job << " resurrected as unfinished at cut "
          << cut;
    }
    ++probes;
    if (cut == n) break;
    if (cut + stride > n) cut = n - stride;  // force the full-log probe
  }
  EXPECT_GE(probes, 100u) << "not enough crash points exercised";
  EXPECT_EQ(last_committed, system.gtm().stats().committed)
      << "full-log analysis disagrees with the live run";

  // At quiescence the whole log replays to the live counters, field by
  // field: what a recovery or a promotion installs is what the run counted.
  GtmLogAnalysis full;
  ASSERT_TRUE(AnalyzeGtmLog(scan.records, &full).ok());
  const gtm::Gtm1Stats& replayed = full.stats;
  const gtm::Gtm1Stats& live = system.gtm().stats();
  EXPECT_EQ(replayed.submitted, live.submitted);
  EXPECT_EQ(replayed.committed, live.committed);
  EXPECT_EQ(replayed.failed, live.failed);
  EXPECT_EQ(replayed.attempts, live.attempts);
  EXPECT_EQ(replayed.aborted_attempts, live.aborted_attempts);
  EXPECT_EQ(replayed.scheme_aborts, live.scheme_aborts);
  EXPECT_EQ(replayed.timeouts, live.timeouts);
  EXPECT_EQ(replayed.partial_commits, live.partial_commits);
  EXPECT_EQ(replayed.site_down_aborts, live.site_down_aborts);
  EXPECT_EQ(replayed.parked, live.parked);
  EXPECT_EQ(replayed.unparked, live.unparked);
  EXPECT_EQ(replayed.park_timeouts, live.park_timeouts);
  EXPECT_EQ(replayed.fast_path_attempts, live.fast_path_attempts);
}

// Oracle (3): a crash mid-append leaves a torn tail. Truncating anywhere
// inside a frame must yield exactly the preceding records, flagged torn —
// recovery then starts from a consistent prefix instead of failing.
TEST(GtmRecoveryTest, TornTailIsIgnoredNotFatal) {
  auto device = std::make_shared<HistoryLogDevice>();
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, SchemeKind::kScheme3);
  config.seed = 5;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 64;
  config.gtm.wal_device = device;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 0;
  driver.target_global_commits = 20;
  driver.global_workload.items_per_site = 20;
  RunDriver(&system, driver, 5);

  const std::vector<uint8_t>& image = device->history();
  storage::FrameScan frames;
  ASSERT_TRUE(storage::ScanFrames(image, &frames).ok());
  ASSERT_GT(frames.boundaries.size(), 10u);

  for (size_t keep : {size_t{0}, frames.boundaries.size() / 2,
                      frames.boundaries.size() - 2}) {
    // boundaries[keep] is the offset just past frame `keep`; +5 bytes is
    // always inside the next frame's 8-byte header.
    size_t torn_at = frames.boundaries[keep] + 5;
    ASSERT_LT(torn_at, image.size());
    storage::MemLogDevice torn(
        std::vector<uint8_t>(image.begin(), image.begin() + torn_at));
    GtmLogScan scan;
    Status status = ReadGtmLog(torn, &scan);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(scan.torn_tail);
    EXPECT_EQ(scan.records.size(), keep + 1);
    EXPECT_EQ(scan.valid_bytes, frames.boundaries[keep]);
    GtmLogAnalysis analysis;
    EXPECT_TRUE(AnalyzeGtmLog(scan.records, &analysis).ok());
  }
}

// End to end, simulated engine: the GTM crashes while transactions are in
// flight and while a client submits *during* the outage. The outage-time
// submission is buffered and drained at recovery; both transactions
// commit, and the run stays serializable.
TEST(GtmRecoveryTest, SubmissionsDuringOutageAreBufferedAndDrained) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering},
      SchemeKind::kScheme3);
  config.seed = 3;
  config.gtm.durable = true;
  fault::FaultPlan plan;
  plan.gtm_crashes.push_back(fault::GtmCrashEvent{1000, 5000});
  config.fault_plan = plan;
  Mdbs system(config);

  gtm::GlobalTxnSpec before;  // in flight when the GTM dies
  before.ops.push_back(gtm::GlobalOp::Write(SiteId(0), DataItemId(1), 10));
  before.ops.push_back(gtm::GlobalOp::Write(SiteId(1), DataItemId(2), 20));
  gtm::GlobalTxnSpec during;  // submitted while the GTM is down
  during.ops.push_back(gtm::GlobalOp::Read(SiteId(0), DataItemId(1)));
  during.ops.push_back(gtm::GlobalOp::Write(SiteId(1), DataItemId(3), 30));

  int before_done = 0, during_done = 0;
  system.loop().Schedule(500, [&]() {
    system.SubmitGlobal(before, [&](const gtm::GlobalTxnResult& result) {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      ++before_done;
    });
  });
  system.loop().Schedule(3000, [&]() {
    EXPECT_TRUE(system.gtm_replica()->IsDown());
    system.SubmitGlobal(during, [&](const gtm::GlobalTxnResult& result) {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      ++during_done;
    });
  });
  system.RunUntilIdle();

  EXPECT_EQ(before_done, 1);
  EXPECT_EQ(during_done, 1);
  EXPECT_FALSE(system.gtm_replica()->IsDown());
  gtm::GtmDurabilityStats stats = system.gtm_durability_stats();
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.buffered_submits, 1);
  EXPECT_EQ(system.gtm().InFlight(), 0);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
}

// Modeled replay cost: recovery must charge base + per-record ticks before
// the GTM resumes, and the charge must surface in the stats.
TEST(GtmRecoveryTest, RecoveryCostScalesWithLogLength) {
  auto run = [](sim::Time per_record) {
    MdbsConfig config = MdbsConfig::Mixed(
        {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering},
        SchemeKind::kScheme3);
    config.seed = 23;
    config.gtm.durable = true;
    config.gtm.checkpoint_interval = 0;  // replay the whole log
    config.gtm.recovery_base_time = 100;
    config.gtm.recovery_time_per_record = per_record;
    fault::FaultPlan plan;
    plan.gtm_crashes.push_back(fault::GtmCrashEvent{5000, 2000});
    config.fault_plan = plan;
    Mdbs system(config);
    DriverConfig driver;
    driver.global_clients = 4;
    driver.local_clients_per_site = 0;
    driver.target_global_commits = 30;
    driver.global_workload.items_per_site = 20;
    DriverReport report = RunDriver(&system, driver, 23);
    EXPECT_EQ(report.gtm_durability.recoveries, 1);
    EXPECT_GT(report.gtm_durability.replayed_records, 0);
    return report.gtm_durability;
  };
  gtm::GtmDurabilityStats cheap = run(0);
  EXPECT_EQ(cheap.recovery_ticks, 100);
  gtm::GtmDurabilityStats costly = run(3);
  EXPECT_GE(costly.recovery_ticks,
            100 + 3 * costly.replayed_records)
      << "replay cost must scale with the scanned log";
}

// Attempt numbering must stay monotonic across a restart: the recovered
// GTM allocates ids strictly above everything the log has seen, so trace
// consumers (check_trace.py gtm-recovery schema) can rely on it.
TEST(GtmRecoveryTest, IdAllocationResumesAboveTheLog) {
  auto device = std::make_shared<HistoryLogDevice>();
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, SchemeKind::kScheme3);
  config.seed = 47;
  config.gtm.durable = true;
  config.gtm.wal_device = device;
  fault::FaultPlan plan;
  plan.gtm_crashes.push_back(fault::GtmCrashEvent{4000, 2000});
  config.fault_plan = plan;
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  DriverReport report = RunDriver(&system, driver, 47);
  ASSERT_EQ(report.gtm_durability.crashes, 1);

  GtmLogScan scan;
  storage::MemLogDevice history(device->history());
  ASSERT_TRUE(ReadGtmLog(history, &scan).ok());
  // Replaying the full log must never see an attempt id reused for a new
  // attempt: AnalyzeGtmLog errors on an attempt_start for a live id, and
  // next_attempt_id grows monotonically. The same holds for job ids.
  GtmLogAnalysis analysis;
  ASSERT_TRUE(AnalyzeGtmLog(scan.records, &analysis).ok());
  int64_t max_attempt = -1;
  for (const GtmLogRecord& r : scan.records) {
    if (r.type != GtmLogRecordType::kAttemptStart) continue;
    EXPECT_GT(r.attempt, max_attempt)
        << "attempt ids must be strictly increasing across the restart";
    max_attempt = r.attempt;
  }
  EXPECT_EQ(analysis.next_attempt_id, max_attempt + 1);
}

// ----------------------------------------------------------------------
// The bytes recovery writes are fixed
// ----------------------------------------------------------------------

/// FNV-1a (64-bit) over a device image.
uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

MdbsConfig DigestConfig(uint64_t seed,
                        SchemeKind scheme = SchemeKind::kScheme3) {
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, scheme);
  config.seed = seed;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 64;
  config.gtm.recovery_time_per_record = 2;
  config.gtm.attempt_timeout = 10'000;
  return config;
}

DriverConfig DigestWorkload() {
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 2;
  driver.target_global_commits = 50;
  driver.global_workload.items_per_site = 25;
  driver.local_workload.items_per_site = 25;
  return driver;
}

class GtmLogDigestTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schemes, GtmLogDigestTest,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3),
    [](const auto& info) {
      return std::string(gtm::SchemeKindName(info.param));
    });

// Cold recovery appends to the log it replayed: an attempt_fail and an
// abort_cleanup per undecided attempt, then the records and checkpoints of
// the resumed run. Two restarts of this run must leave exactly the bytes
// they left when the digest was recorded. Each scheme's checkpoints carry
// its own DS, so the run is pinned once per scheme. The GTM discards its
// log below every checkpoint, so the digest is taken over the history the
// device recorded: the appended byte stream.
TEST_P(GtmLogDigestTest, ColdRecoveriesWriteTheRecordedBytes) {
  const std::map<SchemeKind, uint64_t> kRecordedDigests = {
      {SchemeKind::kScheme0, 0x258ef2497659f112ull},
      {SchemeKind::kScheme1, 0x6482efe57949e6d2ull},
      {SchemeKind::kScheme2, 0xb51b7be7ed3a7a28ull},
      {SchemeKind::kScheme3, 0xa3932c169b1fda97ull}};
  const uint64_t kRecordedDigest = kRecordedDigests.at(GetParam());
  auto device = std::make_shared<HistoryLogDevice>();
  MdbsConfig config = DigestConfig(13, GetParam());
  config.gtm.wal_device = device;
  fault::FaultPlan plan;
  plan.gtm_crashes.push_back(fault::GtmCrashEvent{4000, 2500});
  plan.gtm_crashes.push_back(fault::GtmCrashEvent{20'000, 1500});
  config.fault_plan = plan;
  Mdbs system(config);
  DriverReport report = RunDriver(&system, DigestWorkload(), 19);
  ASSERT_EQ(report.gtm_durability.recoveries, 2);
  EXPECT_GT(report.gtm_durability.recovery_aborted_attempts, 0);
  const std::vector<uint8_t>& image = device->history();
  EXPECT_EQ(Fnv1a64(image), kRecordedDigest)
      << "GTM log digest is now " << Hex(Fnv1a64(image)) << " over "
      << image.size() << " bytes";
}

// A promoted standby starts a fresh WAL with one checkpoint of the state
// it replayed, then logs the resumed run. That log's history must hash to
// the digest this run produced when it was recorded.
TEST(GtmLogDigestTest, PromotedStandbyWritesTheRecordedBytes) {
  const uint64_t kRecordedDigest = 0xb6bff9c4e8cc4534ull;
  MdbsConfig config = DigestConfig(17);
  config.gtm_standby = true;
  config.standby_lag = 40;
  fault::FaultPlan plan;
  plan.gtm_failovers.push_back(fault::GtmFailoverEvent{20'000, 1500});
  config.fault_plan = plan;
  Mdbs system(config);
  auto promoted_wal = std::make_shared<HistoryLogDevice>();
  system.gtm_replica()->SetPromotionWalDevice(promoted_wal);
  DriverReport report = RunDriver(&system, DigestWorkload(), 117);
  EXPECT_GT(report.gtm_durability.recovery_aborted_attempts, 0);
  ASSERT_EQ(report.gtm_standby.promotions, 1);
  ASSERT_EQ(system.gtm_replica()->wal_device(), promoted_wal.get());
  const std::vector<uint8_t>& image = promoted_wal->history();
  GtmLogScan scan;
  storage::MemLogDevice history(image);
  ASSERT_TRUE(ReadGtmLog(history, &scan).ok());
  ASSERT_GT(scan.records.size(), 1u) << "the promoted GTM logged nothing";
  EXPECT_EQ(scan.records.front().type, GtmLogRecordType::kCheckpoint);
  EXPECT_EQ(Fnv1a64(image), kRecordedDigest)
      << "promoted WAL digest is now " << Hex(Fnv1a64(image)) << " over "
      << image.size() << " bytes";
}

}  // namespace
}  // namespace mdbs
