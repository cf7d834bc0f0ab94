// The durable GTM keeps only its log's suffix from the latest checkpoint on
// (gtm::GtmReplica discards the prefix at every checkpoint). Checks that
// doing so loses nothing and bounds what is kept, on simulator runs whose
// GTM logs through a HistoryLogDevice:
//
//  * Crash-point differential, for Schemes 0-3:
//    - at every append boundary of a run, and at a cut in the middle of
//      the frame being appended, the catch-up rules recovery uses (the
//      GtmLogReplayer analysis and ReplayIntoGtm2 from the latest
//      checkpoint) rebuild the same GTM1 tables, counters and GTM2 state
//      from what the GTM kept as from the full history cut at the same
//      byte;
//    - at crash points of live runs, a cold Recover() and the promotion
//      of a standby whose shipping lag leaves it short of the kept
//      checkpoint install the same GTM2 StateFingerprint, Gtm1Stats and
//      Gtm1::Snapshot bytes as the same run on a device that keeps its
//      history.
//  * Long-run bound: over ten windows of commits with a GTM crash, the
//    kept log never holds more than one checkpoint plus the records that
//    follow it, however many commits came before.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "gtm/gtm1.h"
#include "gtm/gtm2.h"
#include "gtm/gtm_log.h"
#include "gtm_install_capture.h"
#include "gtm_log_analysis.h"
#include "history_log_device.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace mdbs {
namespace {

using gtm::GtmLogAnalysis;
using gtm::GtmLogRecord;
using gtm::GtmLogRecordType;
using gtm::GtmLogScan;
using gtm::SchemeKind;
using lcc::ProtocolKind;
using storage::MemLogDevice;

const std::vector<ProtocolKind> kProtocols = {
    ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
    ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic};

/// A durable GTM with a site crash sweep, checkpointing every 16 records.
MdbsConfig DiscardConfig(SchemeKind scheme, uint64_t seed) {
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, scheme);
  config.seed = seed;
  config.gtm.durable = true;
  config.gtm.checkpoint_interval = 16;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/4, /*first_at=*/2000, /*gap=*/4000, /*duration=*/1500);
  return config;
}

DriverConfig DiscardWorkload(int64_t commits) {
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = commits;
  driver.global_workload.items_per_site = 20;
  driver.local_workload.items_per_site = 20;
  driver.retry.max_resubmissions = 2;
  return driver;
}

class GtmLogDiscardTest : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(Schemes, GtmLogDiscardTest,
                         ::testing::Values(SchemeKind::kScheme0,
                                           SchemeKind::kScheme1,
                                           SchemeKind::kScheme2,
                                           SchemeKind::kScheme3),
                         [](const auto& info) {
                           return std::string(
                               gtm::SchemeKindName(info.param));
                         });

// ----------------------------------------------------------------------
// The catch-up rules at every append boundary
// ----------------------------------------------------------------------

/// What a catch-up over one log image rebuilds: the analysis GTM1 installs
/// and the GTM2 replayed from the latest checkpoint.
struct CatchUp {
  Status status;
  int64_t records = 0;
  GtmLogAnalysis analysis;
  std::vector<uint8_t> gtm2;
};

CatchUp CatchUpOn(const std::vector<uint8_t>& image, SchemeKind scheme) {
  CatchUp out;
  MemLogDevice device(image);
  GtmLogScan scan;
  out.status = gtm::ReadGtmLog(device, &scan);
  if (!out.status.ok()) return out;
  out.records = static_cast<int64_t>(scan.records.size());
  out.status = gtm::AnalyzeGtmLog(scan.records, &out.analysis);
  if (!out.status.ok()) return out;
  const size_t from =
      out.analysis.checkpoint_index == GtmLogAnalysis::kNoCheckpoint
          ? 0
          : out.analysis.checkpoint_index;
  gtm::Gtm2 gtm2(gtm::MakeScheme(scheme), gtm::Gtm2::Callbacks{});
  for (size_t i = from; i < scan.records.size(); ++i) {
    gtm::ReplayIntoGtm2(scan.records[i], &gtm2,
                        [scheme]() { return gtm::MakeScheme(scheme); });
  }
  out.gtm2 = gtm2.StateFingerprint();
  return out;
}

/// Everything a catch-up installs, compared field by field; the checkpoint
/// index is relative to the image and may differ.
::testing::AssertionResult SameCatchUp(const CatchUp& kept,
                                       const CatchUp& full) {
  std::vector<std::string> differ;
  auto check = [&differ](bool same, const char* field) {
    if (!same) differ.emplace_back(field);
  };
  const GtmLogAnalysis& k = kept.analysis;
  const GtmLogAnalysis& f = full.analysis;
  check(kept.status.ok() && full.status.ok(), "status");
  check(k.next_txn_id == f.next_txn_id, "next_txn_id");
  check(k.next_attempt_id == f.next_attempt_id, "next_attempt_id");
  check(k.next_job_id == f.next_job_id, "next_job_id");
  check(StatsFields(k.stats) == StatsFields(f.stats), "stats");
  check(k.quarantined == f.quarantined, "quarantined");
  check(k.jobs.size() == f.jobs.size(), "jobs");
  for (const auto& [id, job] : f.jobs) {
    auto it = k.jobs.find(id);
    check(it != k.jobs.end() && it->second.submit_time == job.submit_time &&
              it->second.attempts == job.attempts &&
              it->second.current_attempt == job.current_attempt &&
              it->second.parked == job.parked,
          "job image");
  }
  check(k.attempts.size() == f.attempts.size(), "attempts");
  for (const auto& [id, attempt] : f.attempts) {
    auto it = k.attempts.find(id);
    check(it != k.attempts.end() && it->second.job == attempt.job &&
              it->second.committing == attempt.committing &&
              it->second.commit_index == attempt.commit_index &&
              it->second.subs == attempt.subs &&
              it->second.reads == attempt.reads,
          "attempt image");
  }
  check(kept.gtm2 == full.gtm2, "GTM2 StateFingerprint");
  if (differ.empty()) return ::testing::AssertionSuccess();
  std::string fields;
  for (const std::string& field : differ) fields += " " + field;
  return ::testing::AssertionFailure() << "differs in" << fields;
}

TEST_P(GtmLogDiscardTest, KeptSuffixCatchesUpLikeTheHistoryAtEveryAppend) {
  const SchemeKind scheme = GetParam();
  MdbsConfig config = DiscardConfig(scheme, 101);
  auto device = std::make_shared<HistoryLogDevice>();
  config.gtm.wal_device = device;
  int64_t cuts = 0;
  int64_t discarded_cuts = 0;
  int64_t max_kept_records = 0;
  int64_t failures = 0;
  auto compare = [&](const std::vector<uint8_t>& kept,
                     const std::vector<uint8_t>& full, const char* where) {
    const CatchUp from_kept = CatchUpOn(kept, scheme);
    const CatchUp from_full = CatchUpOn(full, scheme);
    ++cuts;
    if (kept.size() < full.size()) ++discarded_cuts;
    max_kept_records = std::max(max_kept_records, from_kept.records);
    ::testing::AssertionResult same = SameCatchUp(from_kept, from_full);
    if (same) return;
    ++failures;
    ADD_FAILURE() << where << " at history byte " << full.size()
                  << " (kept " << kept.size() << " B): kept "
                  << from_kept.status.ToString() << ", history "
                  << from_full.status.ToString() << "; " << same.message();
  };
  device->set_before_append([&](const HistoryLogDevice& at,
                                const uint8_t* data, size_t size) {
    if (failures > 0) return;  // The first divergence says it all.
    std::vector<uint8_t> kept = at.retained().Image();
    std::vector<uint8_t> full = at.history();
    compare(kept, full, "boundary");
    // A crash halfway through the next frame leaves it torn on both.
    const size_t half = size / 2;
    kept.insert(kept.end(), data, data + half);
    full.insert(full.end(), data, data + half);
    compare(kept, full, "mid-frame cut");
  });
  Mdbs system(config);
  DriverReport report = RunDriver(&system, DiscardWorkload(30), 101);
  EXPECT_TRUE(system.CheckGloballySerializable().ok());
  EXPECT_GE(report.global_committed, 20);

  EXPECT_EQ(failures, 0);
  GtmLogScan history;
  MemLogDevice history_device(device->history());
  ASSERT_TRUE(gtm::ReadGtmLog(history_device, &history).ok());
  // Enough cuts, most of them after a discard, for the battery to mean
  // something; the kept log never reaches a fraction of the history.
  EXPECT_GE(cuts, 1000);
  EXPECT_GT(discarded_cuts, cuts / 2);
  EXPECT_GE(device->discards(), 10);
  EXPECT_LT(max_kept_records,
            static_cast<int64_t>(history.records.size()) / 4);
}

// ----------------------------------------------------------------------
// Live catch-ups from the kept log and from the history
// ----------------------------------------------------------------------

/// A GTM WAL device that keeps every byte: DiscardPrefix is the LogDevice
/// default, a no-op, as on FileLogDevice.
class KeepAllLogDevice : public storage::LogDevice {
 public:
  Status Append(const void* data, size_t size) override {
    return inner_.Append(data, size);
  }
  int64_t Size() const override { return inner_.Size(); }
  Status ReadAll(std::vector<uint8_t>* out) const override {
    return inner_.ReadAll(out);
  }
  void Truncate(int64_t size) override { inner_.Truncate(size); }

 private:
  MemLogDevice inner_;
};

constexpr sim::Time kDetection = 1000;
/// Far above kDetection: frames shipped in the last few thousand ticks
/// before the crash are still in flight at the promotion, so the standby
/// often lacks the kept checkpoint.
constexpr sim::Time kStandbyLag = 5000;

/// Runs one workload, crashes the GTM at `crash_at` and captures what the
/// catch-up installs kDetection ticks later: a cold Recover(), or with
/// `standby` the promotion of a lagging standby. The GTM logs to a device
/// that discards (`keep_all` false) or keeps its history.
Installed RunToInstall(SchemeKind scheme, bool standby, bool keep_all,
                       sim::Time crash_at) {
  MdbsConfig config = DiscardConfig(scheme, 7);
  if (keep_all) {
    config.gtm.wal_device = std::make_shared<KeepAllLogDevice>();
  }
  if (standby) {
    config.gtm_standby = true;
    config.standby_lag = kStandbyLag;
    config.fault_plan.gtm_failovers.push_back(
        fault::GtmFailoverEvent{crash_at, kDetection});
  } else {
    config.fault_plan.gtm_crashes.push_back(
        fault::GtmCrashEvent{crash_at, kDetection});
  }
  Mdbs system(config);
  Installed out;
  CaptureInstall(&system, crash_at, kDetection, &out);
  RunDriver(&system, DiscardWorkload(40), 7);
  return out;
}

TEST_P(GtmLogDiscardTest, RecoveryAndPromotionFromTheKeptLogInstallAlike) {
  const SchemeKind scheme = GetParam();
  int64_t shorter_recoveries = 0;
  int64_t checkpointed_promotions = 0;
  for (int point = 0; point < 12; ++point) {
    const sim::Time crash_at = 4000 + 2100 * point;
    SCOPED_TRACE("GTM crash at tick " + std::to_string(crash_at));
    {
      SCOPED_TRACE("cold recovery");
      const Installed kept = RunToInstall(scheme, false, false, crash_at);
      const Installed full = RunToInstall(scheme, false, true, crash_at);
      ExpectSameInstall(kept, full);
      if (kept.replayed_records < full.replayed_records) {
        ++shorter_recoveries;
      }
    }
    {
      SCOPED_TRACE("promotion");
      const Installed kept = RunToInstall(scheme, true, false, crash_at);
      const Installed full = RunToInstall(scheme, true, true, crash_at);
      ExpectSameInstall(kept, full);
      // The lagging standby read the kept log from its checkpoint, where
      // the history's tail started past it.
      if (kept.lag_records != full.lag_records) ++checkpointed_promotions;
    }
  }
  EXPECT_GE(shorter_recoveries, 10)
      << "cold recovery rarely read less than the history";
  EXPECT_GE(checkpointed_promotions, 6)
      << "too few promotions caught up from the kept checkpoint";
}

// ----------------------------------------------------------------------
// The kept log stays bounded over a long run
// ----------------------------------------------------------------------

// Ten windows of commits and a GTM crash in the middle. Just before each
// checkpoint frame lands, the device must hold exactly the previous
// checkpoint and the records since: at most one checkpoint frame plus the
// records of one checkpoint cycle, however many commits came before. (A
// checkpoint falls due after the interval and is taken at the next strand
// turn, so a cycle can run a few records past the interval.)
TEST(GtmLogDiscardBoundTest, KeptLogStaysWithinOneCheckpointCycle) {
  constexpr int64_t kCheckpointInterval = 32;
  constexpr int64_t kWindowCommits = 60;
  constexpr int kWindows = 10;
  MdbsConfig config = DiscardConfig(SchemeKind::kScheme3, 5);
  config.gtm.checkpoint_interval = kCheckpointInterval;
  fault::FaultPlan plan;
  plan.gtm_crashes.push_back(fault::GtmCrashEvent{300'000, 2000});
  config.fault_plan = plan;
  auto device = std::make_shared<HistoryLogDevice>();
  config.gtm.wal_device = device;
  struct Cycle {
    int64_t kept = 0;
    int64_t history_at = 0;
  };
  std::vector<Cycle> cycles;
  device->set_before_append([&cycles](const HistoryLogDevice& at,
                                      const uint8_t* data, size_t size) {
    constexpr auto kCheckpoint =
        static_cast<uint8_t>(GtmLogRecordType::kCheckpoint);
    const size_t type_at = storage::kFrameHeaderSize;
    if (size > type_at && data[type_at] == kCheckpoint) {
      cycles.push_back({at.Size(), static_cast<int64_t>(at.history().size())});
    }
  });
  Mdbs system(config);
  DriverReport report =
      RunDriver(&system, DiscardWorkload(kWindows * kWindowCommits), 5);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_EQ(report.gtm_durability.recoveries, 1);
  EXPECT_GE(report.global_committed, kWindows * kWindowCommits * 4 / 5);

  GtmLogScan scan;
  MemLogDevice history(device->history());
  ASSERT_TRUE(gtm::ReadGtmLog(history, &scan).ok());
  // Frame sizes, and the most records between two checkpoints.
  int64_t largest_checkpoint = 0;
  int64_t largest_record = 0;
  int64_t longest_cycle = 0;
  int64_t since_checkpoint = 0;
  for (const GtmLogRecord& record : scan.records) {
    const int64_t frame =
        static_cast<int64_t>(gtm::EncodeGtmLogRecord(record).size());
    if (record.type == GtmLogRecordType::kCheckpoint) {
      largest_checkpoint = std::max(largest_checkpoint, frame);
      since_checkpoint = 0;
    } else {
      largest_record = std::max(largest_record, frame);
      longest_cycle = std::max(longest_cycle, ++since_checkpoint);
    }
  }
  EXPECT_LE(longest_cycle, kCheckpointInterval + kCheckpointInterval / 2);
  const int64_t bound = largest_checkpoint + longest_cycle * largest_record;

  ASSERT_GE(cycles.size(), 2u * kWindows)
      << "too few checkpoints for the bound to mean anything";
  int64_t previous_at = 0;  // Before the first checkpoint: everything.
  for (size_t c = 0; c < cycles.size(); ++c) {
    EXPECT_EQ(cycles[c].kept, cycles[c].history_at - previous_at)
        << "checkpoint " << c << ": the device keeps more than the last "
        << "checkpoint and what followed it";
    EXPECT_LE(cycles[c].kept, bound)
        << "checkpoint " << c << " of " << cycles.size();
    previous_at = cycles[c].history_at;
  }
  EXPECT_EQ(device->Size(),
            static_cast<int64_t>(device->history().size()) - previous_at);
  EXPECT_GT(static_cast<int64_t>(device->history().size()),
            20 * device->Size());
}

}  // namespace
}  // namespace mdbs
