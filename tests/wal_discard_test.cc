// The site WAL keeps only its suffix from the last complete checkpoint on
// (storage::WalWriter discards the prefix at every checkpoint). Two checks
// that doing so loses nothing and bounds what is kept, on simulator runs
// whose sites log through a HistoryLogDevice:
//
//  * Crash-point differential: at every append boundary, and at a cut in
//    the middle of the frame being appended, recovery from what the site
//    kept equals recovery from the full history cut at the same byte, for
//    all five local protocols, through a crash of every site.
//  * Long-run bound: over ten windows of commits with a site crash, the
//    kept log never holds more than one checkpoint plus the records that
//    follow it, however many commits came before.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "history_log_device.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "storage/framing.h"
#include "storage/log_device.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;
using storage::MemLogDevice;
using storage::RecoveredState;
using storage::WalRecordType;
using storage::WalScan;

const std::vector<ProtocolKind> kProtocols = {
    ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
    ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic,
    ProtocolKind::kMultiversionTO};

/// Everything recovery rebuilds, compared field by field. Only the scan
/// statistics (`scanned_records`, `scanned_bytes`) may differ between the
/// kept log and the history: they measure how much was read.
::testing::AssertionResult SameRecovery(const RecoveredState& kept,
                                        const RecoveredState& full) {
  std::vector<std::string> differ;
  auto check = [&differ](bool same, const char* field) {
    if (!same) differ.emplace_back(field);
  };
  check(kept.store == full.store, "store");
  check(kept.last_writer == full.last_writer, "last_writer");
  check(kept.mv_initial == full.mv_initial, "mv_initial");
  check(kept.mv_latest == full.mv_latest, "mv_latest");
  check(kept.clock == full.clock, "clock");
  check(kept.committed_set == full.committed_set, "committed_set");
  check(kept.loser_txns == full.loser_txns, "loser_txns");
  check(kept.undone_writes == full.undone_writes, "undone_writes");
  check(kept.redo_writes == full.redo_writes, "redo_writes");
  check(kept.clr_replays == full.clr_replays, "clr_replays");
  check(kept.committed_txns == full.committed_txns, "committed_txns");
  check(kept.used_checkpoint == full.used_checkpoint, "used_checkpoint");
  check(kept.torn_tail == full.torn_tail, "torn_tail");
  if (differ.empty()) return ::testing::AssertionSuccess();
  std::ostringstream out;
  for (const std::string& field : differ) out << " " << field;
  return ::testing::AssertionFailure() << "differs in" << out.str();
}

/// Runs the differential at every append to one site's device.
class CrashPointChecker {
 public:
  CrashPointChecker(std::string name, bool multiversion)
      : name_(std::move(name)), multiversion_(multiversion) {}

  void Attach(HistoryLogDevice* device) {
    device->set_before_append(
        [this](const HistoryLogDevice& at, const uint8_t* data,
               size_t size) { Check(at, data, size); });
  }

  /// The device is at an append boundary, about to receive `data`.
  void Check(const HistoryLogDevice& device, const uint8_t* data,
             size_t size) {
    if (failures_ > 0) return;  // The first divergence says it all.
    std::vector<uint8_t> kept = device.retained().Image();
    std::vector<uint8_t> full = device.history();
    Compare(kept, full, "boundary");
    // A crash halfway through the next frame leaves it torn on both.
    size_t half = size / 2;
    if (half == 0) return;
    kept.insert(kept.end(), data, data + half);
    full.insert(full.end(), data, data + half);
    Compare(kept, full, "mid-frame cut");
  }

  int64_t cuts() const { return cuts_; }
  int64_t checkpointed_cuts() const { return checkpointed_cuts_; }
  int64_t max_kept_records() const { return max_kept_records_; }
  int64_t failures() const { return failures_; }

 private:
  void Compare(const std::vector<uint8_t>& kept,
               const std::vector<uint8_t>& full, const char* where) {
    RecoveredState from_kept, from_full;
    Status kept_status =
        storage::RecoverWal(MemLogDevice(kept), multiversion_, &from_kept);
    Status full_status =
        storage::RecoverWal(MemLogDevice(full), multiversion_, &from_full);
    ++cuts_;
    if (from_full.used_checkpoint) ++checkpointed_cuts_;
    max_kept_records_ =
        std::max(max_kept_records_, from_kept.scanned_records);
    ::testing::AssertionResult same = SameRecovery(from_kept, from_full);
    if (kept_status.ok() && full_status.ok() && same) return;
    ++failures_;
    ADD_FAILURE() << name_ << " " << where << " at history byte "
                  << full.size() << " (kept " << kept.size()
                  << " B): kept " << kept_status.ToString() << ", history "
                  << full_status.ToString() << "; "
                  << same.message();
  }

  std::string name_;
  bool multiversion_;
  int64_t cuts_ = 0;
  int64_t checkpointed_cuts_ = 0;
  int64_t max_kept_records_ = 0;
  int64_t failures_ = 0;
};

TEST(WalDiscardTest, KeptSuffixRecoversLikeTheHistoryAtEveryCrashPoint) {
  MdbsConfig config = MdbsConfig::Mixed(kProtocols, SchemeKind::kScheme3);
  config.seed = 23;
  config.gtm.attempt_timeout = 10'000;
  config.gtm.retry_backoff = 200;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  StatusOr<fault::FaultPlan> plan = fault::ParseFaultPlan(
      "crash@1500:s0:1200;crash@2500:s1:1000;crash@3500:s2:1000;"
      "crash@4500:s3:1200;crash@5500:s4:800");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  config.fault_plan = *plan;
  std::vector<std::shared_ptr<HistoryLogDevice>> devices;
  std::vector<std::unique_ptr<CrashPointChecker>> checkers;
  for (size_t i = 0; i < kProtocols.size(); ++i) {
    site::SiteConfig& site = config.sites[i];
    site.durable = true;
    site.checkpoint_interval = 8;
    devices.push_back(std::make_shared<HistoryLogDevice>());
    site.wal_device = devices.back();
    checkers.push_back(std::make_unique<CrashPointChecker>(
        lcc::ProtocolKindName(kProtocols[i]),
        kProtocols[i] == ProtocolKind::kMultiversionTO));
    checkers.back()->Attach(devices.back().get());
  }
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  driver.global_workload.items_per_site = 16;
  driver.local_workload.items_per_site = 16;
  driver.retry.max_resubmissions = 3;
  driver.retry.backoff = 400;
  DriverReport report = RunDriver(&system, driver, 23);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_EQ(report.durability.recoveries, 5);

  for (size_t i = 0; i < kProtocols.size(); ++i) {
    SCOPED_TRACE(lcc::ProtocolKindName(kProtocols[i]));
    const CrashPointChecker& checker = *checkers[i];
    EXPECT_EQ(checker.failures(), 0);
    // Enough cuts, most of them after a discard, for the battery to mean
    // something: the history is several times what the site kept.
    EXPECT_GE(checker.cuts(), 200);
    EXPECT_GT(checker.checkpointed_cuts(), checker.cuts() / 2);
    EXPECT_GE(devices[i]->discards(), 10);
    EXPECT_GT(static_cast<int64_t>(devices[i]->history().size()),
              4 * devices[i]->Size());
    // The kept log is read from its checkpoint on: its scan never grows
    // with the history, which the last cut scans in full.
    WalScan scan;
    ASSERT_TRUE(
        storage::ReadWal(MemLogDevice(devices[i]->history()), &scan).ok());
    EXPECT_LT(checker.max_kept_records(),
              static_cast<int64_t>(scan.records.size()) / 4);
  }
}

// ----------------------------------------------------------------------
// The kept log stays bounded over a long run
// ----------------------------------------------------------------------

/// Watches one device for checkpoint frames.
class CheckpointCycles {
 public:
  /// Just before a checkpoint frame lands: what the device keeps then (the
  /// most a checkpoint cycle holds before the discard that ends it), and
  /// where in the history the frame starts.
  struct Cycle {
    int64_t kept = 0;
    int64_t history_at = 0;
  };

  void Attach(HistoryLogDevice* device) {
    device->set_before_append([this](const HistoryLogDevice& at,
                                     const uint8_t* data, size_t size) {
      const size_t type_at = storage::kFrameHeaderSize;
      if (size > type_at && data[type_at] == static_cast<uint8_t>(
                                                 WalRecordType::kCheckpoint)) {
        cycles_.push_back(
            {at.Size(), static_cast<int64_t>(at.history().size())});
      }
    });
  }
  const std::vector<Cycle>& cycles() const { return cycles_; }

 private:
  std::vector<Cycle> cycles_;
};

// Ten windows of commits on four durable sites, one of which crashes and
// recovers. Before each checkpoint a site's device must hold exactly the
// previous checkpoint and the records since, and so stay within one
// checkpoint frame plus `checkpoint_interval` data frames, however many
// commits came before. (A checkpoint falls due after the interval and is
// written at the next begin, write or commit, so an abort's CLRs can run a
// few records past it; most data frames are smaller than the largest, a
// write, which absorbs them.) The checkpoint frame itself still grows with
// the commits it lists (`CheckpointImage::committed`).
TEST(WalDiscardTest, KeptLogStaysWithinOneCheckpointCycleOverALongRun) {
  constexpr int kSites = 4;
  constexpr int64_t kCheckpointInterval = 32;
  constexpr int64_t kWindowCommits = 60;
  constexpr int kWindows = 10;
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kMultiversionTO,
       ProtocolKind::kOptimistic, ProtocolKind::kSerializationGraph},
      SchemeKind::kScheme3);
  config.seed = 5;
  config.gtm.attempt_timeout = 10'000;
  config.health.probe_interval = 300;
  config.health.suspect_after = 600;
  config.health.down_after = 1200;
  StatusOr<fault::FaultPlan> plan =
      fault::ParseFaultPlan("crash@20000:s2:3000");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  config.fault_plan = *plan;
  std::vector<std::shared_ptr<HistoryLogDevice>> devices;
  std::vector<CheckpointCycles> watchers(kSites);
  for (int i = 0; i < kSites; ++i) {
    site::SiteConfig& site = config.sites[static_cast<size_t>(i)];
    site.durable = true;
    site.checkpoint_interval = kCheckpointInterval;
    devices.push_back(std::make_shared<HistoryLogDevice>());
    site.wal_device = devices.back();
    watchers[static_cast<size_t>(i)].Attach(devices.back().get());
  }
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 6;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = kWindows * kWindowCommits;
  driver.global_workload.items_per_site = 40;
  driver.local_workload.items_per_site = 40;
  driver.retry.max_resubmissions = 3;
  DriverReport report = RunDriver(&system, driver, 5);
  EXPECT_TRUE(system.RunAuditOracle().ok());
  EXPECT_EQ(report.durability.recoveries, 1);
  // Some globals give up after their retries; most of the ten windows'
  // worth must still commit for the run to be long.
  EXPECT_GE(report.global_committed, kWindows * kWindowCommits * 4 / 5);

  for (int i = 0; i < kSites; ++i) {
    SCOPED_TRACE(::testing::Message() << "site " << i);
    const HistoryLogDevice& device = *devices[static_cast<size_t>(i)];
    WalScan scan;
    ASSERT_TRUE(
        storage::ReadWal(MemLogDevice(device.history()), &scan).ok());
    int64_t largest_checkpoint = 0;
    int64_t largest_data = 0;
    for (size_t r = 0; r < scan.records.size(); ++r) {
      int64_t frame = static_cast<int64_t>(
          scan.boundaries[r] - (r == 0 ? 0 : scan.boundaries[r - 1]));
      int64_t& largest = scan.records[r].type == WalRecordType::kCheckpoint
                             ? largest_checkpoint
                             : largest_data;
      largest = std::max(largest, frame);
    }
    const int64_t bound =
        largest_checkpoint + kCheckpointInterval * largest_data;

    const std::vector<CheckpointCycles::Cycle>& cycles =
        watchers[static_cast<size_t>(i)].cycles();
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
    EXPECT_EQ(device.Size(),
              static_cast<int64_t>(device.history().size()) - previous_at);
    EXPECT_GT(static_cast<int64_t>(device.history().size()),
              20 * device.Size());
  }
}

}  // namespace
}  // namespace mdbs
