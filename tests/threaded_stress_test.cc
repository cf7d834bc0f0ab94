// Thread-sanitizer stress: every scheme of the paper, all seven local
// protocols mixed, 8 global clients + 2 local clients per site on the
// client strand and a periodic site crash every millisecond, all hammering
// one Mdbs through real strands. The test has two oracles:
//   - TSan (the `tsan` preset builds this with -fsanitize=thread): any
//     data race in the strands, the gateway, the auditor or the recorder
//     fails the run;
//   - the audit subsystem: scheme discipline and lock-table invariants are
//     checked inline (fail-fast aborts at the faulty event), and the
//     end-of-run oracle replays the recorded real interleaving through the
//     serializability checkers.
// Labeled `stress` (not tier1): minutes under TSan, not milliseconds.
#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

MdbsConfig StressSystem(SchemeKind scheme, uint64_t seed) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph, ProtocolKind::kOptimistic,
       ProtocolKind::kMultiversionTO, ProtocolKind::kTwoPhaseLockingWoundWait,
       ProtocolKind::kTwoPhaseLockingWaitDie},
      scheme);
  config.seed = seed;
  config.threaded = true;
  // Crash a site roughly every millisecond.
  config.fault_plan.periodic = fault::PeriodicCrashes{1000, 1000};
  return config;
}

DriverConfig StressWorkload() {
  DriverConfig config;
  config.global_clients = 8;
  config.local_clients_per_site = 2;  // 8 + 7*2 = 22 strand clients.
  config.target_global_commits = 60;
  config.global_workload.items_per_site = 20;  // Hot items: real conflicts.
  config.global_workload.dav_min = 2;
  config.global_workload.dav_max = 3;
  config.local_workload.items_per_site = 20;
  return config;
}

class ThreadedStress : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ThreadedStress,
    ::testing::Values(SchemeKind::kScheme0, SchemeKind::kScheme1,
                      SchemeKind::kScheme2, SchemeKind::kScheme3),
    [](const ::testing::TestParamInfo<SchemeKind>& info) {
      return gtm::SchemeKindName(info.param);
    });

TEST_P(ThreadedStress, MixedProtocolsWithCrashesStayCleanUnderRealThreads) {
  uint64_t seed = 100 + static_cast<uint64_t>(GetParam());
  Mdbs system(StressSystem(GetParam(), seed));
  DriverConfig workload = StressWorkload();
  DriverReport report = RunDriver(&system, workload, seed);

  // Crashes make individual global transactions fail (attempts exhausted,
  // partial commits at the OCC site), and the periodic crashes run on real
  // time while transaction progress slows ~10x under TSan — committed
  // counts are timing-dependent (Scheme 0, fully serial, commits
  // single-digit numbers under TSan with 1ms crash cadence). Assert the
  // run reaches the target of *finished* transactions and that commits
  // happen at all; the serializability oracles below are the substance.
  EXPECT_GE(report.global_committed + report.global_failed,
            workload.target_global_commits);
  EXPECT_GT(report.global_committed, 0);
  EXPECT_GT(report.local_committed, 0);
  EXPECT_GE(report.crashes, 1) << "crash injector never fired";

  // The inline auditors (scheme discipline, ser graph, lock tables) and the
  // end-of-run oracle all went through concurrent code paths; fail-fast
  // would have aborted mid-run, but assert the verdict explicitly so a
  // non-fail-fast configuration still fails here.
  EXPECT_TRUE(system.auditor().clean());
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
}

// Back-to-back runs against fresh systems: strand startup/shutdown (worker
// join, quiescence sweep, stale-timer discard) is exercised repeatedly —
// the classic place for shutdown races.
TEST(ThreadedStressLifecycle, RepeatedRunsStartAndStopCleanly) {
  for (int round = 0; round < 3; ++round) {
    Mdbs system(StressSystem(SchemeKind::kScheme2, 7 + round));
    DriverConfig workload = StressWorkload();
    workload.target_global_commits = 15;
    DriverReport report = RunDriver(&system, workload, 7 + round);
    EXPECT_GE(report.global_committed + report.global_failed, 15);
    EXPECT_TRUE(system.auditor().clean());
  }
}

}  // namespace
}  // namespace mdbs
