// What a GTM catch-up installs, captured right after Recover() or Promote()
// and before the GTM resumes, for tests that compare two catch-ups: cold
// recovery against promotion (gtm_failover_test), or a catch-up from the
// kept log against one from the whole history (gtm_log_discard_test).
#ifndef MDBS_TESTS_GTM_INSTALL_CAPTURE_H_
#define MDBS_TESTS_GTM_INSTALL_CAPTURE_H_

#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "gtm/gtm1.h"
#include "gtm/gtm_log.h"
#include "gtm/gtm_replica.h"
#include "mdbs/mdbs.h"
#include "sim/event_loop.h"

namespace mdbs {

struct Installed {
  bool captured = false;
  std::vector<uint8_t> gtm2;
  std::array<int64_t, 13> stats{};
  int64_t in_flight = 0;
  /// Gtm1::Snapshot — id allocators, counters, job and attempt tables,
  /// quarantine and GTM2's image — encoded as a checkpoint record.
  std::vector<uint8_t> snapshot;
  size_t jobs = 0;
  size_t attempts = 0;
  /// Records the catch-up read back from the log: the promotion's tail,
  /// or what cold recovery replayed.
  int64_t lag_records = 0;
  int64_t replayed_records = 0;
};

inline std::array<int64_t, 13> StatsFields(const gtm::Gtm1Stats& s) {
  return {s.submitted,        s.committed,       s.failed,
          s.attempts,         s.aborted_attempts, s.scheme_aborts,
          s.timeouts,         s.partial_commits, s.site_down_aborts,
          s.parked,           s.unparked,        s.park_timeouts,
          s.fast_path_attempts};
}

/// Fills `out` `detection` ticks after `crash_at`, where the system's
/// fault plan crashes the GTM and recovers or promotes it. Call it after
/// building the system: scheduled after the plan's crash, the capture
/// lands after the catch-up the crash scheduled and before the resume the
/// catch-up schedules.
inline void CaptureInstall(Mdbs* system, sim::Time crash_at,
                           sim::Time detection, Installed* out) {
  system->loop().Schedule(crash_at, [system, detection, out]() {
    system->loop().Schedule(detection, [system, out]() {
      gtm::Gtm1& gtm = system->gtm();
      out->captured = true;
      out->gtm2 = gtm.gtm2().StateFingerprint();
      out->stats = StatsFields(gtm.stats());
      out->in_flight = gtm.InFlight();
      gtm::GtmLogRecord record;
      record.type = gtm::GtmLogRecordType::kCheckpoint;
      gtm.Snapshot(&record.checkpoint);
      out->snapshot = gtm::EncodeGtmLogRecord(record);
      out->jobs = record.checkpoint.jobs.size();
      out->attempts = record.checkpoint.attempts.size();
      out->lag_records = system->gtm_standby_stats().lag_records;
      out->replayed_records =
          system->gtm_durability_stats().replayed_records;
    });
  });
}

/// The two catch-ups installed the same GTM2, job and attempt tables, id
/// allocators, quarantine and counters.
inline void ExpectSameInstall(const Installed& a, const Installed& b) {
  ASSERT_TRUE(a.captured && b.captured);
  EXPECT_EQ(a.gtm2, b.gtm2) << "GTM2 StateFingerprint differs";
  EXPECT_EQ(a.stats, b.stats) << "Gtm1Stats differ";
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.snapshot, b.snapshot)
      << "job or attempt tables, id allocators or quarantine differ";
}

}  // namespace mdbs

#endif  // MDBS_TESTS_GTM_INSTALL_CAPTURE_H_
