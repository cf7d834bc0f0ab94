// Standalone calls into single layers' public functions, each fed from the
// workload's own pre-generated inputs. They run after the traced sub-runs, on
// an otherwise idle process.
#ifndef WALLBENCH_PROBES_H_
#define WALLBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "workloads.h"

namespace wallbench {

struct ProbeResults {
  /// sim: cross-thread RealStrand::Schedule(0) to task start, p50, with
  /// the caller and the strand on two CPUs (cross-core).
  double strand_handoff_us = 0;
  /// sim: lateness of RealStrand::Schedule(10) past its due time, p50.
  double strand_timer_late_us = 0;
  /// gtm: SyntheticGtmHarness, Scheme 3, 64 active transactions, 4 sites.
  double harness_s3_us_per_txn = 0;
  /// lcc: LockManager::Acquire per operation plus its share of ReleaseAll.
  double lock_acquire_release_ns = 0;
  /// storage: FrameWriter::AppendPayload on a MemLogDevice.
  double frame_append_ns = 0;
  /// obs: sim::Summary::Add, the histogram behind the metrics engine.
  double histogram_record_ns = 0;
};

/// `latencies_ns` feeds the histogram probe (the traced sub-runs' samples).
ProbeResults RunProbes(const InputPool& pool, uint64_t seed,
                       const std::vector<int64_t>& latencies_ns);

}  // namespace wallbench

#endif  // WALLBENCH_PROBES_H_
