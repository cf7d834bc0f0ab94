// The load generator: one thread submitting pre-generated transactions
// through Mdbs::SubmitGlobal for a fixed number of closed-loop clients (a
// client submits its next transaction only after the previous one's final
// callback). Everything it measures is wall-clock or OS-measured time.
#ifndef WALLBENCH_CLOSED_LOOP_H_
#define WALLBENCH_CLOSED_LOOP_H_

#include <cstdint>
#include <vector>

#include "mdbs/mdbs.h"
#include "seams.h"
#include "workloads.h"

namespace wallbench {

struct LoopOptions {
  /// Timed mode: commits finishing in [warmup, warmup + measure) count.
  double warmup_s = 0;
  double measure_s = 0;
  /// Untimed mode (measure_s == 0): stop after this many submissions.
  int64_t max_submits = 0;
  /// Self-test probe: CPU time burnt at the end of every completion
  /// callback, on the GTM strand. 0 in every reported run.
  int64_t probe_spin_ns = 0;
  /// Traced run: submit/callback spans go here.
  SpanLog* spans = nullptr;
};

/// Width of the timed interval's windows for the per-window commit counts.
inline constexpr int64_t kWindowNs = 2'000'000'000;

struct LoopResult {
  // Whole run (warm-up, timed interval and drain).
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t failed = 0;
  int64_t partial_failed = 0;  // failed with retry_safe == false
  int64_t callbacks = 0;
  int64_t duplicate_callbacks = 0;
  int64_t left_in_flight = 0;
  int64_t pool_wraps = 0;
  double run_wall_s = 0;

  // Timed interval.
  bool interval_complete = false;
  double interval_s = 0;
  int64_t interval_committed = 0;
  int64_t interval_failed = 0;
  std::vector<int64_t> latencies_ns;  // committed in the interval
  std::vector<int64_t> window_commits;  // per kWindowNs of the interval
  double process_cpu_s = 0;
  double generator_cpu_s = 0;
};

LoopResult RunClosedLoop(mdbs::Mdbs* system, const InputPool& pool,
                         const LoopOptions& options);

/// Constructs an MDBS, submits transactions until the first commit's
/// callback, and returns the wall seconds from the start of construction to
/// that callback. The instance is torn down before returning. Repetition
/// `rep` starts from its own pool transaction, so a set of repetitions
/// spans many transaction shapes rather than repeating one.
double MeasureSetup(const mdbs::MdbsConfig& config, const InputPool& pool,
                    int rep);

/// CPUs every timed run is bound to. On a shared 4-vCPU VM a wake-up sent to
/// another, idle vCPU costs whatever the host makes it cost: with two CPUs,
/// a plain two-thread ping-pong read 17-40 us per round trip from one minute
/// to the next, and ten-seed spreads of one-transaction-in-flight goodput
/// reached 42% of the median. On one CPU every strand hand-off is a
/// same-core context switch; NOTES.md has what that means for what hop can
/// judge.
inline constexpr int kBoundCpus = 1;
/// CPUs of the cross-core hand-off probe (sim.strand.handoff_us).
inline constexpr int kHandoffProbeCpus = 2;

/// Binds the calling thread, and the threads it creates from then on, to
/// the first `count` CPUs the process was allowed when it started. Returns
/// how many CPUs it is bound to (fewer if fewer exist), 0 on failure.
int BindCpus(int count);

/// Process user+sys CPU seconds (getrusage).
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, MiB.
double PeakRssMb();

}  // namespace wallbench

#endif  // WALLBENCH_CLOSED_LOOP_H_
