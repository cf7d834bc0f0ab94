#ifndef MDBS_MDBS_DRIVER_H_
#define MDBS_MDBS_DRIVER_H_

#include <optional>
#include <string>

#include "analysis/template.h"
#include "mdbs/mdbs.h"
#include "mdbs/workload.h"
#include "sim/metrics.h"

namespace mdbs {

/// Client-level retry policy on top of the GTM's own attempts: a failed
/// global transaction is resubmitted (as a fresh GTM job, same spec) up to
/// `max_resubmissions` times, with doubling backoff from `backoff`.
/// Resubmission is guarded by GlobalTxnResult::retry_safe — a partial
/// commit is never resubmitted, since that would double-apply the committed
/// sites' effects. A retry-safe failure that exhausts the budget is counted
/// as failed permanently (DriverReport::txns_failed_permanently).
struct RetryConfig {
  /// Resubmission budget per logical transaction. 0 disables client
  /// retries.
  int max_resubmissions = 0;
  /// Initial backoff before a resubmission; doubles per resubmission
  /// (capped at 8x), plus uniform jitter of up to one base interval.
  sim::Time backoff = 1000;
};

/// A closed-loop experiment: `global_clients` clients each keep one global
/// transaction in flight (multiprogramming level), while
/// `local_clients_per_site` clients per site run local transactions that
/// the GTM never sees — the source of indirect conflicts. The run stops
/// once `target_global_commits` global transactions committed and all
/// in-flight work drained. Site crashes come from MdbsConfig::fault_plan
/// (e.g. its `periodic@I:D` directive).
struct DriverConfig {
  int global_clients = 8;
  int local_clients_per_site = 2;
  int64_t target_global_commits = 200;
  /// Think time between a client's transactions.
  sim::Time global_think = 50;
  sim::Time local_think = 50;
  /// Give up on a local transaction after this many aborts. Attempts are
  /// 50–150 ticks apart, so the default outlasts a few-thousand-tick
  /// outage of the site.
  int local_max_attempts = 50;
  /// Client-level retry layer (see RetryConfig).
  RetryConfig retry;
  GlobalWorkloadConfig global_workload;
  LocalWorkloadConfig local_workload;
  /// When set, global clients instantiate these declared templates
  /// (weighted draw) instead of the random `global_workload` — the subject
  /// of the static robustness analyzer (src/analysis). A certified
  /// fast-path run is only sound while every submitted transaction comes
  /// from the certified mix, which this guarantees. Both engines honor it.
  std::optional<analysis::TemplateMix> templates;
};

/// Results of one driver run.
struct DriverReport {
  int64_t global_committed = 0;
  int64_t global_failed = 0;
  int64_t local_committed = 0;
  int64_t local_failed = 0;
  int64_t local_abort_retries = 0;
  sim::Time duration = 0;
  /// Committed global transactions per million ticks.
  double global_throughput = 0;
  sim::Summary global_response;  // Submit-to-commit latency.
  sim::Summary global_attempts;  // Attempts per committed transaction.
  gtm::Gtm1Stats gtm1;
  gtm::Gtm2Stats gtm2;
  int64_t site_blocked = 0;  // Blocked operations across sites.
  int64_t site_aborts = 0;   // Local protocol aborts across sites.
  int64_t crashes = 0;       // Injected site crashes.
  /// Client-level resubmissions of failed-but-retry-safe transactions.
  int64_t global_resubmissions = 0;
  /// Failures not resubmitted because retry_safe was false (partial
  /// commits).
  int64_t global_retry_unsafe = 0;
  /// Retry-safe failures that exhausted RetryConfig::max_resubmissions:
  /// the client gave up on the transaction for good. Excludes failures
  /// after the run stopped issuing (those are drain artifacts, not budget
  /// exhaustion).
  int64_t txns_failed_permanently = 0;
  /// What the fault layer injected/suppressed (losses, dups, spikes,
  /// plan crashes).
  fault::FaultStats faults;
  /// WAL/recovery activity summed across durable sites (zeros otherwise).
  site::SiteDurabilityStats durability;
  /// The durable GTM's own WAL/crash/replay activity (zeros when the GTM
  /// is not durable or no gtm_crash was injected). With a warm standby
  /// this is the pair's sum, continuous across a failover.
  gtm::GtmDurabilityStats gtm_durability;
  /// Warm-standby shipping/failover counters (zeros without a standby).
  gtm::GtmStandbyStats gtm_standby;
  /// Threaded runs only: how the strand workers waited for their next task.
  std::optional<sim::WorkerWaits> worker_waits;

  std::string ToString() const;

  /// Contributes the report's counters and latency summaries to `registry`
  /// under "driver." / "gtm1." / "gtm2." names, plus "sim.worker." in
  /// threaded runs, so the JSON run report (src/obs/report) carries
  /// driver-level results next to the metrics engine's phase metrics.
  void AddToRegistry(sim::MetricsRegistry* registry) const;
};

/// Runs the closed-loop experiment on `mdbs`, in either engine. Every
/// client is a callback state machine on Mdbs::ClientRunner(): think time,
/// backoff and retries are timed tasks there, and each GTM or site answer
/// reaches its client on that runner, so no client ever blocks and every
/// tally lives on one runner.
///
/// Simulation mode: the clients share the event loop, the run ends with
/// RunUntilIdle, and the report is a deterministic function of `seed`.
///
/// Threaded mode: the clients share one strand, and tick-denominated knobs
/// (think times, backoff) are real microseconds. Once every client has
/// finished, in-flight work drains (Mdbs::FinishThreadedRun), and the
/// report's duration/throughput are wall-clock microseconds / transactions
/// per second. `seed` still shapes the workload, but the interleaving is
/// the hardware's, so two runs with one seed may commit in different
/// orders. That is the point: the paper's schemes must keep the schedule
/// serializable under real interleavings, not only simulated ones.
///
/// Both modes end by running the audit oracle over the recorded schedule.
DriverReport RunDriver(Mdbs* mdbs, const DriverConfig& config, uint64_t seed);

}  // namespace mdbs

#endif  // MDBS_MDBS_DRIVER_H_
