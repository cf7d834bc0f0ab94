#ifndef MDBS_FAULT_FAULT_PLAN_H_
#define MDBS_FAULT_FAULT_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "sim/task_runner.h"

namespace mdbs::fault {

/// One scheduled site crash: the site goes down at `at` and recovers
/// `duration` ticks later. Committed state survives (stable storage);
/// everything active at the site aborts.
struct CrashEvent {
  SiteId site;
  sim::Time at = 0;
  sim::Time duration = 0;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// One scheduled GTM crash: the global transaction manager loses all
/// volatile state at `at` and starts recovery (WAL replay, then resume)
/// `duration` ticks later. Requires a durable GTM — armed plans are
/// validated against the multidatabase config and rejected loudly when the
/// GTM has no log to replay.
struct GtmCrashEvent {
  sim::Time at = 0;
  sim::Time duration = 0;

  friend bool operator==(const GtmCrashEvent&, const GtmCrashEvent&) = default;
};

/// One scheduled GTM failover: the primary GTM crashes at `at` and — after
/// `duration` ticks of detection delay — the warm standby is promoted in
/// its place (fenced takeover, see gtm::GtmReplica::Promote). Requires both a
/// durable GTM and a configured standby; at most one per plan, and never
/// mixed with gtm_crash directives (the fenced old primary must stay dead —
/// recovering it alongside the promoted standby would be split brain).
struct GtmFailoverEvent {
  sim::Time at = 0;
  sim::Time duration = 0;

  friend bool operator==(const GtmFailoverEvent&,
                         const GtmFailoverEvent&) = default;
};

/// A crash sweep over every site, resolved against the actual site count
/// when the multidatabase is built: site i crashes at `first_at + i * gap`
/// for `duration` ticks.
struct SweepEvent {
  sim::Time first_at = 0;
  sim::Time gap = 0;
  sim::Time duration = 0;

  friend bool operator==(const SweepEvent&, const SweepEvent&) = default;
};

/// Crashes that recur while the multidatabase is busy: every `interval`
/// ticks one site crashes for `duration` ticks. The victim is drawn from a
/// stream of its own, seeded from the plan, among the sites no periodic
/// window currently holds down. The loop runs on the GTM's runner only
/// while the GTM has transactions in flight, and GTM activity restarts it,
/// so an idle multidatabase has no perpetual timer.
struct PeriodicCrashes {
  sim::Time interval = 0;
  sim::Time duration = 0;

  friend bool operator==(const PeriodicCrashes&,
                         const PeriodicCrashes&) = default;
};

/// A deterministic, seedable fault-injection plan for one run. The plan has
/// two layers:
///   - scheduled crashes (`crashes`, `sweeps`): armed when the multidatabase
///     is built, so the same plan reproduces the same outage windows
///     tick-for-tick in the simulator; `periodic` crashes recur while the
///     GTM is busy, and replay just as exactly;
///   - per-message fault rates, drawn from one seeded stream by the
///     FaultInjector: request loss, response loss, duplicate delivery
///     (at-least-once networks) and delay spikes (gray failure — the message
///     arrives, late).
/// The paper defers failures to future work; this plan is the knob that
/// brings them in without giving up replayability.
struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<SweepEvent> sweeps;
  std::vector<GtmCrashEvent> gtm_crashes;
  std::vector<GtmFailoverEvent> gtm_failovers;
  std::optional<PeriodicCrashes> periodic;
  /// Probability a begin/data request is lost before reaching the site.
  double request_loss = 0;
  /// Probability the site's response is lost on the way back.
  double response_loss = 0;
  /// Probability a delivered message arrives twice (dedup guards at both
  /// receivers keep delivery effectively exactly-once).
  double duplicate = 0;
  /// Probability a delivered message is delayed by an extra uniform
  /// [1, spike_ticks] ticks (gray-failure slowdown).
  double delay_spike = 0;
  sim::Time spike_ticks = 0;
  /// Seed for the injector's message-fate stream and, apart from it, for
  /// the periodic victim stream. 0 means "derive from the multidatabase
  /// seed", so a plan embedded in a config stays reproducible without
  /// repeating the seed.
  uint64_t seed = 0;

  /// True when the plan injects nothing.
  bool Empty() const;

  /// True when any message-level fault rate is set.
  bool HasMessageFaults() const;

  /// Canonical spec string; ParseFaultPlan(ToSpec()) round-trips.
  std::string ToSpec() const;

  /// A plan that crashes every one of `num_sites` sites exactly once:
  /// site i goes down at `first_at + i * gap` for `duration` ticks. The
  /// acceptance scenario of the failure-recovery tests.
  static FaultPlan CrashSweep(int num_sites, sim::Time first_at, sim::Time gap,
                              sim::Time duration);
};

/// Parses a fault-plan spec. `text` is either the spec itself or the path of
/// a file holding it (detected by attempting to open it). Directives are
/// separated by ';' (or newlines in a file):
///   crash@T:sN:D   crash site N at tick T for D ticks
///   sweep@T:G:D    crash every site once: site i at T + i*G for D ticks
///                  (expanded against the actual site count at build time)
///   gtm_crash@T:D  crash the GTM at tick T; recovery starts D ticks later
///                  (durable GTM only — rejected otherwise at build time)
///   gtm_failover@T:D  crash the primary GTM at tick T; promote the warm
///                  standby D ticks later (durable GTM + standby only; at
///                  most one per plan, never mixed with gtm_crash)
///   periodic@I:D   every I ticks while the GTM has work in flight, crash
///                  one site for D ticks (I, D > 0; at most one per plan)
///   req_loss=P     drop requests with probability P
///   resp_loss=P    drop responses with probability P
///   dup=P          duplicate delivered messages with probability P
///   spike=P:D      delay delivered messages by up to D extra ticks, prob P
///   seed=S         message-fate stream seed (default: the run's seed)
/// Example: "sweep@2000:3000:1500;req_loss=0.02;dup=0.01;spike=0.05:200"
StatusOr<FaultPlan> ParseFaultPlan(const std::string& text);

/// Expands the plan's sweeps against `num_sites` into concrete CrashEvents
/// (appended to `crashes`, sweeps cleared). Crash events are returned sorted
/// by (at, site) so arming order is deterministic.
FaultPlan ResolveSweeps(const FaultPlan& plan, int num_sites);

/// Checks the plan against the target configuration. A plan with
/// gtm_crash directives is only runnable when the GTM is durable — a
/// non-durable GTM has no log to replay, so "crash and recover it" would
/// silently drop every in-flight global transaction. gtm_failover
/// additionally requires a configured warm standby, allows at most one
/// failover per plan (there is one standby to promote), and must not be
/// mixed with gtm_crash (the fenced old primary must stay dead). Fails
/// loudly instead of degrading.
Status ValidatePlanForConfig(const FaultPlan& plan, bool gtm_durable,
                             bool gtm_standby);

}  // namespace mdbs::fault

#endif  // MDBS_FAULT_FAULT_PLAN_H_
