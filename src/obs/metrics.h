#ifndef MDBS_OBS_METRICS_H_
#define MDBS_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "obs/event.h"
#include "sim/metrics.h"
#include "sim/task_runner.h"

namespace mdbs::obs {

/// Exclusive phases of a global transaction's lifetime. Every tick between
/// submit and finish is attributed to exactly one phase, so the per-phase
/// accumulators of one transaction sum to its measured lifetime (the
/// balance invariant checked by tools/check_trace.py and the tests).
enum class TxnPhase : uint8_t {
  /// Client submit to first GTM-strand processing (admission queue; zero in
  /// the discrete-event engine where submission runs in the same tick).
  kAdmission = 0,
  /// GTM-side decision work: building steps, scheme cond/act processing,
  /// validate handling, commit-chain bookkeeping between site round trips.
  kScheme,
  /// A ser operation of the critical path sitting in GTM2's WAIT list.
  kSerWait,
  /// Site-side execution of ticket reads/writes (the forced-conflict
  /// latch), split out from plain data execution.
  kTicket,
  /// Both legs of site round trips: transit delay, loss-induced silence,
  /// duplicate suppression — everything between dispatch and the site
  /// starting work, plus the response leg.
  kNetwork,
  /// Site-side execution of data operations and commits, including local
  /// lock/validation blocking inside the site.
  kSiteExec,
  /// Randomized retry backoff between failed attempts.
  kBackoff,
  /// Parked on a quarantined site, excluding durable-recovery overlap.
  kParked,
  /// The part of a park overlapping a site's durable WAL replay window.
  kRecovery,
};

inline constexpr int kTxnPhaseCount = 9;

const char* TxnPhaseName(TxnPhase phase);

struct MetricsConfig {
  /// Always-on by default — the engine is cheap enough to leave enabled
  /// (EXPERIMENTS E14 measures the overhead); disable for A/B runs.
  bool enabled = true;
  /// Width of one timeline window in ticks (virtual ticks in the simulator,
  /// microseconds in the threaded engine).
  sim::Time timeline_window = 5000;
};

/// One window of the run timeline. `window * window_size` is its start
/// tick; windows with no activity are omitted from the series.
struct TimelinePoint {
  int64_t window = 0;
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t failed = 0;
  int64_t attempt_aborts = 0;
  int64_t max_queue_depth = 0;
  int64_t max_wait_depth = 0;
  int64_t max_parked = 0;
  int64_t site_down_events = 0;
  /// p99 of global-txn lifetimes committing in this window (0 if none).
  double p99_latency = 0;
};

/// How long the operations of one kind sat in GTM2's WAIT: those whose cond
/// came true, and those an abort purged from WAIT.
struct WaitDwell {
  /// The operation kind's name (a string literal).
  const char* op = nullptr;
  sim::Summary exited;
  sim::Summary abandoned;
};

/// Immutable result of MetricsEngine::Snapshot(), taken once the run is
/// quiescent. Feeds the JSON run report and bench output.
struct MetricsSnapshot {
  bool enabled = false;
  sim::Time window_size = 0;
  /// Lifetime (submit to finish) over all finished global transactions.
  sim::Summary lifetime;
  /// Per-phase durations; every finished transaction contributes one
  /// observation to every phase (zeros included), so each summary's count
  /// equals `finished`.
  std::array<sim::Summary, kTxnPhaseCount> phases;
  /// Site-side busy time per round trip, per site (measured on the site's
  /// own strand; includes local blocking).
  std::vector<std::pair<SiteId, sim::Summary>> site_exec;
  /// Exact per-phase tick totals and their lifetime counterpart; the
  /// balance invariant is sum(phase_ticks) == lifetime_ticks.
  std::array<int64_t, kTxnPhaseCount> phase_ticks{};
  int64_t lifetime_ticks = 0;
  int64_t finished = 0;
  int64_t committed = 0;
  /// Transactions whose phases did not sum to their lifetime (always 0;
  /// kept loud in the report so a wiring regression cannot hide).
  int64_t balance_violations = 0;
  int64_t max_balance_error = 0;
  std::vector<TimelinePoint> timeline;
  /// Phase with the largest total across all transactions.
  TxnPhase bottleneck = TxnPhase::kSiteExec;
  double bottleneck_share = 0;
  /// WAIT dwell per operation kind, in the order the kinds first waited.
  std::vector<WaitDwell> wait_dwell;
  /// |QUEUE| and |WAIT| sampled at every GTM2 enqueue.
  sim::Summary queue_depth;
  sim::Summary wait_depth;
  /// Modeled WAL replay time of each durable site recovery.
  sim::Summary recovery_time;

  /// Human-readable per-phase table (mdbsim --phase_breakdown).
  std::string BreakdownTable() const;
};

/// Always-on metrics engine: per-transaction latency decomposition, windowed
/// timeline, and per-site execution histograms. It subscribes to the
/// lifecycle event stream (EventSink) and decides from each event which
/// phase the transaction enters — including which phase each GTM1 step
/// charges.
///
/// Threading model. Every kind On() takes runs on the GTM strand — the same
/// strand that runs every GTM1/GTM2 state transition — which makes the
/// per-job phase state machine single-writer and lock-free, except two:
/// kSiteWork runs on its site's strand and records into that site's own
/// summary, which no other strand writes, and kRecoveryBegin (rare,
/// durable crash recovery, any strand) takes a mutex.
/// Snapshot() requires quiescence (strands stopped or the simulator idle).
class MetricsEngine {
 public:
  using Clock = std::function<sim::Time()>;

  MetricsEngine(const MetricsConfig& config, Clock clock,
                std::vector<SiteId> sites);

  MetricsEngine(const MetricsEngine&) = delete;
  MetricsEngine& operator=(const MetricsEngine&) = delete;

  bool enabled() const { return config_.enabled; }

  /// Takes one event of a kind SubscribersOf routes here. Unknown jobs and
  /// attempts are ignored (metrics never throw).
  void On(const Event& event);

  /// Folds everything into an immutable snapshot. Quiescence required.
  MetricsSnapshot Snapshot() const;

 private:
  struct TxnState {
    sim::Time submit = 0;
    sim::Time phase_start = 0;
    TxnPhase phase = TxnPhase::kAdmission;
    std::array<sim::Time, kTxnPhaseCount> acc{};
    std::vector<SiteId> sites;
  };

  struct WindowAcc {
    TimelinePoint point;
    /// Lifetimes of commits in this window; p99 computed at Snapshot().
    std::vector<int64_t> latencies;
  };

  sim::Time Now() const { return clock_(); }
  TxnState* Find(int64_t job);

  /// A new global transaction entered the GTM. Starts its lifetime clock
  /// (at the staged admission stamp if one is pending, so the GTM-strand
  /// queueing delay of a threaded submit counts as kAdmission).
  void TxnSubmitted(int64_t job, const std::vector<SiteId>& sites);
  /// Moves the transaction into `next`, charging the elapsed interval to
  /// the phase it leaves.
  void Transition(int64_t job, TxnPhase next);
  /// Closes a site round trip: charges min(staged busy, interval) to the
  /// current phase and the remainder to kNetwork, or the whole interval to
  /// kNetwork when no busy time was staged for `sub`. Lost replies never
  /// get here; their interval stays on the current phase until the attempt
  /// times out.
  void EndRoundTrip(int64_t job, TxnId sub);
  /// Times one operation's stay in WAIT, keyed by (attempt, site, kind) as
  /// the WAIT events carry them; a re-enter restarts the stay.
  void RecordWaitDwell(const Event& event);
  /// Moves the transaction of a critical-path ser/validate wait into or out
  /// of kSerWait.
  void ChargeSerWait(const Event& event);
  /// Final outcome; closes the open phase (splitting any park overlap with
  /// durable recovery windows into kRecovery), checks the balance
  /// invariant, folds the decomposition into the run summaries, and drops
  /// the per-job state.
  void TxnFinished(int64_t job, bool committed);
  WindowAcc& Window(sim::Time at);
  /// Closes the open phase interval at `now`, splitting parked time against
  /// recovery windows.
  void ClosePhase(TxnState* state, sim::Time now);
  /// Total length of [begin, end) covered by the union of the sites'
  /// recovery windows.
  sim::Time RecoveryOverlap(const std::vector<SiteId>& sites, sim::Time begin,
                            sim::Time end) const;

  MetricsConfig config_;
  Clock clock_;

  // GTM-strand state (single writer, no locks).
  std::unordered_map<int64_t, TxnState> txns_;
  std::unordered_map<GlobalTxnId, int64_t> attempt_job_;
  std::optional<sim::Time> staged_admission_;
  TxnId staged_sub_;
  sim::Time staged_busy_ = 0;
  sim::Summary lifetime_;
  std::array<sim::Summary, kTxnPhaseCount> phase_summaries_;
  std::array<int64_t, kTxnPhaseCount> phase_ticks_{};
  int64_t lifetime_ticks_ = 0;
  int64_t finished_ = 0;
  int64_t committed_ = 0;
  int64_t balance_violations_ = 0;
  int64_t max_balance_error_ = 0;
  int64_t parked_now_ = 0;
  std::map<int64_t, WindowAcc> timeline_;
  std::map<std::tuple<int64_t, int64_t, size_t>, sim::Time> wait_since_;
  std::vector<WaitDwell> wait_dwell_;
  sim::Summary queue_depth_;
  sim::Summary wait_depth_;

  // Site-strand state: the maps are built in the constructor and read-only
  // afterwards, and each site's summary is written only by that site's
  // strand.
  std::vector<SiteId> site_ids_;
  std::unordered_map<SiteId, size_t> site_index_;
  std::vector<sim::Summary> site_exec_;

  // Rare cross-strand state (durable recovery windows and times).
  mutable std::mutex recovery_mu_;
  std::unordered_map<SiteId, std::vector<std::pair<sim::Time, sim::Time>>>
      recovery_windows_;
  sim::Summary recovery_time_;
};

/// Installs the snapshot's summaries into a run-report registry under the
/// txn.lifetime / txn.phase.* / site.exec.* / wait.dwell[.abandoned].<op> /
/// gtm2.{queue,wait}_depth / recovery.time names; empty ones are left out.
void AddSnapshotToRegistry(const MetricsSnapshot& snapshot,
                           sim::MetricsRegistry* registry);

}  // namespace mdbs::obs

#endif  // MDBS_OBS_METRICS_H_
