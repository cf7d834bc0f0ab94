#ifndef MDBS_MDBS_MDBS_H_
#define MDBS_MDBS_MDBS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "common/rng.h"
#include "common/status.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "gtm/gtm1.h"
#include "gtm/gtm_replica.h"
#include "mdbs/health.h"
#include "obs/event_sink.h"
#include "sched/schedule.h"
#include "sched/serializability.h"
#include "sim/event_loop.h"
#include "sim/real_strand.h"
#include "site/local_dbms.h"

namespace mdbs {

/// Top-level configuration of a simulated multidatabase.
struct MdbsConfig {
  std::vector<site::SiteConfig> sites;
  gtm::Gtm1Config gtm;
  /// One-way GTM <-> site network delay.
  sim::Time net_delay = 5;
  /// Deterministic fault-injection plan: scheduled site crashes plus
  /// request/response loss, duplicate delivery and delay spikes on the
  /// begin/data paths. Losing a request or response leaves the operation
  /// possibly executed at the site; GTM1's timeout aborts and retries the
  /// attempt, and receiver-side dedup guards keep duplicated deliveries
  /// from double-applying. Commit/abort messages stay reliable — losing
  /// them would need an atomic commitment protocol, which the paper leaves
  /// out of scope. Sweeps are resolved against the actual site count here;
  /// `periodic` crashes run on the GTM's runner while it has work.
  fault::FaultPlan fault_plan;
  /// Warm-standby GTM: the durable GTM also applies every WAL frame, sent
  /// over the modeled network (`standby_lag` one-way delay), into a live
  /// shadow GTM2. A `gtm_failover@T:D` fault directive (or
  /// PromoteStandby()) then performs a fenced takeover whose unavailability
  /// is bounded by the shipping lag, not the log length. Requires
  /// gtm.durable; gtm.wal_device must start empty (frame sequence numbers
  /// are log positions from zero).
  bool gtm_standby = false;
  /// One-way WAL-frame shipping delay from primary to standby.
  sim::Time standby_lag = 10;
  /// Heartbeat-based site failure detector feeding Gtm1::OnSiteDown/Up.
  HealthConfig health;
  uint64_t seed = 42;
  /// Invariant auditor wiring (GTM2 driver, 2PL lock tables, end-of-run
  /// oracle). Enabled by default when compiled in; benchmarks turn it off.
  audit::AuditConfig audit;
  /// Tracing (src/obs). Off by default — when enabled every tier's
  /// lifecycle events are also recorded into one TraceSink, drained via
  /// trace_sink() after the run.
  obs::TraceConfig trace;
  /// Always-on metrics engine (src/obs/metrics): per-transaction phase
  /// decomposition, windowed timeline, per-site execution histograms. On by
  /// default and independent of the trace sink — it has no compile gate and
  /// its overhead budget is <2% (EXPERIMENTS E14).
  obs::MetricsConfig metrics;
  /// Execution mode. false: the single-threaded discrete-event simulator
  /// (deterministic; drive it with RunUntilIdle). true: real threads — one
  /// RealStrand per site plus one for the GTM, run on at most one worker
  /// thread per usable CPU — with ticks interpreted as real microseconds;
  /// finish it with FinishThreadedRun. RunDriver serves both modes; in
  /// this one its clients are tasks on one more strand (ClientRunner).
  /// SubmitGlobal + your own threads also work and add no strand.
  bool threaded = false;

  /// Convenience: `count` sites with the given protocols round-robin.
  static MdbsConfig Uniform(int count, lcc::ProtocolKind protocol,
                            gtm::SchemeKind scheme);
  static MdbsConfig Mixed(const std::vector<lcc::ProtocolKind>& protocols,
                          gtm::SchemeKind scheme);
};

/// The assembled multidatabase: local DBMSs, the GTM (GTM1+GTM2), the
/// simulation event loop and the verification recorder. Also implements the
/// SiteGateway ("servers") with network delays.
///
/// Typical use:
///   Mdbs mdbs(MdbsConfig::Mixed({k2PL, kTO, kSGT}, SchemeKind::kScheme3));
///   mdbs.gtm().Submit(spec, [&](const gtm::GlobalTxnResult& r) {...});
///   mdbs.RunUntilIdle();
///   ASSERT_TRUE(mdbs.CheckGloballySerializable().ok());
class Mdbs : public gtm::SiteGateway {
 public:
  explicit Mdbs(const MdbsConfig& config);
  /// Threaded mode: stops the strands (joining their workers) before any
  /// member is destroyed.
  ~Mdbs() override;

  Mdbs(const Mdbs&) = delete;
  Mdbs& operator=(const Mdbs&) = delete;

  sim::EventLoop& loop() { return loop_; }
  /// The recorded schedule, one local schedule per site.
  const sched::ScheduleRecorder& recorder() const { return recorder_; }
  /// The live GTM1 — the same object across GTM crashes and a failover.
  gtm::Gtm1& gtm() { return *gtm_; }
  const gtm::Gtm1& gtm() const { return *gtm_; }
  /// The durable GTM around gtm(), or null unless gtm.durable is set.
  gtm::GtmReplica* gtm_replica() { return replica_.get(); }

  /// Promotes the warm standby (no-op if already promoted). The primary
  /// must already be down. Scripted alternative: a gtm_failover@T:D fault
  /// directive. GTM strand only (schedule via the facade in threaded mode).
  void PromoteStandby();

  /// Standby shipping/failover counters; all-zero when no standby is
  /// configured.
  gtm::GtmStandbyStats gtm_standby_stats() const;

  /// GTM durability counters; all-zero unless gtm.durable is set.
  gtm::GtmDurabilityStats gtm_durability_stats() const;
  site::LocalDbms& site(SiteId id) { return *sites_.at(id); }
  const std::vector<SiteId>& site_ids() const { return site_ids_; }
  const MdbsConfig& config() const { return config_; }
  bool threaded() const { return threaded_; }

  /// Runs the simulation until no events remain (simulation mode only).
  void RunUntilIdle() { loop_.Run(); }

  /// Current time: virtual ticks (simulation) or real microseconds since
  /// construction (threaded). Safe from any thread.
  sim::Time NowTicks() const;

  /// Submits a global transaction on the GTM's strand; `cb` fires once,
  /// on the GTM strand, with the final outcome. Safe from any thread in
  /// threaded mode; equivalent to gtm().Submit in simulation mode.
  void SubmitGlobal(gtm::GlobalTxnSpec spec, gtm::Gtm1::ResultCallback cb);

  /// Where a closed-loop driver runs its clients: the event loop in
  /// simulation mode; in threaded mode one strand of its own, built on the
  /// first call. Make that call before any client task runs, from the
  /// thread that starts the clients.
  sim::TaskRunner* ClientRunner();

  using BeginCallback = std::function<void(const StatusOr<TxnId>&)>;

  /// Begins a purely local transaction at `site` (a pre-existing local
  /// application: invisible to the GTM). `cb` gets the fresh transaction
  /// id, or TransactionAborted while the site is down, on ClientRunner():
  /// inline in simulation mode, after a hop to the site's strand and back
  /// in threaded mode.
  void BeginLocal(SiteId site, BeginCallback cb);

  /// Simulation mode only: BeginLocal answered synchronously.
  StatusOr<TxnId> BeginLocal(SiteId site);

  /// The site health monitor (always constructed; probing is lazy and
  /// gated on HealthConfig::enabled).
  HealthMonitor& health_monitor() { return *health_; }

  /// What the fault layer actually injected/suppressed this run.
  fault::FaultStats fault_stats() const { return injector_->stats(); }
  /// The plan after sweep resolution and legacy-knob folding.
  const fault::FaultPlan& resolved_fault_plan() const {
    return injector_->plan();
  }

  /// Threaded mode: how the strand workers waited for their next task
  /// (spun or parked) so far. Nullopt in simulation mode.
  std::optional<sim::WorkerWaits> worker_waits() const {
    if (!threaded_) return std::nullopt;
    return ticker_->waits();
  }

  /// Threaded mode: waits until every strand is quiescent (nothing running
  /// and nothing due within a short horizon — stale far-future timers such
  /// as attempt timeouts for finished transactions don't count), then stops
  /// all strands. After it returns the object is single-threaded again, so
  /// stats, the recorder, and the oracle can be read plainly. Callers must
  /// have stopped submitting work (all clients done). Idempotent; no-op
  /// in simulation mode.
  void FinishThreadedRun();

  /// Verification: local CSR at every site, the serialization-key property
  /// at every site, and global CSR across sites.
  Status CheckLocallySerializable() const;
  Status CheckSerializationKeyProperty() const;
  Status CheckGloballySerializable() const;
  /// No dirty reads / dirty overwrites anywhere (all protocols promise it).
  Status CheckStrictness() const;
  sched::SerializabilityResult GlobalSerializabilityResult() const;

  /// End-of-run audit oracle: runs the serializability/strictness checkers
  /// above against the recorded schedules and reports failures through the
  /// auditor ("oracle-local-csr", "oracle-ser-key", "oracle-strictness",
  /// "oracle-global-csr"). Global CSR is skipped for SchemeKind::kNone —
  /// the no-control strawman violates it by design (paper §3). Returns the
  /// first failure (or OK) so callers without an auditor can assert on it.
  Status RunAuditOracle();

  bool audit_enabled() const { return audit_enabled_; }
  audit::Auditor& auditor() { return auditor_; }
  const audit::Auditor& auditor() const { return auditor_; }

  /// The run's trace sink, or nullptr when tracing is off (not configured
  /// or compiled out). Drain() it only after the run is quiescent.
  obs::TraceSink* trace_sink() { return trace_sink_.get(); }

  /// The always-on metrics engine, or nullptr when disabled via
  /// config.metrics.enabled = false. Snapshot() it only after the run is
  /// quiescent (RunUntilIdle returned / FinishThreadedRun completed).
  obs::MetricsEngine* metrics() { return metrics_engine_.get(); }

  /// The lifecycle event stream every component emits into; it feeds the
  /// schedule recorder and the trace sink and metrics engine above,
  /// whichever exist.
  const obs::EventSink& events() const { return events_; }

  /// Records one kStrandBacklog sample per strand (GTM + sites). Threaded
  /// mode with tracing on only; safe from any thread (a sampler thread
  /// calls it periodically). No-op otherwise.
  void SampleStrandBacklogs();

  /// Sites running a multiversion protocol (verified via MVSG).
  std::vector<SiteId> MultiversionSites() const;

  // SiteGateway (network-delayed access to the local DBMSs):
  lcc::ProtocolKind ProtocolAt(SiteId site) const override;
  void Begin(SiteId site, TxnId txn, GlobalTxnId global,
             TxnCallback cb) override;
  void Submit(SiteId site, TxnId txn, const DataOp& op,
              OpCallback cb) override;
  void Commit(SiteId site, TxnId txn, TxnCallback cb) override;
  void Abort(SiteId site, TxnId txn, TxnCallback cb) override;

 private:
  /// Local transactions allocate ids from this base; GTM1's subtransaction
  /// ids are small sequential integers, so the ranges never collide.
  static constexpr int64_t kLocalTxnIdBase = 1'000'000'000;

  /// Applies one drawn message fate and delivers `deliver` on `runner`
  /// after net_delay (+ any spike). A duplicated message is scheduled
  /// twice; the shared guard runs `deliver` exactly once — both copies land
  /// on the same strand, so the guard needs no lock. A lost message is
  /// simply never scheduled. `txn` labels kNetFault trace events.
  void SendFaulty(sim::TaskRunner* runner, bool request, SiteId site,
                  int64_t txn, std::function<void()> deliver);

  /// The gateway's two halves of a site's busy time: kSiteWork on the
  /// site's strand when it answers, kSiteReply on the GTM strand when the
  /// answer arrives (a lost answer never emits the second).
  void EmitSiteWork(SiteId site, sim::Time busy) const;
  void EmitSiteReply(TxnId sub, sim::Time busy) const;

  /// Health-probe transport: `ack` fires on the GTM strand iff the site is
  /// up and neither probe leg was lost. Probe legs share the injector's
  /// loss/spike rates but are never duplicated.
  void ProbeSite(SiteId site, std::function<void()> ack);

  /// Schedules the resolved plan's crash/recovery windows on the site
  /// strands (construction time, so replays align).
  void ArmPlanCrashes();

  /// Crashes `site` unless it is already down, and recovers it `duration`
  /// ticks later. Runs on the site's strand.
  void CrashSite(SiteId site, sim::Time duration);

  /// GTM activity: starts the plan's periodic crash loop unless it runs.
  void PeriodicCrashActivity();
  /// One periodic round: stops the loop when the GTM has nothing in
  /// flight, else crashes one site no periodic window holds down.
  void PeriodicCrashTick();

  /// Schedules the plan's gtm_crash windows on the GTM strand. The recovery
  /// leg hands GtmReplica::Recover the health monitor's *current* down
  /// set — the log's quarantine view is stale by however long the outage
  /// lasted.
  void ArmGtmCrashes();

  /// Schedules the plan's gtm_failover windows on the GTM strand: crash the
  /// primary at `at`, promote the standby `duration` (detection delay)
  /// ticks later.
  void ArmGtmFailovers();

  /// Submits to the durable GTM when there is one, else to GTM1 (GTM
  /// strand only).
  void SubmitToGtm(gtm::GlobalTxnSpec spec, gtm::Gtm1::ResultCallback cb);

  /// Sites the health monitor currently declares down (GTM strand only).
  std::vector<SiteId> CurrentlyDownSites() const;

  /// The strand owning `site`'s state (the shared loop in simulation mode).
  sim::TaskRunner* SiteRunner(SiteId site);
  /// The strand owning the GTM's state.
  sim::TaskRunner* GtmRunner();
  /// Stops all strands without the quiescence sweep (destructor path).
  void StopStrands();

  MdbsConfig config_;
  audit::Auditor auditor_;
  /// The event stream's subscribers (the trace sink and the metrics engine
  /// each built only when the run enables it) and the stream itself; all
  /// four outlive every component below.
  std::unique_ptr<obs::TraceSink> trace_sink_;
  std::unique_ptr<obs::MetricsEngine> metrics_engine_;
  sched::ScheduleRecorder recorder_;
  obs::EventSink events_;
  bool audit_enabled_ = false;
  bool threaded_ = false;
  sim::EventLoop loop_;
  /// Threaded-mode machinery; unused (null/empty) in simulation mode.
  std::unique_ptr<sim::RealTicker> ticker_;
  std::unordered_map<SiteId, std::unique_ptr<sim::RealStrand>> site_strands_;
  std::unique_ptr<sim::RealStrand> gtm_strand_;
  std::unique_ptr<sim::RealStrand> client_strand_;  // Built by ClientRunner.
  bool strands_stopped_ = false;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<HealthMonitor> health_;
  /// The periodic crash loop's state (GTM runner only): whether a round is
  /// pending, its victim stream, and when each site's window ends.
  bool periodic_running_ = false;
  Rng periodic_rng_{0};
  std::unordered_map<SiteId, sim::Time> periodic_down_until_;
  /// Site crash windows (plan or periodic) whose recovery has not run yet;
  /// written on site strands, read by FinishThreadedRun's sweep.
  std::atomic<int> open_crash_windows_{0};
  std::unordered_map<SiteId, std::unique_ptr<site::LocalDbms>> sites_;
  std::vector<SiteId> site_ids_;
  /// The GTM: a plain GTM1, or the durable GTM that owns one.
  std::unique_ptr<gtm::Gtm1> plain_gtm_;
  std::unique_ptr<gtm::GtmReplica> replica_;
  gtm::Gtm1* gtm_ = nullptr;
  std::atomic<int64_t> next_local_txn_id_{kLocalTxnIdBase};
};

}  // namespace mdbs

#endif  // MDBS_MDBS_MDBS_H_
