#include "mdbs/mdbs.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"

namespace mdbs {

MdbsConfig MdbsConfig::Uniform(int count, lcc::ProtocolKind protocol,
                               gtm::SchemeKind scheme) {
  MdbsConfig config;
  for (int i = 0; i < count; ++i) {
    site::SiteConfig site;
    site.id = SiteId(i);
    site.protocol = protocol;
    config.sites.push_back(site);
  }
  config.gtm.scheme = scheme;
  return config;
}

MdbsConfig MdbsConfig::Mixed(const std::vector<lcc::ProtocolKind>& protocols,
                             gtm::SchemeKind scheme) {
  MdbsConfig config;
  for (size_t i = 0; i < protocols.size(); ++i) {
    site::SiteConfig site;
    site.id = SiteId(static_cast<int64_t>(i));
    site.protocol = protocols[i];
    config.sites.push_back(site);
  }
  config.gtm.scheme = scheme;
  return config;
}

namespace {

std::vector<SiteId> SiteIdsOf(const MdbsConfig& config) {
  std::vector<SiteId> ids;
  for (const site::SiteConfig& site : config.sites) ids.push_back(site.id);
  return ids;
}

}  // namespace

Mdbs::Mdbs(const MdbsConfig& config)
    : config_(config),
      auditor_(config.audit),
      recorder_(SiteIdsOf(config)),
      audit_enabled_(audit::kAuditCompiledIn && config.audit.enabled),
      threaded_(config.threaded) {
  MDBS_CHECK(!config.sites.empty()) << "an MDBS needs at least one site";
  if (config.trace.enabled) {
    trace_sink_ = std::make_unique<obs::TraceSink>(
        config.trace, [this]() { return NowTicks(); });
  }
  if (config.metrics.enabled) {
    metrics_engine_ = std::make_unique<obs::MetricsEngine>(
        config.metrics, [this]() { return NowTicks(); }, SiteIdsOf(config));
  }
  events_ =
      obs::EventSink(trace_sink_.get(), metrics_engine_.get(), &recorder_);
  if (threaded_) {
    ticker_ = std::make_unique<sim::RealTicker>();
    for (const site::SiteConfig& site_config : config.sites) {
      site_strands_[site_config.id] = std::make_unique<sim::RealStrand>(
          ticker_.get(), "site-" + ToString(site_config.id));
    }
    gtm_strand_ = std::make_unique<sim::RealStrand>(ticker_.get(), "gtm");
  }
  for (const site::SiteConfig& site_config : config.sites) {
    MDBS_CHECK(!sites_.contains(site_config.id))
        << "duplicate site " << site_config.id;
    sites_[site_config.id] = std::make_unique<site::LocalDbms>(
        site_config, SiteRunner(site_config.id), events_);
    site_ids_.push_back(site_config.id);
  }
  MDBS_CHECK(!config.gtm_standby || config.gtm.durable)
      << "a warm-standby GTM requires GTM durability (--gtm_durable)";
  if (config.gtm.durable) {
    replica_ = std::make_unique<gtm::GtmReplica>(
        config.gtm, GtmRunner(), this, config.seed, events_,
        config.gtm_standby, config.standby_lag);
    gtm_ = &replica_->gtm1();
  } else {
    plain_gtm_ = std::make_unique<gtm::Gtm1>(config.gtm, GtmRunner(), this,
                                             config.seed, events_);
    gtm_ = plain_gtm_.get();
  }
  if (audit_enabled_) {
    // The GTM2 a recovery or promotion installs inherits this wiring; the
    // standby's shadow is not audited while passive, because its replayed
    // mutations mirror transitions the primary's audit already saw.
    gtm_->mutable_gtm2().EnableAudit(config.audit, &auditor_);
    for (SiteId id : site_ids_) sites_.at(id)->EnableAudit(&auditor_);
  }
  // Fault layer: resolve sweeps against the real site count, then arm the
  // crash windows now so a (plan, seed) pair replays identically.
  fault::FaultPlan plan = fault::ResolveSweeps(
      config.fault_plan, static_cast<int>(site_ids_.size()));
  Status plan_ok = fault::ValidatePlanForConfig(plan, config.gtm.durable,
                                                config.gtm_standby);
  MDBS_CHECK(plan_ok.ok()) << plan_ok.message();
  injector_ = std::make_unique<fault::FaultInjector>(plan, config.seed);
  // The victim stream is apart from the message-fate stream, so a plan
  // draws the same message fates with or without `periodic`.
  periodic_rng_ =
      Rng((plan.seed != 0 ? plan.seed : config.seed) ^ 0x9e3779b97f4a7c15ULL);
  ArmPlanCrashes();
  ArmGtmCrashes();
  ArmGtmFailovers();

  HealthMonitor::Callbacks health_callbacks;
  health_callbacks.probe = [this](SiteId site, std::function<void()> ack) {
    ProbeSite(site, std::move(ack));
  };
  // A durable GTM ignores health events while it is down: its recovery
  // takes the monitor's view at that time instead.
  health_callbacks.site_down = [this](SiteId site) {
    replica_ != nullptr ? replica_->OnSiteDown(site) : gtm_->OnSiteDown(site);
  };
  health_callbacks.site_up = [this](SiteId site) {
    replica_ != nullptr ? replica_->OnSiteUp(site) : gtm_->OnSiteUp(site);
  };
  health_callbacks.keep_probing = [this]() { return gtm_->InFlight() > 0; };
  health_ = std::make_unique<HealthMonitor>(
      config.health, GtmRunner(), site_ids_, std::move(health_callbacks),
      events_);
  auto activity = [this]() {
    health_->Activity();
    PeriodicCrashActivity();
  };
  gtm_->SetActivityHook(activity);
}

void Mdbs::ArmPlanCrashes() {
  for (const fault::CrashEvent& crash : injector_->plan().crashes) {
    if (!sites_.contains(crash.site)) continue;  // Plan outlived the config.
    SiteRunner(crash.site)->Schedule(crash.at, [this, crash]() {
      CrashSite(crash.site, crash.duration);
    });
  }
}

void Mdbs::CrashSite(SiteId site, sim::Time duration) {
  site::LocalDbms& dbms = *sites_.at(site);
  if (dbms.IsDown()) return;  // Overlapping windows merge.
  injector_->CountPlanCrash();
  dbms.Crash();
  ++open_crash_windows_;
  SiteRunner(site)->Schedule(duration, [this, site]() {
    sites_.at(site)->Recover();
    --open_crash_windows_;
  });
}

void Mdbs::PeriodicCrashActivity() {
  const std::optional<fault::PeriodicCrashes>& periodic =
      injector_->plan().periodic;
  if (!periodic.has_value() || periodic_running_) return;
  periodic_running_ = true;
  GtmRunner()->Schedule(periodic->interval,
                        [this]() { PeriodicCrashTick(); });
}

void Mdbs::PeriodicCrashTick() {
  if (gtm_->InFlight() == 0) {
    // Nothing in flight: stop so the run can quiesce. The next Submit's
    // activity hook restarts the loop.
    periodic_running_ = false;
    return;
  }
  const fault::PeriodicCrashes& periodic = *injector_->plan().periodic;
  sim::Time now = GtmRunner()->now();
  std::vector<SiteId> up;
  for (SiteId id : site_ids_) {
    if (periodic_down_until_[id] <= now) up.push_back(id);
  }
  if (!up.empty()) {
    SiteId victim = up[periodic_rng_.NextBelow(up.size())];
    periodic_down_until_[victim] = now + periodic.duration;
    SiteRunner(victim)->Schedule(0, [this, victim, periodic]() {
      CrashSite(victim, periodic.duration);
    });
  }
  GtmRunner()->Schedule(periodic.interval, [this]() { PeriodicCrashTick(); });
}

void Mdbs::ArmGtmCrashes() {
  for (const fault::GtmCrashEvent& event : injector_->plan().gtm_crashes) {
    GtmRunner()->Schedule(event.at, [this, event]() {
      if (!replica_->Crash()) return;  // Overlapping windows merge.
      GtmRunner()->Schedule(event.duration, [this]() {
        replica_->Recover(CurrentlyDownSites());
      });
    });
  }
}

void Mdbs::ArmGtmFailovers() {
  for (const fault::GtmFailoverEvent& event :
       injector_->plan().gtm_failovers) {
    GtmRunner()->Schedule(event.at, [this, event]() {
      // Kill the primary for good; `duration` models failure detection
      // (health-check timeouts), after which the standby takes over.
      replica_->Crash();
      GtmRunner()->Schedule(event.duration, [this]() { PromoteStandby(); });
    });
  }
}

void Mdbs::PromoteStandby() {
  MDBS_CHECK(replica_ != nullptr)
      << "PromoteStandby without a configured standby";
  replica_->Promote(CurrentlyDownSites());
}

gtm::GtmStandbyStats Mdbs::gtm_standby_stats() const {
  return replica_ != nullptr ? replica_->standby_stats()
                             : gtm::GtmStandbyStats{};
}

gtm::GtmDurabilityStats Mdbs::gtm_durability_stats() const {
  return replica_ != nullptr ? replica_->durability_stats()
                             : gtm::GtmDurabilityStats{};
}

void Mdbs::SubmitToGtm(gtm::GlobalTxnSpec spec,
                       gtm::Gtm1::ResultCallback cb) {
  replica_ != nullptr ? replica_->Submit(std::move(spec), std::move(cb))
                      : gtm_->Submit(std::move(spec), std::move(cb));
}

std::vector<SiteId> Mdbs::CurrentlyDownSites() const {
  std::vector<SiteId> down;
  for (SiteId id : site_ids_) {
    if (health_->state(id) == HealthMonitor::SiteState::kDown) {
      down.push_back(id);
    }
  }
  return down;
}

Mdbs::~Mdbs() { StopStrands(); }

sim::TaskRunner* Mdbs::SiteRunner(SiteId site) {
  if (!threaded_) return &loop_;
  return site_strands_.at(site).get();
}

sim::TaskRunner* Mdbs::GtmRunner() {
  if (!threaded_) return &loop_;
  return gtm_strand_.get();
}

sim::Time Mdbs::NowTicks() const {
  return threaded_ ? ticker_->NowMicros() : loop_.now();
}

void Mdbs::SubmitGlobal(gtm::GlobalTxnSpec spec,
                        gtm::Gtm1::ResultCallback cb) {
  if (!threaded_) {
    SubmitToGtm(std::move(spec), std::move(cb));
    return;
  }
  // Stamp the client-side enqueue time so the metrics engine can charge the
  // GTM-strand queueing delay to the admission phase.
  GtmRunner()->Schedule(
      0, [this, enqueued = NowTicks(), spec = std::move(spec),
          cb = std::move(cb)]() mutable {
        events_.Emit({.kind = obs::TraceEventKind::kAdmission,
                      .ticks = enqueued});
        SubmitToGtm(std::move(spec), std::move(cb));
      });
}

sim::TaskRunner* Mdbs::ClientRunner() {
  if (!threaded_) return &loop_;
  if (client_strand_ == nullptr) {
    client_strand_ =
        std::make_unique<sim::RealStrand>(ticker_.get(), "client");
  }
  return client_strand_.get();
}

void Mdbs::FinishThreadedRun() {
  if (!threaded_ || strands_stopped_) return;
  // Quiescence sweep. The horizon must exceed every short-lived internal
  // delay (network hops, service times, retry backoff, crash recovery) so
  // in-flight chains count as busy, while the only far-future timers —
  // attempt timeouts of already-finished transactions — don't keep the run
  // alive for hundreds of milliseconds. Observing strand A idle
  // happens-after any task it posted to strand B was enqueued (A's worker
  // mutex, then B's), so a sweep where every strand is quiescent beyond the
  // horizon is a true fixpoint once no external thread submits work.
  sim::Time horizon_ticks = 2 * config_.net_delay + 1000;
  horizon_ticks = std::max<sim::Time>(horizon_ticks,
                                      2 * config_.gtm.retry_backoff + 100);
  // An active health monitor's next probe tick must count as busy so it can
  // run, observe nothing in flight, and stop itself.
  horizon_ticks = std::max<sim::Time>(
      horizon_ticks, 2 * config_.health.probe_interval + 100);
  // A durable site's modeled replay delay must count as busy, or the sweep
  // could declare quiescence with a recovery timer still pending.
  for (const site::SiteConfig& site : config_.sites) {
    if (site.durable) {
      horizon_ticks = std::max<sim::Time>(
          horizon_ticks, 2 * site.recovery_base_time + 100);
    }
  }
  // A pending GTM crash/recovery window must count as busy: while the GTM
  // is down, in-flight transactions are waiting on its recovery timer.
  for (const fault::GtmCrashEvent& event : config_.fault_plan.gtm_crashes) {
    horizon_ticks = std::max<sim::Time>(horizon_ticks, 2 * event.duration +
                                                          100);
  }
  // A failover's detection window keeps in-flight work waiting the same way
  // a crash outage does; the promotion timer is armed inside it.
  for (const fault::GtmFailoverEvent& event :
       config_.fault_plan.gtm_failovers) {
    horizon_ticks = std::max<sim::Time>(horizon_ticks, 2 * event.duration +
                                                          100);
  }
  if (config_.gtm.durable) {
    horizon_ticks = std::max<sim::Time>(
        horizon_ticks, 2 * config_.gtm.recovery_base_time + 100);
  }
  // In-flight shipped frames must count as busy so the standby's shadow
  // state catches up before the run is declared quiescent.
  if (config_.gtm_standby) {
    horizon_ticks = std::max<sim::Time>(horizon_ticks,
                                        2 * config_.standby_lag + 100);
  }
  for (;;) {
    sim::Time horizon = ticker_->NowMicros() + horizon_ticks;
    // A crashed site's recovery timer can lie beyond the horizon; the run
    // must not stop with the site still down.
    bool all_quiescent = open_crash_windows_.load() == 0 &&
                         gtm_strand_->QuiescentBeyond(horizon);
    for (const auto& [id, strand] : site_strands_) {
      all_quiescent = all_quiescent && strand->QuiescentBeyond(horizon);
    }
    if (client_strand_ != nullptr) {
      all_quiescent =
          all_quiescent && client_strand_->QuiescentBeyond(horizon);
    }
    if (all_quiescent) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  StopStrands();
}

void Mdbs::SampleStrandBacklogs() {
  if (!threaded_ || !events_.Wants(obs::TraceEventKind::kStrandBacklog)) {
    return;
  }
  events_.Emit({.kind = obs::TraceEventKind::kStrandBacklog,
                .a = gtm_strand_->PendingTasks()});
  for (const auto& [id, strand] : site_strands_) {
    events_.Emit({.kind = obs::TraceEventKind::kStrandBacklog,
                  .site = id.value(), .a = strand->PendingTasks()});
  }
}

void Mdbs::StopStrands() {
  if (!threaded_ || strands_stopped_) return;
  // Each Stop returns under its worker's mutex, taken after the strand's
  // last task ended, so everything the strands wrote is visible here.
  gtm_strand_->Stop();
  for (auto& [id, strand] : site_strands_) strand->Stop();
  if (client_strand_ != nullptr) client_strand_->Stop();
  strands_stopped_ = true;
}

Status Mdbs::RunAuditOracle() {
  if (!audit_enabled_) return Status::OK();
  Status first = Status::OK();
  auto report = [&](const char* invariant, const Status& status) {
    if (status.ok()) return;
    if (first.ok()) first = status;
    auditor_.Report(audit::AuditViolation{invariant, status.message(), {}});
  };
  report("oracle-local-csr", CheckLocallySerializable());
  report("oracle-ser-key", CheckSerializationKeyProperty());
  report("oracle-strictness", CheckStrictness());
  if (gtm_->gtm2().scheme().kind() != gtm::SchemeKind::kNone) {
    report("oracle-global-csr", CheckGloballySerializable());
  }
  return first;
}

void Mdbs::BeginLocal(SiteId site, BeginCallback cb) {
  if (!threaded_) {
    cb(BeginLocal(site));
    return;
  }
  // The site's state belongs to its strand: begin there, then hand the
  // answer to the client strand.
  TxnId txn = TxnId(next_local_txn_id_++);
  SiteRunner(site)->Schedule(0, [this, site, txn, client = ClientRunner(),
                                 cb = std::move(cb)]() {
    Status status = sites_.at(site)->Begin(txn, GlobalTxnId());
    StatusOr<TxnId> result = status.ok() ? StatusOr<TxnId>(txn) : status;
    client->Schedule(0, [result, cb]() { cb(result); });
  });
}

StatusOr<TxnId> Mdbs::BeginLocal(SiteId site) {
  MDBS_CHECK(!threaded_) << "threaded mode begins local transactions with "
                         << "the callback form of BeginLocal";
  TxnId txn = TxnId(next_local_txn_id_++);
  Status status = sites_.at(site)->Begin(txn, GlobalTxnId());
  if (!status.ok()) return status;
  return txn;
}

std::vector<SiteId> Mdbs::MultiversionSites() const {
  std::vector<SiteId> result;
  for (SiteId id : site_ids_) {
    if (sites_.at(id)->protocol().IsMultiversion()) result.push_back(id);
  }
  return result;
}

Status Mdbs::CheckLocallySerializable() const {
  for (SiteId id : site_ids_) {
    sched::SerializabilityResult result =
        sites_.at(id)->protocol().IsMultiversion()
            ? sched::CheckMultiversionSerializability(recorder_, id)
            : sched::CheckLocalSerializability(recorder_, id);
    if (!result.serializable) {
      return Status::Internal("local schedule at " + ToString(id) + " " +
                              result.ToString());
    }
  }
  return Status::OK();
}

Status Mdbs::CheckSerializationKeyProperty() const {
  for (SiteId id : site_ids_) {
    // Multiversion sites legitimately violate single-version conflict
    // order (old-version reads); their MVSG check subsumes the property.
    if (sites_.at(id)->protocol().IsMultiversion()) continue;
    MDBS_RETURN_IF_ERROR(
        sched::CheckSerializationKeyProperty(recorder_, id));
  }
  return Status::OK();
}

Status Mdbs::CheckStrictness() const {
  for (SiteId id : site_ids_) {
    MDBS_RETURN_IF_ERROR(sched::CheckStrictness(
        recorder_, id, sites_.at(id)->protocol().IsMultiversion()));
  }
  return Status::OK();
}

Status Mdbs::CheckGloballySerializable() const {
  sched::SerializabilityResult result = GlobalSerializabilityResult();
  if (!result.serializable) {
    return Status::Internal("global schedule " + result.ToString());
  }
  return Status::OK();
}

sched::SerializabilityResult Mdbs::GlobalSerializabilityResult() const {
  return sched::CheckGlobalSerializability(recorder_, MultiversionSites());
}

lcc::ProtocolKind Mdbs::ProtocolAt(SiteId site) const {
  return sites_.at(site)->protocol_kind();
}

// The gateway models the paper's servers: a request hops to the site's
// strand after a network delay, the site answers on its own strand, and the
// response hops back to the GTM's strand. In simulation mode both strands
// are the event loop, reproducing the seed behavior exactly. The fault
// injector sits on both legs of the begin/data paths: a lost leg leaves the
// operation possibly executed (GTM1's timeout recovers), a duplicated leg
// is suppressed by the receiver-side guard, a spiked leg just arrives late.

void Mdbs::SendFaulty(sim::TaskRunner* runner, bool request, SiteId site,
                      int64_t txn, std::function<void()> deliver) {
  fault::MessageFate fate =
      request ? injector_->RequestFate() : injector_->ResponseFate();
  if (fate.lost) {
    events_.Emit({.kind = obs::TraceEventKind::kNetFault, .txn = txn,
                  .site = site.value(),
                  .detail = request ? "req_lost" : "resp_lost"});
    return;  // GTM1's timeout takes it from here.
  }
  if (fate.extra_delay > 0) {
    events_.Emit({.kind = obs::TraceEventKind::kNetFault, .txn = txn,
                  .site = site.value(), .a = fate.extra_delay,
                  .detail = "spike"});
  }
  sim::Time delay = config_.net_delay + fate.extra_delay;
  if (!fate.duplicated) {
    runner->Schedule(delay, std::move(deliver));
    return;
  }
  events_.Emit({.kind = obs::TraceEventKind::kNetFault, .txn = txn,
                .site = site.value(), .detail = "dup"});
  // Both copies land on the same strand, so the guard needs no lock.
  auto guard = std::make_shared<bool>(false);
  auto shared = std::make_shared<std::function<void()>>(std::move(deliver));
  auto once = [this, guard, shared, txn, site]() {
    if (*guard) {
      injector_->CountSuppressedDuplicate();
      events_.Emit({.kind = obs::TraceEventKind::kNetFault, .txn = txn,
                    .site = site.value(), .detail = "dup_suppressed"});
      return;
    }
    *guard = true;
    (*shared)();
  };
  runner->Schedule(delay, once);
  runner->Schedule(delay + fate.duplicate_lag, once);
}

void Mdbs::EmitSiteWork(SiteId site, sim::Time busy) const {
  events_.Emit({.kind = obs::TraceEventKind::kSiteWork, .site = site.value(),
                .ticks = busy});
}

void Mdbs::EmitSiteReply(TxnId sub, sim::Time busy) const {
  events_.Emit({.kind = obs::TraceEventKind::kSiteReply, .txn = sub.value(),
                .ticks = busy});
}

void Mdbs::ProbeSite(SiteId site, std::function<void()> ack) {
  fault::MessageFate out = injector_->ProbeFate(/*request=*/true);
  if (out.lost) return;
  SiteRunner(site)->Schedule(
      config_.net_delay + out.extra_delay,
      [this, site, ack = std::move(ack)]() {
        if (sites_.at(site)->IsDown()) return;  // A down site never acks.
        fault::MessageFate back = injector_->ProbeFate(/*request=*/false);
        if (back.lost) return;
        GtmRunner()->Schedule(config_.net_delay + back.extra_delay,
                              std::move(ack));
      });
}

void Mdbs::Begin(SiteId site, TxnId txn, GlobalTxnId global, TxnCallback cb) {
  SendFaulty(SiteRunner(site), /*request=*/true, site, txn.value(),
             [this, site, txn, global, cb = std::move(cb)]() {
               Status status = sites_.at(site)->Begin(txn, global);
               SendFaulty(GtmRunner(), /*request=*/false, site, txn.value(),
                          [status, cb = std::move(cb)]() { cb(status); });
             });
}

void Mdbs::Submit(SiteId site, TxnId txn, const DataOp& op, OpCallback cb) {
  SendFaulty(
      SiteRunner(site), /*request=*/true, site, txn.value(),
      [this, site, txn, op, cb = std::move(cb)]() {
        // Site-side busy time (service + local lock/validation blocking) is
        // measured on the site's strand; the response leg emits it again
        // right before the GTM-side callback so the round trip can be split
        // into site-execution and network time.
        sim::Time delivered = NowTicks();
        sites_.at(site)->Submit(
            txn, op,
            [this, site, txn, delivered, cb = std::move(cb)](
                const Status& status, int64_t value) {
              sim::Time busy = NowTicks() - delivered;
              EmitSiteWork(site, busy);
              SendFaulty(GtmRunner(), /*request=*/false, site, txn.value(),
                         [this, txn, busy, status, value,
                          cb = std::move(cb)]() {
                           EmitSiteReply(txn, busy);
                           cb(status, value);
                         });
            });
      });
}

void Mdbs::Commit(SiteId site, TxnId txn, TxnCallback cb) {
  SiteRunner(site)->Schedule(config_.net_delay, [this, site, txn,
                                                 cb = std::move(cb)]() {
    sim::Time delivered = NowTicks();
    sites_.at(site)->Commit(
        txn, [this, site, txn, delivered,
              cb = std::move(cb)](const Status& status) {
          sim::Time busy = NowTicks() - delivered;
          EmitSiteWork(site, busy);
          GtmRunner()->Schedule(
              config_.net_delay, [this, txn, busy, status,
                                  cb = std::move(cb)]() {
                EmitSiteReply(txn, busy);
                cb(status);
              });
        });
  });
}

void Mdbs::Abort(SiteId site, TxnId txn, TxnCallback cb) {
  SiteRunner(site)->Schedule(config_.net_delay, [this, site, txn,
                                                 cb = std::move(cb)]() {
    sites_.at(site)->Abort(
        txn, [this, cb = std::move(cb)](const Status& status) {
          GtmRunner()->Schedule(
              config_.net_delay,
              [status, cb = std::move(cb)]() { cb(status); });
        });
  });
}

}  // namespace mdbs
