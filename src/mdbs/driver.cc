#include "mdbs/driver.h"

#include <algorithm>
#include <future>
#include <memory>
#include <sstream>

#include "common/logging.h"

namespace mdbs {

namespace {

/// Every client's state and every tally lives on the client runner (see
/// Mdbs::ClientRunner), so none of it needs a lock.
struct RunState {
  Mdbs* mdbs = nullptr;
  sim::TaskRunner* runner = nullptr;
  DriverConfig config;
  int64_t global_committed = 0;
  int64_t global_failed = 0;
  int64_t local_committed = 0;
  int64_t local_failed = 0;
  int64_t local_retries = 0;
  int64_t global_resubmissions = 0;
  int64_t global_retry_unsafe = 0;
  int64_t txns_failed_permanently = 0;
  sim::Summary response;
  sim::Summary attempts;
  bool stop_issuing = false;
  /// Clients still issuing or finishing work; the last to finish stamps
  /// `finished_at` and fulfils `all_done`, which the threaded engine waits
  /// on before its sweep.
  int clients_running = 0;
  sim::Time finished_at = 0;
  std::promise<void> all_done;

  bool TargetReached() const {
    return global_committed + global_failed >=
           config.target_global_commits;
  }

  /// The run ends when its last client does, in both engines: timers the
  /// finished clients left behind (stale attempt timeouts) run later but
  /// do no work the report counts.
  void ClientDone() {
    if (--clients_running > 0) return;
    finished_at = runner->now();
    all_done.set_value();
  }
};

/// Wraps a GTM or site callback so that `fn` runs on the client runner:
/// inline in the simulator, where every callback already runs on the one
/// loop, and as a task on the client strand in the threaded engine.
template <typename Fn>
auto OnClientRunner(const std::shared_ptr<RunState>& state, Fn fn) {
  return [state, fn = std::move(fn)](const auto&... args) {
    if (!state->mdbs->threaded()) {
      fn(args...);
      return;
    }
    state->runner->Schedule(0, [fn, args...]() { fn(args...); });
  };
}

void GlobalClientIssue(const std::shared_ptr<RunState>& state,
                       const std::shared_ptr<Rng>& rng);

/// One logical global transaction across client-level resubmissions. The
/// spec is kept so a failed-but-retry-safe outcome can be resubmitted as a
/// fresh GTM job; attempts aggregate across resubmissions.
struct GlobalTxnTry {
  std::shared_ptr<RunState> state;
  std::shared_ptr<Rng> rng;
  gtm::GlobalTxnSpec spec;
  sim::Time start = 0;
  int resubmissions = 0;
  int attempts_total = 0;
};

void SubmitGlobalTry(const std::shared_ptr<GlobalTxnTry>& txn) {
  gtm::GlobalTxnSpec spec = txn->spec;
  txn->state->mdbs->SubmitGlobal(
      std::move(spec),
      OnClientRunner(txn->state, [txn](const gtm::GlobalTxnResult& result) {
        RunState& state = *txn->state;
        txn->attempts_total += result.attempts;
        if (result.status.ok()) {
          ++state.global_committed;
          state.response.Add(
              static_cast<double>(result.finish_time - txn->start));
          state.attempts.Add(txn->attempts_total);
        } else if (result.retry_safe && !state.stop_issuing &&
                   txn->resubmissions <
                       state.config.retry.max_resubmissions) {
          ++txn->resubmissions;
          ++state.global_resubmissions;
          state.mdbs->events().Emit({.kind = obs::TraceEventKind::kTxnResubmit,
                                     .a = txn->resubmissions,
                                     .b = txn->attempts_total});
          // Doubling backoff (capped at 8x) with jitter before the fresh
          // submission.
          sim::Time base = state.config.retry.backoff;
          for (int i = 1; i < txn->resubmissions && i < 4; ++i) base *= 2;
          state.runner->Schedule(
              base + static_cast<sim::Time>(txn->rng->NextBelow(
                         static_cast<uint64_t>(base) + 1)),
              [txn]() { SubmitGlobalTry(txn); });
          return;
        } else {
          if (!result.retry_safe) {
            ++state.global_retry_unsafe;
          } else if (!state.stop_issuing) {
            // A retry-safe failure with the resubmission budget spent: the
            // client gives up permanently.
            ++state.txns_failed_permanently;
          }
          ++state.global_failed;
        }
        if (state.TargetReached()) {
          state.stop_issuing = true;
          state.ClientDone();
          return;
        }
        state.runner->Schedule(state.config.global_think,
                               [state_ptr = txn->state, rng = txn->rng]() {
                                 GlobalClientIssue(state_ptr, rng);
                               });
      }));
}

/// One closed-loop global client.
void GlobalClientIssue(const std::shared_ptr<RunState>& state,
                       const std::shared_ptr<Rng>& rng) {
  if (state->stop_issuing) {
    state->ClientDone();
    return;
  }
  auto txn = std::make_shared<GlobalTxnTry>();
  txn->state = state;
  txn->rng = rng;
  if (state->config.templates.has_value()) {
    const analysis::TemplateMix& mix = *state->config.templates;
    txn->spec = analysis::Instantiate(
        mix.templates[analysis::SampleTemplate(mix, rng.get())], mix,
        rng.get());
  } else {
    txn->spec = MakeGlobalTxn(state->config.global_workload,
                              state->mdbs->site_ids(), rng.get());
  }
  txn->start = state->runner->now();
  SubmitGlobalTry(txn);
}

/// One closed-loop local client at `site`. Submits operations one at a
/// time; retries the whole transaction on a local abort.
struct LocalTxnRun {
  std::shared_ptr<RunState> state;
  std::shared_ptr<Rng> rng;
  SiteId site;
  std::vector<DataOp> ops;
  size_t next_op = 0;
  TxnId txn;
  int attempt = 0;
};

void LocalClientIssue(const std::shared_ptr<RunState>& state,
                      const std::shared_ptr<Rng>& rng, SiteId site);

void LocalTxnStep(const std::shared_ptr<LocalTxnRun>& run);

void LocalTxnRetryOrFinish(const std::shared_ptr<LocalTxnRun>& run,
                           bool committed) {
  auto& state = *run->state;
  if (committed) {
    ++state.local_committed;
  } else if (run->attempt >= state.config.local_max_attempts) {
    ++state.local_failed;
  } else {
    // Retry the same operations after a randomized backoff.
    ++state.local_retries;
    run->next_op = 0;
    state.runner->Schedule(
        static_cast<sim::Time>(50 + run->rng->NextBelow(100)), [run]() {
          run->state->mdbs->BeginLocal(
              run->site, [run](const StatusOr<TxnId>& txn) {
                ++run->attempt;
                if (!txn.ok()) {
                  // Site down: count the attempt and keep retrying.
                  LocalTxnRetryOrFinish(run, /*committed=*/false);
                  return;
                }
                run->txn = *txn;
                LocalTxnStep(run);
              });
        });
    return;
  }
  if (state.stop_issuing) {
    state.ClientDone();
    return;
  }
  state.runner->Schedule(state.config.local_think,
                         [state_ptr = run->state, rng = run->rng,
                          site = run->site]() {
                           LocalClientIssue(state_ptr, rng, site);
                         });
}

void LocalTxnStep(const std::shared_ptr<LocalTxnRun>& run) {
  Mdbs* mdbs = run->state->mdbs;
  if (run->next_op == run->ops.size()) {
    mdbs->site(run->site).Commit(
        run->txn, OnClientRunner(run->state, [run](const Status& status) {
          LocalTxnRetryOrFinish(run, status.ok());
        }));
    return;
  }
  const DataOp& op = run->ops[run->next_op];
  mdbs->site(run->site).Submit(
      run->txn, op,
      OnClientRunner(run->state, [run](const Status& status, int64_t) {
        if (!status.ok()) {
          LocalTxnRetryOrFinish(run, /*committed=*/false);
          return;
        }
        ++run->next_op;
        LocalTxnStep(run);
      }));
}

void LocalClientIssue(const std::shared_ptr<RunState>& state,
                      const std::shared_ptr<Rng>& rng, SiteId site) {
  if (state->stop_issuing) {
    state->ClientDone();
    return;
  }
  auto run = std::make_shared<LocalTxnRun>();
  run->state = state;
  run->rng = rng;
  run->site = site;
  run->ops = MakeLocalTxn(state->config.local_workload, rng.get());
  if (run->ops.empty()) run->ops.push_back(DataOp::Read(DataItemId(0)));
  state->mdbs->BeginLocal(site, [run](const StatusOr<TxnId>& txn) {
    if (!txn.ok()) {
      // Site down right now; try again shortly.
      run->state->runner->Schedule(
          static_cast<sim::Time>(200 + run->rng->NextBelow(200)),
          [state = run->state, rng = run->rng, site = run->site]() {
            LocalClientIssue(state, rng, site);
          });
      return;
    }
    run->txn = *txn;
    run->attempt = 1;
    LocalTxnStep(run);
  });
}

/// Threaded runs with tracing on: gauges every strand's queue depth once a
/// millisecond while clients run — the kStrandBacklog series.
void SampleBacklogs(const std::shared_ptr<RunState>& state) {
  if (state->clients_running == 0) return;
  state->mdbs->SampleStrandBacklogs();
  state->runner->Schedule(1000, [state]() { SampleBacklogs(state); });
}

}  // namespace

std::string DriverReport::ToString() const {
  std::ostringstream os;
  os << "global: committed=" << global_committed << " failed=" << global_failed
     << " throughput=" << global_throughput << "/Mtick\n"
     << "  response: " << global_response.ToString() << "\n"
     << "  attempts: " << global_attempts.ToString() << "\n"
     << "  resubmissions=" << global_resubmissions
     << " retry_unsafe=" << global_retry_unsafe
     << " failed_permanently=" << txns_failed_permanently << "\n"
     << "local: committed=" << local_committed << " failed=" << local_failed
     << " retries=" << local_abort_retries << "\n"
     << "gtm1: attempts=" << gtm1.attempts
     << " aborted=" << gtm1.aborted_attempts
     << " scheme_aborts=" << gtm1.scheme_aborts
     << " timeouts=" << gtm1.timeouts
     << " partial_commits=" << gtm1.partial_commits
     << " site_down_aborts=" << gtm1.site_down_aborts
     << " parked=" << gtm1.parked << "\n"
     << "gtm2: processed=" << gtm2.processed_ops
     << " waits=" << gtm2.wait_additions
     << " ser_waits=" << gtm2.ser_wait_additions << "\n"
     << "sites: blocked=" << site_blocked << " local_aborts=" << site_aborts
     << " crashes=" << crashes << "\n"
     << "faults: " << faults.ToString() << "\n";
  if (durability.wal_records > 0 || durability.recoveries > 0) {
    os << "wal: records=" << durability.wal_records
       << " bytes=" << durability.wal_bytes
       << " checkpoints=" << durability.checkpoints
       << " recoveries=" << durability.recoveries
       << " replayed=" << durability.replay_records
       << " redone=" << durability.redo_writes
       << " undone=" << durability.undone_writes
       << " syncs=" << durability.wal_syncs
       << " recovery_ticks=" << durability.recovery_ticks << "\n";
  }
  if (gtm_durability.wal_records > 0 || gtm_durability.recoveries > 0) {
    os << "gtm_wal: records=" << gtm_durability.wal_records
       << " bytes=" << gtm_durability.wal_bytes
       << " checkpoints=" << gtm_durability.checkpoints
       << " crashes=" << gtm_durability.crashes
       << " recoveries=" << gtm_durability.recoveries
       << " replayed=" << gtm_durability.replayed_records
       << " replayed_enqueues=" << gtm_durability.replayed_enqueues
       << " resumed_commits=" << gtm_durability.resumed_commits
       << " recovery_aborts=" << gtm_durability.recovery_aborted_attempts
       << " buffered_submits=" << gtm_durability.buffered_submits
       << " syncs=" << gtm_durability.wal_syncs
       << " recovery_ticks=" << gtm_durability.recovery_ticks << "\n";
  }
  if (gtm_standby.shipped_records > 0 || gtm_standby.promotions > 0) {
    os << "gtm_standby: shipped=" << gtm_standby.shipped_records << "/"
       << gtm_standby.shipped_bytes << "B"
       << " applied=" << gtm_standby.applied_records << "/"
       << gtm_standby.applied_bytes << "B"
       << " lag=" << gtm_standby.lag_records << "/" << gtm_standby.lag_bytes
       << "B"
       << " promotions=" << gtm_standby.promotions
       << " epoch=" << gtm_standby.fencing_epoch
       << " stale_rejections=" << gtm_standby.stale_rejections
       << " dropped_frames=" << gtm_standby.dropped_frames << "\n";
  }
  os << "duration=" << duration << " ticks\n";
  return os.str();
}

void DriverReport::AddToRegistry(sim::MetricsRegistry* registry) const {
  registry->Increment("driver.global_committed", global_committed);
  registry->Increment("driver.global_failed", global_failed);
  registry->Increment("driver.local_committed", local_committed);
  registry->Increment("driver.local_failed", local_failed);
  registry->Increment("driver.local_abort_retries", local_abort_retries);
  registry->Increment("driver.duration_ticks", duration);
  registry->Increment("driver.site_blocked", site_blocked);
  registry->Increment("driver.site_aborts", site_aborts);
  registry->Increment("driver.crashes", crashes);
  registry->Increment("driver.global_resubmissions", global_resubmissions);
  registry->Increment("driver.global_retry_unsafe", global_retry_unsafe);
  registry->Increment("driver.txn_failed_permanently",
                      txns_failed_permanently);
  registry->Increment("fault.requests_lost", faults.requests_lost);
  registry->Increment("fault.responses_lost", faults.responses_lost);
  registry->Increment("fault.duplicates_injected", faults.duplicates_injected);
  registry->Increment("fault.duplicates_suppressed",
                      faults.duplicates_suppressed);
  registry->Increment("fault.delay_spikes", faults.delay_spikes);
  registry->Increment("fault.plan_crashes", faults.plan_crashes);
  registry->Increment("site.wal_records", durability.wal_records);
  registry->Increment("site.wal_bytes", durability.wal_bytes);
  registry->Increment("site.wal_checkpoints", durability.checkpoints);
  registry->Increment("site.recoveries", durability.recoveries);
  registry->Increment("site.wal_replay_records", durability.replay_records);
  registry->Increment("site.wal_replay_bytes", durability.replay_bytes);
  registry->Increment("site.wal_redo_writes", durability.redo_writes);
  registry->Increment("site.wal_undone_writes", durability.undone_writes);
  registry->Increment("site.recovery_ticks", durability.recovery_ticks);
  registry->Increment("site.wal_syncs", durability.wal_syncs);
  registry->Observe("driver.global_throughput_per_mtick", global_throughput);
  registry->Put("driver.global_response", global_response);
  registry->Put("driver.global_attempts", global_attempts);
  registry->Increment("gtm1.submitted", gtm1.submitted);
  registry->Increment("gtm1.committed", gtm1.committed);
  registry->Increment("gtm1.failed", gtm1.failed);
  registry->Increment("gtm1.attempts", gtm1.attempts);
  registry->Increment("gtm1.aborted_attempts", gtm1.aborted_attempts);
  registry->Increment("gtm1.scheme_aborts", gtm1.scheme_aborts);
  registry->Increment("gtm1.timeouts", gtm1.timeouts);
  registry->Increment("gtm1.partial_commits", gtm1.partial_commits);
  registry->Increment("gtm1.site_down_aborts", gtm1.site_down_aborts);
  registry->Increment("gtm1.parked", gtm1.parked);
  registry->Increment("gtm1.unparked", gtm1.unparked);
  registry->Increment("gtm1.park_timeouts", gtm1.park_timeouts);
  registry->Increment("gtm1.fast_path_attempts", gtm1.fast_path_attempts);
  registry->Increment("gtm_wal.records", gtm_durability.wal_records);
  registry->Increment("gtm_wal.bytes", gtm_durability.wal_bytes);
  registry->Increment("gtm_wal.checkpoints", gtm_durability.checkpoints);
  registry->Increment("gtm_wal.crashes", gtm_durability.crashes);
  registry->Increment("gtm_wal.recoveries", gtm_durability.recoveries);
  registry->Increment("gtm_wal.replayed_records",
                      gtm_durability.replayed_records);
  registry->Increment("gtm_wal.replayed_bytes",
                      gtm_durability.replayed_bytes);
  registry->Increment("gtm_wal.replayed_enqueues",
                      gtm_durability.replayed_enqueues);
  registry->Increment("gtm_wal.resumed_commits",
                      gtm_durability.resumed_commits);
  registry->Increment("gtm_wal.recovery_aborted_attempts",
                      gtm_durability.recovery_aborted_attempts);
  registry->Increment("gtm_wal.buffered_submits",
                      gtm_durability.buffered_submits);
  registry->Increment("gtm_wal.recovery_ticks",
                      gtm_durability.recovery_ticks);
  registry->Increment("gtm_wal.syncs", gtm_durability.wal_syncs);
  registry->Increment("gtm_standby.shipped_records",
                      gtm_standby.shipped_records);
  registry->Increment("gtm_standby.shipped_bytes", gtm_standby.shipped_bytes);
  registry->Increment("gtm_standby.applied_records",
                      gtm_standby.applied_records);
  registry->Increment("gtm_standby.applied_bytes", gtm_standby.applied_bytes);
  registry->Increment("gtm_standby.lag_records", gtm_standby.lag_records);
  registry->Increment("gtm_standby.lag_bytes", gtm_standby.lag_bytes);
  registry->Increment("gtm_standby.promotions", gtm_standby.promotions);
  registry->Increment("gtm_standby.fencing_epoch", gtm_standby.fencing_epoch);
  registry->Increment("gtm_standby.stale_rejections",
                      gtm_standby.stale_rejections);
  registry->Increment("gtm_standby.dropped_frames",
                      gtm_standby.dropped_frames);
  registry->Increment("gtm2.processed_ops", gtm2.processed_ops);
  registry->Increment("gtm2.wait_additions", gtm2.wait_additions);
  registry->Increment("gtm2.ser_wait_additions", gtm2.ser_wait_additions);
  registry->Increment("gtm2.cond_evaluations", gtm2.cond_evaluations);
  registry->Increment("gtm2.failed_rescan_steps", gtm2.failed_rescan_steps);
  if (worker_waits) {
    registry->Increment("sim.worker.spun_waits", worker_waits->spun);
    registry->Increment("sim.worker.parked_waits", worker_waits->parked);
  }
}

DriverReport RunDriver(Mdbs* mdbs, const DriverConfig& config,
                       uint64_t seed) {
  auto state = std::make_shared<RunState>();
  state->mdbs = mdbs;
  state->runner = mdbs->ClientRunner();
  state->config = config;
  state->clients_running =
      config.global_clients +
      std::max(config.local_clients_per_site, 0) *
          static_cast<int>(mdbs->site_ids().size());
  std::future<void> all_done = state->all_done.get_future();
  Rng root(seed);

  sim::Time start_time = mdbs->NowTicks();
  if (state->clients_running == 0) {
    state->finished_at = start_time;
    state->all_done.set_value();
  }
  for (int i = 0; i < config.global_clients; ++i) {
    auto rng = std::make_shared<Rng>(root.Fork());
    state->runner->Schedule(static_cast<sim::Time>(i), [state, rng]() {
      GlobalClientIssue(state, rng);
    });
  }
  if (config.local_clients_per_site > 0) {
    for (SiteId site : mdbs->site_ids()) {
      for (int i = 0; i < config.local_clients_per_site; ++i) {
        auto rng = std::make_shared<Rng>(root.Fork());
        state->runner->Schedule(static_cast<sim::Time>(i),
                                [state, rng, site]() {
                                  LocalClientIssue(state, rng, site);
                                });
      }
    }
  }

  if (mdbs->threaded()) {
    if (mdbs->events().Wants(obs::TraceEventKind::kStrandBacklog)) {
      state->runner->Schedule(0, [state]() { SampleBacklogs(state); });
    }
    all_done.wait();
    // Drain in-flight tails (fire-and-forget aborts, last acknowledgements)
    // and stop the strands; from here on the stack is single-threaded.
    mdbs->FinishThreadedRun();
  } else {
    mdbs->RunUntilIdle();
  }

  // End-of-run oracle: the recorded schedules must satisfy the paper's
  // correctness criteria. Violations are reported through the auditor
  // (fail-fast in tests); the returned status is also checked by callers
  // that audit with fail_fast off.
  if (mdbs->audit_enabled()) (void)mdbs->RunAuditOracle();

  DriverReport report;
  report.global_committed = state->global_committed;
  report.global_failed = state->global_failed;
  report.local_committed = state->local_committed;
  report.local_failed = state->local_failed;
  report.local_abort_retries = state->local_retries;
  report.global_resubmissions = state->global_resubmissions;
  report.global_retry_unsafe = state->global_retry_unsafe;
  report.txns_failed_permanently = state->txns_failed_permanently;
  report.faults = mdbs->fault_stats();
  report.duration = state->finished_at - start_time;
  if (report.duration > 0) {
    // Ticks are real microseconds in the threaded engine, so "per Mtick"
    // is per second there.
    report.global_throughput = 1e6 *
                               static_cast<double>(report.global_committed) /
                               static_cast<double>(report.duration);
  }
  report.global_response = state->response;
  report.global_attempts = state->attempts;
  report.gtm1 = mdbs->gtm().stats();
  report.gtm2 = mdbs->gtm().gtm2().stats();
  report.gtm_durability = mdbs->gtm_durability_stats();
  report.gtm_standby = mdbs->gtm_standby_stats();
  report.worker_waits = mdbs->worker_waits();
  for (SiteId site : mdbs->site_ids()) {
    report.site_blocked += mdbs->site(site).blocked_count();
    report.site_aborts += mdbs->site(site).abort_count();
    report.crashes += mdbs->site(site).crash_count();
    site::SiteDurabilityStats wal = mdbs->site(site).durability_stats();
    report.durability.wal_records += wal.wal_records;
    report.durability.wal_bytes += wal.wal_bytes;
    report.durability.checkpoints += wal.checkpoints;
    report.durability.recoveries += wal.recoveries;
    report.durability.replay_records += wal.replay_records;
    report.durability.replay_bytes += wal.replay_bytes;
    report.durability.redo_writes += wal.redo_writes;
    report.durability.undone_writes += wal.undone_writes;
    report.durability.recovery_ticks += wal.recovery_ticks;
    report.durability.wal_syncs += wal.wal_syncs;
  }
  return report;
}

}  // namespace mdbs
