#include "mdbs/threaded_driver.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "sim/real_strand.h"

namespace mdbs {

namespace {

void SleepTicks(sim::Time ticks) {
  if (ticks <= 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(ticks));
}

/// Shared run state; the driver mutex only guards the tallies, never any
/// part of the execution stack.
struct RunState {
  Mdbs* mdbs = nullptr;
  DriverConfig config;

  std::mutex mu;
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

  std::atomic<bool> stop{false};

  bool TargetReachedLocked() const {
    return global_committed + global_failed >=
           config.target_global_commits;
  }
};

/// Submits one global transaction and blocks until its final outcome.
gtm::GlobalTxnResult SubmitGlobalAndWait(Mdbs* mdbs, gtm::GlobalTxnSpec spec) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  gtm::GlobalTxnResult result;
  mdbs->SubmitGlobal(std::move(spec),
                     [&](const gtm::GlobalTxnResult& final_result) {
                       // Notify under the lock: the waiter owns cv/mu on its
                       // stack and destroys them as soon as it observes
                       // `done`, which the mutex orders after this signal.
                       std::lock_guard<std::mutex> lock(mu);
                       result = final_result;
                       done = true;
                       cv.notify_one();
                     });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return done; });
  return result;
}

/// Submits one local data operation and blocks until the site answered
/// (possibly after lock waits at the site).
Status SubmitLocalAndWait(site::LocalDbms* dbms, TxnId txn, const DataOp& op) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status result = Status::OK();
  dbms->Submit(txn, op, [&](const Status& status, int64_t) {
    std::lock_guard<std::mutex> lock(mu);  // Notify under the lock: the
    result = status;                       // waiter destroys cv on wake.
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return done; });
  return result;
}

Status CommitLocalAndWait(site::LocalDbms* dbms, TxnId txn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status result = Status::OK();
  dbms->Commit(txn, [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mu);  // Notify under the lock: the
    result = status;                       // waiter destroys cv on wake.
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return done; });
  return result;
}

/// One closed-loop global client: keeps one global transaction in flight
/// until the commit target is reached. A failed-but-retry-safe outcome is
/// resubmitted as a fresh GTM job (same spec), with doubling backoff,
/// mirroring the simulated driver's retry layer.
void GlobalClientMain(RunState* state, Rng rng) {
  sim::SetFineTimerSlack();  // Think time and backoff, like strand delays.
  Mdbs* mdbs = state->mdbs;
  while (!state->stop.load(std::memory_order_relaxed)) {
    gtm::GlobalTxnSpec spec;
    if (state->config.templates.has_value()) {
      const analysis::TemplateMix& mix = *state->config.templates;
      spec = analysis::Instantiate(
          mix.templates[analysis::SampleTemplate(mix, &rng)], mix, &rng);
    } else {
      spec = MakeGlobalTxn(state->config.global_workload, mdbs->site_ids(),
                           &rng);
    }
    sim::Time start = mdbs->NowTicks();
    int resubmissions = 0;
    int attempts_total = 0;
    gtm::GlobalTxnResult result;
    for (;;) {
      gtm::GlobalTxnSpec submit_spec = spec;
      result = SubmitGlobalAndWait(mdbs, std::move(submit_spec));
      attempts_total += result.attempts;
      if (result.status.ok() || !result.retry_safe ||
          resubmissions >= state->config.retry.max_resubmissions ||
          state->stop.load(std::memory_order_relaxed)) {
        break;
      }
      ++resubmissions;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->global_resubmissions;
      }
      if (obs::TraceSink* sink = mdbs->trace_sink()) {
        sink->Record(obs::TraceEventKind::kTxnResubmit, -1, -1,
                     resubmissions, attempts_total);
      }
      sim::Time base = state->config.retry.backoff;
      for (int i = 1; i < resubmissions && i < 4; ++i) base *= 2;
      SleepTicks(base + static_cast<sim::Time>(rng.NextBelow(
                            static_cast<uint64_t>(base) + 1)));
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (result.status.ok()) {
        ++state->global_committed;
        state->response.Add(
            static_cast<double>(result.finish_time - start));
        state->attempts.Add(attempts_total);
      } else {
        if (!result.retry_safe) {
          ++state->global_retry_unsafe;
        } else if (!state->stop.load(std::memory_order_relaxed)) {
          // Retry-safe failure with the resubmission budget spent: the
          // client gives up permanently.
          ++state->txns_failed_permanently;
        }
        ++state->global_failed;
      }
      if (state->TargetReachedLocked()) {
        state->stop.store(true, std::memory_order_relaxed);
      }
    }
    if (state->stop.load(std::memory_order_relaxed)) return;
    SleepTicks(state->config.global_think);
  }
}

/// One closed-loop local client at `site`: the pre-existing local
/// application the GTM never sees. Retries a transaction's operations after
/// local aborts, like its simulated counterpart.
void LocalClientMain(RunState* state, Rng rng, SiteId site) {
  sim::SetFineTimerSlack();
  Mdbs* mdbs = state->mdbs;
  site::LocalDbms* dbms = &mdbs->site(site);
  while (!state->stop.load(std::memory_order_relaxed)) {
    std::vector<DataOp> ops =
        MakeLocalTxn(state->config.local_workload, &rng);
    if (ops.empty()) ops.push_back(DataOp::Read(DataItemId(0)));

    bool committed = false;
    int attempt = 0;
    while (!committed && attempt < state->config.local_max_attempts) {
      StatusOr<TxnId> txn = mdbs->BeginLocal(site);
      if (!txn.ok()) {
        // Site down right now; try again shortly (counts as an attempt
        // only once the transaction got going at least once).
        if (attempt == 0) {
          if (state->stop.load(std::memory_order_relaxed)) break;
          SleepTicks(static_cast<sim::Time>(200 + rng.NextBelow(200)));
          continue;
        }
        ++attempt;
        continue;
      }
      ++attempt;
      bool aborted = false;
      for (const DataOp& op : ops) {
        if (!SubmitLocalAndWait(dbms, *txn, op).ok()) {
          aborted = true;
          break;
        }
      }
      if (!aborted && CommitLocalAndWait(dbms, *txn).ok()) {
        committed = true;
        break;
      }
      // Local abort: retry the same operations after a randomized backoff.
      if (attempt < state->config.local_max_attempts) {
        {
          std::lock_guard<std::mutex> lock(state->mu);
          ++state->local_retries;
        }
        SleepTicks(static_cast<sim::Time>(50 + rng.NextBelow(100)));
      }
    }
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (committed) {
        ++state->local_committed;
      } else if (attempt > 0) {  // Never-begun transactions don't count.
        ++state->local_failed;
      }
    }
    if (state->stop.load(std::memory_order_relaxed)) return;
    SleepTicks(state->config.local_think);
  }
}

/// Failure injection: every crash_interval microseconds, crash a random
/// site and recover it crash_duration later.
void CrashInjectorMain(RunState* state, Rng rng) {
  Mdbs* mdbs = state->mdbs;
  while (!state->stop.load(std::memory_order_relaxed)) {
    SleepTicks(state->config.crash_interval);
    if (state->stop.load(std::memory_order_relaxed)) return;
    SiteId victim =
        mdbs->site_ids()[rng.NextBelow(mdbs->site_ids().size())];
    mdbs->InjectCrash(victim, state->config.crash_duration);
  }
}

}  // namespace

DriverReport RunThreadedDriver(Mdbs* mdbs, const DriverConfig& config,
                               uint64_t seed) {
  MDBS_CHECK(mdbs->threaded())
      << "RunThreadedDriver needs MdbsConfig::threaded = true";
  RunState state;
  state.mdbs = mdbs;
  state.config = config;
  Rng root(seed);

  sim::Time start_time = mdbs->NowTicks();
  std::vector<std::thread> clients;
  for (int i = 0; i < config.global_clients; ++i) {
    clients.emplace_back(GlobalClientMain, &state, root.Fork());
  }
  if (config.local_clients_per_site > 0) {
    for (SiteId site : mdbs->site_ids()) {
      for (int i = 0; i < config.local_clients_per_site; ++i) {
        clients.emplace_back(LocalClientMain, &state, root.Fork(), site);
      }
    }
  }
  std::thread injector;
  if (config.crash_interval > 0) {
    injector = std::thread(CrashInjectorMain, &state, root.Fork());
  }
  // With tracing on, a sampler thread gauges every strand's queue depth
  // once a millisecond — the kStrandBacklog series in the trace/report.
  std::thread backlog_sampler;
  if (mdbs->trace_sink() != nullptr) {
    backlog_sampler = std::thread([mdbs, &state]() {
      while (!state.stop.load(std::memory_order_relaxed)) {
        mdbs->SampleStrandBacklogs();
        SleepTicks(1000);
      }
    });
  }

  for (std::thread& client : clients) client.join();
  state.stop.store(true, std::memory_order_relaxed);
  if (injector.joinable()) injector.join();
  if (backlog_sampler.joinable()) backlog_sampler.join();
  sim::Time end_time = mdbs->NowTicks();

  // Drain in-flight tails (fire-and-forget aborts, last acknowledgements)
  // and stop the strands; from here on the stack is single-threaded.
  mdbs->FinishThreadedRun();

  // End-of-run oracle: the recorded real interleaving must satisfy the
  // paper's correctness criteria, exactly as in the simulated driver.
  if (mdbs->audit_enabled()) (void)mdbs->RunAuditOracle();

  DriverReport report;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    report.global_committed = state.global_committed;
    report.global_failed = state.global_failed;
    report.local_committed = state.local_committed;
    report.local_failed = state.local_failed;
    report.local_abort_retries = state.local_retries;
    report.global_resubmissions = state.global_resubmissions;
    report.global_retry_unsafe = state.global_retry_unsafe;
    report.txns_failed_permanently = state.txns_failed_permanently;
    report.global_response = state.response;
    report.global_attempts = state.attempts;
  }
  report.faults = mdbs->fault_stats();
  report.duration = end_time - start_time;
  if (report.duration > 0) {
    // Ticks are microseconds here, so "per Mtick" is per second.
    report.global_throughput = 1e6 *
                               static_cast<double>(report.global_committed) /
                               static_cast<double>(report.duration);
  }
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
