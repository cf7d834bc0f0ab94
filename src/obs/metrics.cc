#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace mdbs::obs {

namespace {

/// p-th quantile of an unsorted sample vector (sorted-vector interpolation,
/// matching sim::Summary semantics). Consumes `values`.
double QuantileOf(std::vector<int64_t>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  double pos = q * static_cast<double>(values->size() - 1);
  auto lo = static_cast<size_t>(std::floor(pos));
  auto hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>((*values)[lo]) * (1 - frac) +
         static_cast<double>((*values)[hi]) * frac;
}

/// The phase a GTM1 step charges. A begin is synchronous at the site, so
/// its whole round trip is network time; ticket, data and commit round
/// trips are split at kRoundTripEnd by the site-measured busy slice.
TxnPhase PhaseOf(Step step) {
  switch (step) {
    case Step::kBegin:
      return TxnPhase::kNetwork;
    case Step::kTicket:
      return TxnPhase::kTicket;
    case Step::kData:
    case Step::kCommit:
      return TxnPhase::kSiteExec;
    case Step::kBackoff:
      return TxnPhase::kBackoff;
    case Step::kPark:
      return TxnPhase::kParked;
    case Step::kNone:
    case Step::kGtm2:
      break;
  }
  return TxnPhase::kScheme;
}

}  // namespace

const char* TxnPhaseName(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kAdmission:
      return "admission";
    case TxnPhase::kScheme:
      return "scheme";
    case TxnPhase::kSerWait:
      return "ser_wait";
    case TxnPhase::kTicket:
      return "ticket";
    case TxnPhase::kNetwork:
      return "network";
    case TxnPhase::kSiteExec:
      return "site_exec";
    case TxnPhase::kBackoff:
      return "backoff";
    case TxnPhase::kParked:
      return "parked";
    case TxnPhase::kRecovery:
      return "recovery";
  }
  return "unknown";
}

std::string MetricsSnapshot::BreakdownTable() const {
  std::ostringstream os;
  int64_t total = 0;
  for (int64_t ticks : phase_ticks) total += ticks;
  os << std::left << std::setw(11) << "phase" << std::right << std::setw(9)
     << "count" << std::setw(14) << "total_ticks" << std::setw(8) << "share"
     << std::setw(10) << "p50" << std::setw(10) << "p95" << std::setw(10)
     << "p99" << std::setw(10) << "p999" << "\n";
  for (int i = 0; i < kTxnPhaseCount; ++i) {
    const sim::Summary& s = phases[i];
    double share =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(phase_ticks[i]) /
                         static_cast<double>(total);
    os << std::left << std::setw(11) << TxnPhaseName(static_cast<TxnPhase>(i))
       << std::right << std::setw(9) << s.count() << std::setw(14)
       << phase_ticks[i] << std::setw(7) << std::fixed << std::setprecision(1)
       << share << "%" << std::setw(10) << std::setprecision(0) << s.Median()
       << std::setw(10) << s.P95() << std::setw(10) << s.P99() << std::setw(10)
       << s.P999() << "\n";
  }
  os << std::left << std::setw(11) << "lifetime" << std::right << std::setw(9)
     << lifetime.count() << std::setw(14) << lifetime_ticks << std::setw(8)
     << " " << std::setw(10) << std::setprecision(0) << lifetime.Median()
     << std::setw(10) << lifetime.P95() << std::setw(10) << lifetime.P99()
     << std::setw(10) << lifetime.P999() << "\n";
  os << "bottleneck: " << TxnPhaseName(bottleneck) << " ("
     << std::setprecision(1) << 100.0 * bottleneck_share
     << "% of attributed ticks), balance violations: " << balance_violations
     << "\n";
  return os.str();
}

MetricsEngine::MetricsEngine(const MetricsConfig& config, Clock clock,
                             std::vector<SiteId> sites)
    : config_(config), clock_(std::move(clock)), site_ids_(std::move(sites)) {
  if (config_.timeline_window <= 0) config_.timeline_window = 5000;
  site_exec_.resize(site_ids_.size());
  for (size_t i = 0; i < site_ids_.size(); ++i) site_index_[site_ids_[i]] = i;
}

MetricsEngine::TxnState* MetricsEngine::Find(int64_t job) {
  auto it = txns_.find(job);
  return it == txns_.end() ? nullptr : &it->second;
}

MetricsEngine::WindowAcc& MetricsEngine::Window(sim::Time at) {
  int64_t index = at < 0 ? 0 : at / config_.timeline_window;
  WindowAcc& acc = timeline_[index];
  acc.point.window = index;
  return acc;
}

void MetricsEngine::ClosePhase(TxnState* state, sim::Time now) {
  sim::Time duration = now - state->phase_start;
  if (duration > 0) {
    if (state->phase == TxnPhase::kParked) {
      sim::Time recovered =
          RecoveryOverlap(state->sites, state->phase_start, now);
      state->acc[static_cast<int>(TxnPhase::kRecovery)] += recovered;
      state->acc[static_cast<int>(TxnPhase::kParked)] += duration - recovered;
    } else {
      state->acc[static_cast<int>(state->phase)] += duration;
    }
  }
  state->phase_start = now;
}

sim::Time MetricsEngine::RecoveryOverlap(const std::vector<SiteId>& sites,
                                         sim::Time begin,
                                         sim::Time end) const {
  std::vector<std::pair<sim::Time, sim::Time>> clipped;
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    for (SiteId site : sites) {
      auto it = recovery_windows_.find(site);
      if (it == recovery_windows_.end()) continue;
      for (const auto& [wb, we] : it->second) {
        sim::Time lo = std::max(begin, wb);
        sim::Time hi = std::min(end, we);
        if (lo < hi) clipped.emplace_back(lo, hi);
      }
    }
  }
  if (clipped.empty()) return 0;
  std::sort(clipped.begin(), clipped.end());
  sim::Time covered = 0;
  sim::Time cur_begin = clipped[0].first;
  sim::Time cur_end = clipped[0].second;
  for (size_t i = 1; i < clipped.size(); ++i) {
    if (clipped[i].first > cur_end) {
      covered += cur_end - cur_begin;
      cur_begin = clipped[i].first;
      cur_end = clipped[i].second;
    } else {
      cur_end = std::max(cur_end, clipped[i].second);
    }
  }
  covered += cur_end - cur_begin;
  return covered;
}

void MetricsEngine::On(const Event& event) {
  if (!config_.enabled) return;
  switch (event.kind) {
    case TraceEventKind::kAdmission:
      staged_admission_ = event.ticks;
      return;
    case TraceEventKind::kSubmit:
      TxnSubmitted(event.job, *event.sites);
      return;
    case TraceEventKind::kAttemptStart:
      // GTM2 reports WAIT dwell keyed by attempt id.
      attempt_job_[GlobalTxnId(event.txn)] = event.job;
      Transition(event.job, TxnPhase::kScheme);
      return;
    case TraceEventKind::kStep:
      Transition(event.job, PhaseOf(event.step));
      return;
    case TraceEventKind::kWaitEnter:
    case TraceEventKind::kWaitExit:
      RecordWaitDwell(event);
      ChargeSerWait(event);
      return;
    case TraceEventKind::kWaitAbandon:
      RecordWaitDwell(event);
      return;
    case TraceEventKind::kQueueDepth: {
      queue_depth_.Add(static_cast<double>(event.a));
      wait_depth_.Add(static_cast<double>(event.b));
      WindowAcc& window = Window(Now());
      window.point.max_queue_depth =
          std::max(window.point.max_queue_depth, event.a);
      window.point.max_wait_depth =
          std::max(window.point.max_wait_depth, event.b);
      return;
    }
    case TraceEventKind::kSiteReply:
      // Same GTM-strand task as the kRoundTripEnd that consumes it.
      staged_sub_ = TxnId(event.txn);
      staged_busy_ = event.ticks;
      return;
    case TraceEventKind::kRoundTripEnd:
      EndRoundTrip(event.job, TxnId(event.txn));
      return;
    case TraceEventKind::kAttemptAbort:
      ++Window(Now()).point.attempt_aborts;
      attempt_job_.erase(GlobalTxnId(event.txn));
      return;
    case TraceEventKind::kTxnCommit:
    case TraceEventKind::kTxnFail:
      attempt_job_.erase(GlobalTxnId(event.txn));
      TxnFinished(event.job, event.kind == TraceEventKind::kTxnCommit);
      return;
    case TraceEventKind::kTxnParked:
      Transition(event.job, TxnPhase::kParked);
      return;
    case TraceEventKind::kGtmCrash:
      // The crashed GTM's attempts are gone; every live transaction waits
      // in kRecovery until the recovered GTM moves it on.
      attempt_job_.clear();
      for (const auto& [job, state] : txns_) {
        Transition(job, TxnPhase::kRecovery);
      }
      return;
    case TraceEventKind::kSiteDown:
      ++Window(Now()).point.site_down_events;
      return;
    case TraceEventKind::kSiteWork: {
      // The site's strand, the only writer of the site's summary.
      auto it = site_index_.find(SiteId(event.site));
      if (it != site_index_.end()) {
        site_exec_[it->second].Add(static_cast<double>(event.ticks));
      }
      return;
    }
    case TraceEventKind::kRecoveryBegin: {
      // Any strand: the site replays its WAL during [now, now + ticks);
      // parks overlapping that window count as kRecovery, not kParked.
      sim::Time now = Now();
      std::lock_guard<std::mutex> lock(recovery_mu_);
      recovery_time_.Add(static_cast<double>(event.ticks));
      if (event.ticks <= 0) return;
      recovery_windows_[SiteId(event.site)].emplace_back(now,
                                                         now + event.ticks);
      return;
    }
    default:
      return;
  }
}

void MetricsEngine::RecordWaitDwell(const Event& event) {
  const char* op = event.detail != nullptr ? event.detail : "?";
  size_t kind = 0;
  while (kind < wait_dwell_.size() &&
         std::strcmp(wait_dwell_[kind].op, op) != 0) {
    ++kind;
  }
  if (kind == wait_dwell_.size()) wait_dwell_.emplace_back().op = op;
  const auto key = std::make_tuple(event.txn, event.site, kind);
  if (event.kind == TraceEventKind::kWaitEnter) {
    wait_since_[key] = Now();
    return;
  }
  auto it = wait_since_.find(key);
  if (it == wait_since_.end()) return;
  WaitDwell& dwell = wait_dwell_[kind];
  (event.kind == TraceEventKind::kWaitExit ? dwell.exited : dwell.abandoned)
      .Add(static_cast<double>(Now() - it->second));
  wait_since_.erase(it);
}

void MetricsEngine::ChargeSerWait(const Event& event) {
  // Only the critical path counts: a ser or validate operation, and only
  // while its transaction is not in a site round trip.
  if (event.step != Step::kGtm2) return;
  auto it = attempt_job_.find(GlobalTxnId(event.txn));
  if (it == attempt_job_.end()) return;
  const bool enter = event.kind == TraceEventKind::kWaitEnter;
  TxnState* state = Find(it->second);
  if (state == nullptr ||
      state->phase != (enter ? TxnPhase::kScheme : TxnPhase::kSerWait)) {
    return;
  }
  ClosePhase(state, Now());
  state->phase = enter ? TxnPhase::kSerWait : TxnPhase::kScheme;
}

void MetricsEngine::TxnSubmitted(int64_t job,
                                 const std::vector<SiteId>& sites) {
  sim::Time now = Now();
  TxnState state;
  // A staged admission stamp (threaded client) starts the lifetime at the
  // client-side enqueue; min() guards against cross-thread clock skew.
  state.submit =
      staged_admission_ ? std::min(*staged_admission_, now) : now;
  staged_admission_.reset();
  state.phase = TxnPhase::kAdmission;
  state.phase_start = state.submit;
  state.sites = sites;
  txns_[job] = std::move(state);
  ++Window(now).point.submitted;
}

void MetricsEngine::Transition(int64_t job, TxnPhase next) {
  TxnState* state = Find(job);
  if (state == nullptr) return;
  sim::Time now = Now();
  if (state->phase != TxnPhase::kParked && next == TxnPhase::kParked) {
    ++parked_now_;
    WindowAcc& window = Window(now);
    window.point.max_parked = std::max(window.point.max_parked, parked_now_);
  } else if (state->phase == TxnPhase::kParked && next != TxnPhase::kParked) {
    --parked_now_;
  }
  ClosePhase(state, now);
  state->phase = next;
}

void MetricsEngine::EndRoundTrip(int64_t job, TxnId sub) {
  TxnState* state = Find(job);
  sim::Time busy = 0;
  if (staged_sub_.valid() && staged_sub_ == sub) busy = staged_busy_;
  staged_sub_ = TxnId();
  staged_busy_ = 0;
  if (state == nullptr) return;
  sim::Time now = Now();
  sim::Time interval = now - state->phase_start;
  if (interval < 0) interval = 0;
  busy = std::min(busy, interval);
  // The site-measured busy slice belongs to the current phase (site_exec or
  // ticket); the rest of the round trip is network transit.
  state->acc[static_cast<int>(state->phase)] += busy;
  state->acc[static_cast<int>(TxnPhase::kNetwork)] += interval - busy;
  state->phase_start = now;
}

void MetricsEngine::TxnFinished(int64_t job, bool committed) {
  TxnState* state = Find(job);
  if (state == nullptr) return;
  sim::Time now = Now();
  if (state->phase == TxnPhase::kParked) --parked_now_;
  ClosePhase(state, now);
  sim::Time lifetime = now - state->submit;
  sim::Time attributed = 0;
  for (sim::Time ticks : state->acc) attributed += ticks;
  if (attributed != lifetime) {
    ++balance_violations_;
    max_balance_error_ =
        std::max(max_balance_error_, std::abs(attributed - lifetime));
  }
  lifetime_.Add(static_cast<double>(lifetime));
  lifetime_ticks_ += lifetime;
  for (int i = 0; i < kTxnPhaseCount; ++i) {
    phase_summaries_[i].Add(static_cast<double>(state->acc[i]));
    phase_ticks_[i] += state->acc[i];
  }
  ++finished_;
  WindowAcc& window = Window(now);
  if (committed) {
    ++committed_;
    ++window.point.committed;
    window.latencies.push_back(lifetime);
  } else {
    ++window.point.failed;
  }
  txns_.erase(job);
}

MetricsSnapshot MetricsEngine::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.enabled = config_.enabled;
  snapshot.window_size = config_.timeline_window;
  if (!config_.enabled) return snapshot;
  snapshot.lifetime = lifetime_;
  snapshot.phases = phase_summaries_;
  snapshot.phase_ticks = phase_ticks_;
  snapshot.lifetime_ticks = lifetime_ticks_;
  snapshot.finished = finished_;
  snapshot.committed = committed_;
  snapshot.balance_violations = balance_violations_;
  snapshot.max_balance_error = max_balance_error_;
  for (size_t i = 0; i < site_ids_.size(); ++i) {
    snapshot.site_exec.emplace_back(site_ids_[i], site_exec_[i]);
  }
  snapshot.timeline.reserve(timeline_.size());
  for (const auto& [index, acc] : timeline_) {
    TimelinePoint point = acc.point;
    std::vector<int64_t> latencies = acc.latencies;
    point.p99_latency = QuantileOf(&latencies, 0.99);
    snapshot.timeline.push_back(point);
  }
  int64_t total = 0;
  for (int64_t ticks : phase_ticks_) total += ticks;
  int best = static_cast<int>(TxnPhase::kSiteExec);
  if (total > 0) {
    best = 0;
    for (int i = 1; i < kTxnPhaseCount; ++i) {
      if (phase_ticks_[i] > phase_ticks_[best]) best = i;
    }
    snapshot.bottleneck_share =
        static_cast<double>(phase_ticks_[best]) / static_cast<double>(total);
  }
  snapshot.bottleneck = static_cast<TxnPhase>(best);
  snapshot.wait_dwell = wait_dwell_;
  snapshot.queue_depth = queue_depth_;
  snapshot.wait_depth = wait_depth_;
  std::lock_guard<std::mutex> lock(recovery_mu_);
  snapshot.recovery_time = recovery_time_;
  return snapshot;
}

void AddSnapshotToRegistry(const MetricsSnapshot& snapshot,
                           sim::MetricsRegistry* registry) {
  if (!snapshot.enabled) return;
  auto put = [registry](const std::string& name, const sim::Summary& s) {
    if (s.count() > 0) registry->Put(name, s);
  };
  registry->Put("txn.lifetime", snapshot.lifetime);
  for (int i = 0; i < kTxnPhaseCount; ++i) {
    registry->Put(
        std::string("txn.phase.") + TxnPhaseName(static_cast<TxnPhase>(i)),
        snapshot.phases[i]);
  }
  for (const auto& [site, summary] : snapshot.site_exec) {
    put("site.exec." + ToString(site), summary);
  }
  for (const WaitDwell& dwell : snapshot.wait_dwell) {
    put(std::string("wait.dwell.") + dwell.op, dwell.exited);
    put(std::string("wait.dwell.abandoned.") + dwell.op, dwell.abandoned);
  }
  put("gtm2.queue_depth", snapshot.queue_depth);
  put("gtm2.wait_depth", snapshot.wait_depth);
  put("recovery.time", snapshot.recovery_time);
}

}  // namespace mdbs::obs
