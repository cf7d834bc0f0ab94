#include "mdbs/health.h"

#include <utility>

namespace mdbs {

HealthMonitor::HealthMonitor(const HealthConfig& config,
                             sim::TaskRunner* runner,
                             std::vector<SiteId> sites,
                             Callbacks callbacks,
                             const obs::EventSink& events)
    : config_(config),
      runner_(runner),
      callbacks_(std::move(callbacks)),
      events_(events),
      sites_(std::move(sites)) {
  for (SiteId site : sites_) entries_[site] = Entry{};
}

void HealthMonitor::Activity() {
  if (!config_.enabled || running_) return;
  running_ = true;
  // Restart the grace period: the monitor may have been stopped for a long
  // idle stretch, and silence while nobody probed proves nothing.
  for (SiteId site : sites_) entries_[site].last_ack = runner_->now();
  runner_->Schedule(0, [this]() { Tick(); });
}

void HealthMonitor::Tick() {
  if (!callbacks_.keep_probing()) {
    // Nothing in flight: stop so the run can quiesce. The next Submit's
    // Activity() restarts probing.
    running_ = false;
    return;
  }
  sim::Time now = runner_->now();
  for (SiteId site : sites_) {
    callbacks_.probe(site, [this, site]() { OnAck(site); });
    Entry& entry = entries_[site];
    sim::Time silent = now - entry.last_ack;
    if (entry.state == SiteState::kUp && silent >= config_.suspect_after) {
      entry.state = SiteState::kSuspect;
      events_.Emit({.kind = obs::TraceEventKind::kSiteSuspect,
                    .site = site.value(), .a = silent});
    }
    if (entry.state != SiteState::kDown && silent >= config_.down_after) {
      entry.state = SiteState::kDown;
      events_.Emit({.kind = obs::TraceEventKind::kSiteDown,
                    .site = site.value(), .a = silent});
      callbacks_.site_down(site);
    }
  }
  runner_->Schedule(config_.probe_interval, [this]() { Tick(); });
}

void HealthMonitor::OnAck(SiteId site) {
  Entry& entry = entries_[site];
  entry.last_ack = runner_->now();
  SiteState previous = entry.state;
  entry.state = SiteState::kUp;
  if (previous == SiteState::kDown) {
    events_.Emit({.kind = obs::TraceEventKind::kSiteUp, .site = site.value()});
    callbacks_.site_up(site);
  }
}

}  // namespace mdbs
