#ifndef MDBS_MDBS_HEALTH_H_
#define MDBS_MDBS_HEALTH_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "obs/event_sink.h"
#include "sim/task_runner.h"

namespace mdbs {

/// Heartbeat configuration of the GTM-side site health monitor.
struct HealthConfig {
  bool enabled = true;
  /// Gap between probe rounds while the GTM has transactions in flight.
  sim::Time probe_interval = 500;
  /// No ack for this long marks the site suspect (informational).
  sim::Time suspect_after = 1500;
  /// No ack for this long declares the site down: the GTM aborts affected
  /// attempts and quarantines the site. Must comfortably exceed the probe
  /// round-trip so loss alone (probes ride the lossy network) does not
  /// false-positive.
  sim::Time down_after = 4000;
};

/// GTM-side failure detector. Probes every site over the (lossy, delayed)
/// network and turns missing acknowledgements into suspect/down
/// declarations, and a returning acknowledgement into an up declaration.
///
/// All state lives on the GTM's runner: Activity(), Tick() and probe acks
/// run there, in simulation mode as ordinary loop events (deterministic)
/// and in threaded mode on the GTM strand.
///
/// Probing is lazy: it starts on GTM activity (a Submit) and stops as soon
/// as `keep_probing` reports nothing in flight, so an idle multidatabase
/// has no perpetual timers and the simulator's RunUntilIdle terminates.
class HealthMonitor {
 public:
  enum class SiteState { kUp, kSuspect, kDown };

  struct Callbacks {
    /// Send one probe to `site`; invoke `ack` on the monitor's runner iff
    /// the site answered (a down site, or a lost probe leg, never acks).
    std::function<void(SiteId, std::function<void()> ack)> probe;
    /// The monitor declared the site down / saw it answer again.
    std::function<void(SiteId)> site_down;
    std::function<void(SiteId)> site_up;
    /// Probe rounds continue while this returns true.
    std::function<bool()> keep_probing;
  };

  /// Suspect/down/up declarations go to `events`.
  HealthMonitor(const HealthConfig& config, sim::TaskRunner* runner,
                std::vector<SiteId> sites, Callbacks callbacks,
                const obs::EventSink& events);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// GTM activity notification (wired to Gtm1's activity hook). Starts the
  /// probe loop when it is not already running. Must run on the runner.
  void Activity();

  bool running() const { return running_; }
  SiteState state(SiteId site) const { return entries_.at(site).state; }

 private:
  struct Entry {
    sim::Time last_ack = 0;
    SiteState state = SiteState::kUp;
  };

  void Tick();
  void OnAck(SiteId site);

  const HealthConfig config_;
  sim::TaskRunner* runner_;
  Callbacks callbacks_;
  const obs::EventSink& events_;
  std::vector<SiteId> sites_;
  std::unordered_map<SiteId, Entry> entries_;
  bool running_ = false;
};

}  // namespace mdbs

#endif  // MDBS_MDBS_HEALTH_H_
