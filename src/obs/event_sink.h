#ifndef MDBS_OBS_EVENT_SINK_H_
#define MDBS_OBS_EVENT_SINK_H_

#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdbs::sched {
class ScheduleRecorder;
}  // namespace mdbs::sched

namespace mdbs::obs {

/// The one lifecycle event stream of a multidatabase. Every component emits
/// each transition once, here; the sink hands it to the subscribers that
/// take its kind (SubscribersOf) — the TraceSink, the MetricsEngine and
/// the sched::ScheduleRecorder, each present only when its run has one.
/// The sink itself is never null: a component built outside a
/// multidatabase gets kNoEvents, which has no subscribers.
///
/// A plain value of three pointers, fixed before any component is built,
/// so concurrent emits from every strand only read it. Muting a component
/// is handing it a subscriber-less sink (see GtmReplica, whose log replay
/// must stay silent).
class EventSink {
 public:
  constexpr EventSink() = default;
  constexpr EventSink(TraceSink* trace, MetricsEngine* metrics,
                      sched::ScheduleRecorder* schedule = nullptr)
      : trace_sink_(trace), metrics_engine_(metrics), schedule_(schedule) {}

  void Emit(const Event& event) const {
    const uint8_t to = SubscribersOf(event.kind);
    if ((to & kToTrace) != 0 && trace_sink_ != nullptr) {
      trace_sink_->Record(event.kind, event.txn, event.site, event.a, event.b,
                          event.detail);
    }
    if ((to & kToMetrics) != 0 && metrics_engine_ != nullptr) {
      metrics_engine_->On(event);
    }
    if ((to & kToSchedule) != 0 && schedule_ != nullptr) Record(event);
  }

  /// True when some subscriber takes `kind`: guards emits whose payload
  /// costs more than the emit.
  bool Wants(TraceEventKind kind) const {
    const uint8_t to = SubscribersOf(kind);
    return ((to & kToTrace) != 0 && trace_sink_ != nullptr) ||
           ((to & kToMetrics) != 0 && metrics_engine_ != nullptr) ||
           ((to & kToSchedule) != 0 && schedule_ != nullptr);
  }

 private:
  /// Hands a site event to the recorder shard of its site. Runs on that
  /// site's strand, the shard's only writer.
  void Record(const Event& event) const;

  TraceSink* trace_sink_ = nullptr;
  MetricsEngine* metrics_engine_ = nullptr;
  sched::ScheduleRecorder* schedule_ = nullptr;
};

/// The subscriber-less sink: components default to it.
inline constexpr EventSink kNoEvents;

}  // namespace mdbs::obs

#endif  // MDBS_OBS_EVENT_SINK_H_
