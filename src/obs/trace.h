#ifndef MDBS_OBS_TRACE_H_
#define MDBS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/event.h"
#include "sim/task_runner.h"

namespace mdbs::obs {

/// One recorded event. `time` is NowTicks() of the owning multidatabase —
/// virtual ticks under the simulator, real microseconds under the threaded
/// engine — so one format covers both. `seq` is a process-wide monotone
/// tie-breaker: simulator pumps execute many events at one tick, and the
/// span well-formedness checks (submit < init <= ser <= ack <= fin) are
/// defined over (time, seq).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSubmit;
  sim::Time time = 0;
  int64_t seq = 0;
  int64_t txn = -1;
  int64_t site = -1;
  int64_t a = 0;
  int64_t b = 0;
  /// Kind-specific label. MUST be a string literal (or otherwise immortal):
  /// events outlive the call site and are never deep-copied.
  const char* detail = nullptr;
};

/// Runtime configuration of one TraceSink.
struct TraceConfig {
  /// Master runtime switch; off, the multidatabase builds no sink and the
  /// event stream feeds the metrics engine alone.
  bool enabled = false;
  /// Events retained per recording thread. A full buffer drops further
  /// events (counted, reported by dropped()) rather than blocking or
  /// reallocating on the hot path.
  size_t buffer_capacity = 1 << 18;
};

/// Collects TraceEvents from every strand and client thread of one
/// multidatabase run. Each recording thread appends to its own buffer under
/// its own (uncontended) mutex — "lock-free-ish": the fast path never blocks
/// on another thread — and Drain() merges all buffers into (time, seq)
/// order once the run is quiescent.
///
/// Timestamps come from `clock`, which must be callable from any thread
/// (Mdbs::NowTicks is). Thread-buffer slots are keyed by a process-unique
/// sink id, so a thread that outlives one sink and records into another
/// never touches freed memory.
class TraceSink {
 public:
  using Clock = std::function<sim::Time()>;

  TraceSink(const TraceConfig& config, Clock clock);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool enabled() const { return config_.enabled; }

  /// Records one event stamped with clock() and the next global sequence
  /// number. Thread-safe; drops (and counts) when the calling thread's
  /// buffer is full or the sink is disabled.
  void Record(TraceEventKind kind, int64_t txn, int64_t site, int64_t a = 0,
              int64_t b = 0, const char* detail = nullptr);

  /// Merges every thread's buffer into (time, seq) order and clears them.
  /// Call only when no thread is recording (post-run).
  std::vector<TraceEvent> Drain();

  /// Events dropped on full buffers so far.
  int64_t dropped() const;
  /// Events recorded (excluding drops) so far.
  int64_t recorded() const;

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
    int64_t dropped = 0;
  };

  /// The calling thread's buffer, allocated on first use.
  Buffer* LocalBuffer();

  TraceConfig config_;
  Clock clock_;
  uint64_t id_;
  std::atomic<int64_t> next_seq_{0};
  std::atomic<int64_t> recorded_{0};
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace mdbs::obs

#endif  // MDBS_OBS_TRACE_H_
