#ifndef MDBS_SIM_REAL_STRAND_H_
#define MDBS_SIM_REAL_STRAND_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/task_runner.h"

namespace mdbs::sim {

/// Asks the kernel to wake the calling thread's timed waits (condition
/// variable deadlines, `sleep_for`) as close to their deadline as it can.
/// Linux otherwise defers each such wake-up by the thread's timer slack,
/// 50 µs by default, which is several times the modeled network and
/// service delays the threaded engine sleeps for. Never makes a wait end
/// early. A no-op off Linux.
void SetFineTimerSlack();

/// Shared real-time clock for a family of strands: microseconds since its
/// construction, measured on the steady clock. All strands of one
/// multidatabase share a ticker so their `now()` values are comparable (the
/// recorder's timestamps, response-time measurements).
class RealTicker {
 public:
  RealTicker() : epoch_(std::chrono::steady_clock::now()) {}

  Time NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point ToTimePoint(Time at) const {
    return epoch_ + std::chrono::microseconds(at);
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// A TaskRunner backed by one worker thread draining a timed task queue —
/// the threaded engine's unit of mutual exclusion. Tasks run strictly one
/// at a time on the worker, so state touched only from one strand needs no
/// further locking; `Schedule` may be called from any thread. Due tasks run
/// in (due time, submission order), matching EventLoop's tie-breaking, so a
/// sender posting two tasks with the same delay is guaranteed in-order
/// delivery — the property GTM2's ser_k release order relies on.
class RealStrand final : public TaskRunner {
 public:
  /// `ticker` must outlive the strand. `name` labels the worker for logs.
  RealStrand(const RealTicker* ticker, std::string name);

  /// Stops the worker (discarding queued tasks) if Stop was not called.
  ~RealStrand() override;

  RealStrand(const RealStrand&) = delete;
  RealStrand& operator=(const RealStrand&) = delete;

  Time now() const override { return ticker_->NowMicros(); }

  /// Thread-safe; `cb` runs on the worker no earlier than `delay`
  /// microseconds from now. Tasks scheduled after Stop are dropped.
  void Schedule(Time delay, Callback cb) override;

  /// True when no task is executing and nothing is due before `horizon`
  /// (absolute ticker time). Used by the shutdown sweep: once every strand
  /// is quiescent beyond a horizon and no external thread is submitting,
  /// only far-future timers (stale attempt timeouts) remain.
  bool QuiescentBeyond(Time horizon) const;

  /// Finishes the in-flight task, discards the rest of the queue, and joins
  /// the worker. Idempotent, also when called from several threads at once:
  /// every caller returns after the worker has exited. Must not be called
  /// from a task on this strand. After Stop the object is inert: pending and
  /// future Schedule calls are dropped.
  void Stop();

  /// Tasks executed so far (approximate while running; exact after Stop).
  int64_t executed() const;

  /// Tasks currently queued (due or timed). A sampled snapshot — the
  /// observability backlog gauge in threaded runs.
  int64_t PendingTasks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(queue_.size());
  }

 private:
  struct Task {
    Time at;
    int64_t seq;
    Callback cb;
  };
  /// Min-heap order on (at, seq) for std::push_heap/pop_heap.
  struct Later {
    bool operator()(const Task& a, const Task& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void ThreadMain();

  const RealTicker* ticker_;
  std::string name_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task> queue_;  // Heap ordered by Later.
  int64_t next_seq_ = 0;
  bool stopping_ = false;
  bool running_task_ = false;
  int64_t executed_ = 0;

  std::once_flag join_once_;
  std::thread worker_;
};

}  // namespace mdbs::sim

#endif  // MDBS_SIM_REAL_STRAND_H_
