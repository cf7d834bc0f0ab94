#ifndef MDBS_SIM_REAL_STRAND_H_
#define MDBS_SIM_REAL_STRAND_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
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

/// CPUs the calling thread may run on: the size of its affinity mask on
/// Linux, `std::thread::hardware_concurrency()` elsewhere. At least 1.
int UsableCpus();

/// How a ticker's workers have waited for their next task, summed over the
/// workers: `spun` waits busy-waited for a task due within
/// `RealTicker::kSpinBeforeParkUs`, `parked` waits slept on the worker's
/// condition variable (a farther deadline or an empty queue).
struct WorkerWaits {
  int64_t spun = 0;
  int64_t parked = 0;
};

/// Shared real-time clock and worker threads for a family of strands.
/// `NowMicros` is microseconds since construction on the steady clock; all
/// strands of one multidatabase share a ticker so their `now()` values are
/// comparable (the recorder's timestamps, response-time measurements).
///
/// The ticker owns the threads that run its strands' tasks: at most W of
/// them, W = `UsableCpus()` of the constructing thread. Each new strand
/// gets a new worker until there are W; later strands are spread over them
/// round-robin. A strand never moves between workers. The ticker must
/// outlive every strand built on it; its destructor joins the workers.
///
/// A worker whose next task is due within `kSpinBeforeParkUs` busy-waits
/// for it with no mutex held; for a farther deadline or an empty queue it
/// parks on its condition variable. A new task ends the spin early.
class RealTicker {
 public:
  /// Parking costs a futex sleep and a timer wake-up that comes several
  /// microseconds late, which is as long as the per-hop modeled delays
  /// themselves: 5 µs per network leg, 10 µs per operation, 20 µs per
  /// commit, 10 µs of standby lag. 50 µs covers all of them and is far
  /// below the health monitor's millisecond periods, so a spin is short.
  static constexpr Time kSpinBeforeParkUs = 50;

  RealTicker();
  ~RealTicker();

  RealTicker(const RealTicker&) = delete;
  RealTicker& operator=(const RealTicker&) = delete;

  Time NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point ToTimePoint(Time at) const {
    return epoch_ + std::chrono::microseconds(at);
  }

  /// Workers started so far (at most W).
  int workers() const;

  /// Waits spun and parked by all workers so far.
  WorkerWaits waits() const;

 private:
  friend class RealStrand;
  class Worker;

  /// The worker a new strand runs on; starts one if fewer than W exist.
  Worker* AssignWorker();

  std::chrono::steady_clock::time_point epoch_;
  const int max_workers_;

  mutable std::mutex workers_mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_worker_ = 0;
};

/// A TaskRunner whose tasks run on one of its ticker's worker threads —
/// the threaded engine's unit of mutual exclusion. A strand's tasks run
/// strictly one at a time, so state touched only from one strand needs no
/// further locking; `Schedule` may be called from any thread. Due tasks run
/// in (due time, submission order), matching EventLoop's tie-breaking, so a
/// sender posting two tasks with the same delay is guaranteed in-order
/// delivery — the property GTM2's ser_k release order relies on. Strands
/// that share a worker take turns on it, so a task must never block: it
/// would stall every strand of its worker.
class RealStrand final : public TaskRunner {
 public:
  /// `ticker` must outlive the strand. `name` labels the strand for logs.
  RealStrand(RealTicker* ticker, std::string name);

  /// Stops the strand if Stop was not called, then destroys the tasks Stop
  /// discarded.
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

  /// Finishes the in-flight task and discards the rest of the queue; the
  /// discarded tasks never run and are destroyed with the strand. Returns
  /// once this strand has no task running, under the worker's mutex, so
  /// everything its tasks wrote is visible to the caller. Idempotent, also
  /// when called from several threads at once. Must not be called from a
  /// task on this strand. After Stop the object is inert: pending and
  /// future Schedule calls are dropped. The worker keeps serving the other
  /// strands.
  void Stop();

  /// Tasks executed so far (approximate while running; exact after Stop).
  int64_t executed() const;

  /// Tasks queued (due or timed) and not yet run, counting those Stop
  /// discarded. A sampled snapshot — the observability backlog gauge in
  /// threaded runs.
  int64_t PendingTasks() const;

 private:
  friend class RealTicker;

  const RealTicker* ticker_;
  RealTicker::Worker* worker_;
  std::string name_;

  // Guarded by the worker's mutex.
  bool stopping_ = false;
  bool running_task_ = false;
  int64_t executed_ = 0;
  int64_t pending_ = 0;  // Scheduled and not yet run, discarded included.
  std::vector<Callback> discarded_;
  std::condition_variable idle_;  // Signalled when a task ends after Stop.
};

}  // namespace mdbs::sim

#endif  // MDBS_SIM_REAL_STRAND_H_
