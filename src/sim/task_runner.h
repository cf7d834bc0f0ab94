#ifndef MDBS_SIM_TASK_RUNNER_H_
#define MDBS_SIM_TASK_RUNNER_H_

#include <cstdint>
#include <functional>

namespace mdbs::sim {

/// Virtual time in abstract "ticks". The discrete-event simulator advances
/// it event by event; the threaded engine equates one tick with one real
/// microsecond, so configurations (service times, think times, timeouts)
/// carry over between the two execution modes unchanged.
using Time = int64_t;

/// Where a component runs its deferred work. Every component of the stack
/// (local DBMS, GTM, the network hops between them) schedules all of its
/// state-touching continuations on exactly one TaskRunner — its "strand".
/// Two implementations exist:
///   - sim::EventLoop: the single-threaded deterministic simulator; every
///     strand is the same loop, so all callbacks trivially serialize.
///   - sim::RealStrand: a timed task queue served by one of a fixed set of
///     worker threads, at most one per usable CPU; one strand per site plus
///     one for the GTM gives real parallelism where there are CPUs for it,
///     while each component's state stays single-threaded. Strands that
///     share a worker take turns, so a task must never block.
/// `Schedule` is safe to call from any thread on a RealStrand; the returned
/// ordering guarantee is FIFO among tasks with equal due times, so message
/// order between a fixed (sender strand, receiver strand) pair with a fixed
/// delay is preserved — the property the GTM relies on for ser_k delivery.
class TaskRunner {
 public:
  using Callback = std::function<void()>;

  virtual ~TaskRunner() = default;

  /// Current time on this strand's clock (virtual ticks or real
  /// microseconds since the multidatabase started).
  virtual Time now() const = 0;

  /// Runs `cb` on this strand `delay` ticks from now (delay >= 0).
  virtual void Schedule(Time delay, Callback cb) = 0;
};

}  // namespace mdbs::sim

#endif  // MDBS_SIM_TASK_RUNNER_H_
