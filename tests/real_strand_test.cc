#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
#include <sched.h>
#include <sys/prctl.h>
#endif

#include "sim/real_strand.h"

namespace mdbs::sim {
namespace {

// Tasks own the promise they fulfil, so the waiting test thread never
// destroys a promise the worker is still inside.

/// Runs `fn` on `strand` after `delay` and returns its result.
template <typename Fn>
auto RunOn(RealStrand* strand, Fn fn, Time delay = 0) {
  using R = decltype(fn());
  auto result = std::make_shared<std::promise<R>>();
  std::future<R> future = result->get_future();
  strand->Schedule(delay, [result, fn]() {
    if constexpr (std::is_void_v<R>) {
      fn();
      result->set_value();
    } else {
      result->set_value(fn());
    }
  });
  return future.get();
}

/// Waits until every task due before `delay` from now has run.
void Drain(RealStrand* strand, Time delay = 0) {
  RunOn(strand, []() {}, delay);
}

/// Holds the worker inside a task until Open(), so a test can queue tasks
/// the worker cannot pop meanwhile.
class Gate {
 public:
  explicit Gate(RealStrand* strand) {
    auto entered = std::make_shared<std::promise<void>>();
    std::future<void> entered_future = entered->get_future();
    std::shared_future<void> opened = open_.get_future().share();
    strand->Schedule(0, [entered, opened]() {
      entered->set_value();
      opened.wait();
    });
    entered_future.wait();
  }
  void Open() { open_.set_value(); }

 private:
  std::promise<void> open_;
};

TEST(RealStrandTest, RunsInDueOrderAndFifoAmongEqualDueTimes) {
  RealTicker ticker;
  RealStrand strand(&ticker, "order");
  const std::vector<Time> delays = {3000, 1000, 2000, 1000, 3000, 1000, 2000};
  // A task's due time is its delay plus the ticker time at some instant
  // during its Schedule call; [lo, hi] brackets it.
  std::vector<Time> lo(delays.size());
  std::vector<Time> hi(delays.size());
  std::vector<size_t> ran;  // Touched by the worker only, until drained.
  Gate gate(&strand);       // Everything is queued before anything is popped.
  for (size_t i = 0; i < delays.size(); ++i) {
    lo[i] = ticker.NowMicros() + delays[i];
    strand.Schedule(delays[i], [&ran, i]() { ran.push_back(i); });
    hi[i] = ticker.NowMicros() + delays[i];
  }
  gate.Open();
  Drain(&strand, 3000);  // Due no earlier than any task above.

  ASSERT_EQ(ran.size(), delays.size());
  for (size_t k = 0; k + 1 < ran.size(); ++k) {
    size_t a = ran[k];
    size_t b = ran[k + 1];
    // b ran right after a, so b cannot have been due strictly earlier.
    EXPECT_GE(hi[b], lo[a]) << "task " << b << " ran after " << a;
  }
  // Equal delays from one thread give non-decreasing due times in
  // submission order, so submission order decides.
  for (Time d : {Time{1000}, Time{2000}, Time{3000}}) {
    std::vector<size_t> same;
    for (size_t i : ran) {
      if (delays[i] == d) same.push_back(i);
    }
    EXPECT_EQ(same.size(), d == 1000 ? 3u : 2u);
    EXPECT_TRUE(std::is_sorted(same.begin(), same.end())) << "delay " << d;
  }
}

TEST(RealStrandTest, ConcurrentSchedulersRunEveryTaskExactlyOnce) {
  RealTicker ticker;
  RealStrand strand(&ticker, "fan-in");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  // Both touched by the worker only, until drained.
  std::vector<int> runs(kThreads * kPerThread, 0);
  std::vector<std::vector<int>> order(kThreads);
  std::vector<std::thread> schedulers;
  for (int t = 0; t < kThreads; ++t) {
    schedulers.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        strand.Schedule(0, [&, t, i]() {
          ++runs[t * kPerThread + i];
          order[t].push_back(i);
        });
      }
    });
  }
  for (std::thread& s : schedulers) s.join();
  Drain(&strand);
  strand.Stop();  // Makes executed() exact.

  for (int k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(runs[k], 1) << "task " << k;
  }
  // Zero-delay tasks from one thread keep their submission order.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(std::is_sorted(order[t].begin(), order[t].end()));
  }
  EXPECT_EQ(strand.executed(), kThreads * kPerThread + 1);
}

TEST(RealStrandTest, StopDiscardsQueuedTasksAndDropsLaterSchedules) {
  RealTicker ticker;
  RealStrand strand(&ticker, "stop");
  std::atomic<int> ran{0};
  Drain(&strand);
  constexpr Time kMinute = 60'000'000;
  for (int i = 0; i < 5; ++i) {
    strand.Schedule(kMinute, [&ran]() { ran.fetch_add(1); });
  }
  EXPECT_EQ(strand.PendingTasks(), 5);
  strand.Stop();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(strand.executed(), 1);

  strand.Schedule(0, [&ran]() { ran.fetch_add(1); });
  EXPECT_EQ(strand.PendingTasks(), 5);  // Dropped, not queued.
  strand.Stop();                        // Idempotent.
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(strand.executed(), 1);
}

TEST(RealStrandTest, ConcurrentStopsAllReturnAfterTheInFlightTask) {
  for (int round = 0; round < 20; ++round) {
    RealTicker ticker;
    RealStrand strand(&ticker, "stoppers");
    std::atomic<bool> task_done{false};
    auto entered = std::make_shared<std::promise<void>>();
    std::future<void> entered_future = entered->get_future();
    std::promise<void> open;
    std::shared_future<void> opened = open.get_future().share();
    strand.Schedule(0, [entered, opened, &task_done]() {
      entered->set_value();
      opened.wait();
      task_done.store(true);
    });
    entered_future.wait();

    std::atomic<int> returned{0};
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&]() {
        strand.Stop();
        EXPECT_TRUE(task_done.load());
        returned.fetch_add(1);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(returned.load(), 0);  // Nobody gets past the running task.
    open.set_value();
    for (std::thread& s : stoppers) s.join();
    EXPECT_EQ(returned.load(), 4);
    EXPECT_EQ(strand.executed(), 1);
  }
}

TEST(RealStrandTest, QuiescentBeyondSeesRunningAndQueuedTasks) {
  RealTicker ticker;
  RealStrand strand(&ticker, "quiet");
  EXPECT_TRUE(strand.QuiescentBeyond(ticker.NowMicros() + 1'000'000'000));

  constexpr Time kMinute = 60'000'000;
  strand.Schedule(kMinute, []() {});
  Time now = ticker.NowMicros();
  EXPECT_TRUE(strand.QuiescentBeyond(now + 1000));
  EXPECT_FALSE(strand.QuiescentBeyond(now + 2 * kMinute));

  Gate gate(&strand);  // A task is running.
  EXPECT_FALSE(strand.QuiescentBeyond(ticker.NowMicros()));
  gate.Open();
  Drain(&strand);
  // The worker finishes a task's bookkeeping just after the task returns.
  while (!strand.QuiescentBeyond(ticker.NowMicros() + 1000)) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(strand.QuiescentBeyond(ticker.NowMicros() + 2 * kMinute));
}

TEST(RealStrandTest, TimedTaskNeverRunsBeforeItsDelay) {
  RealTicker ticker;
  RealStrand strand(&ticker, "timers");
  // Only the contract's lower bound is asserted: how late a wake-up comes
  // depends on the host. The delays straddle the spin bound, so both the
  // spinning and the parking wait are covered.
  constexpr Time kBound = RealTicker::kSpinBeforeParkUs;
  for (Time delay : {Time{1}, Time{5}, Time{10}, Time{20}, kBound - 1, kBound,
                     kBound + 1, Time{100}, Time{500}, Time{1000},
                     Time{5000}}) {
    for (int rep = 0; rep < 5; ++rep) {
      Time scheduled_at = ticker.NowMicros();
      Time ran_at =
          RunOn(&strand, [&ticker]() { return ticker.NowMicros(); }, delay);
      EXPECT_GE(ran_at - scheduled_at, delay);
    }
  }
}

/// Runs `links` tasks on `strand`, each posted by the one before it and due
/// at the spin bound, then fulfils `done`.
void Chain(RealStrand* strand, int links,
           std::shared_ptr<std::promise<void>> done) {
  if (links == 0) {
    done->set_value();
    return;
  }
  strand->Schedule(RealTicker::kSpinBeforeParkUs, [strand, links, done]() {
    Chain(strand, links - 1, done);
  });
}

TEST(RealStrandTest, WorkerSpinsForNearTasksAndParksForFarOnes) {
  RealTicker ticker;
  RealStrand strand(&ticker, "waits");
  Drain(&strand);
  WorkerWaits before = ticker.waits();
  // When a link returns, the worker's front task is the next link, due
  // within the bound.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> chain_done = done->get_future();
  Chain(&strand, 20, done);
  chain_done.wait();
  Drain(&strand, 20'000);  // Far beyond the bound.
  WorkerWaits after = ticker.waits();
  EXPECT_GT(after.spun, before.spun);
  EXPECT_GT(after.parked, before.parked);
}

TEST(RealStrandTest, StartsOneWorkerPerStrandUpToTheUsableCpus) {
  RealTicker ticker;
  std::vector<std::unique_ptr<RealStrand>> strands;
  for (int i = 0; i < 6; ++i) {
    strands.push_back(std::make_unique<RealStrand>(&ticker, "w"));
    EXPECT_EQ(ticker.workers(), std::min(i + 1, UsableCpus()));
  }
  // Every strand runs, whichever worker it landed on.
  for (auto& strand : strands) Drain(strand.get());
}

TEST(RealStrandTest, StrandsOnTheirOwnWorkersRunConcurrently) {
  if (UsableCpus() < 2) GTEST_SKIP() << "needs at least 2 usable CPUs";
  RealTicker ticker;
  RealStrand a(&ticker, "a");
  RealStrand b(&ticker, "b");
  ASSERT_EQ(ticker.workers(), 2);
  Gate gate(&a);  // Holds a's worker.
  auto ran = std::make_shared<std::promise<void>>();
  std::future<void> ran_future = ran->get_future();
  b.Schedule(0, [ran]() { ran->set_value(); });
  EXPECT_EQ(ran_future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  gate.Open();
}

#ifdef __linux__
/// Restricts the calling thread to the first CPU of its affinity mask (the
/// `index`-th, counting from 0) for the object's lifetime and restores the
/// mask afterwards. A ticker built meanwhile has W = 1: all of its strands
/// share one worker. Not pinned if the mask has no such CPU.
class PinToOneCpu {
 public:
  explicit PinToOneCpu(int index = 0) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && index-- == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
        return;
      }
    }
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

TEST(RealStrandTest, StrandsSharingAWorkerKeepTheirOwnDueOrder) {
  PinToOneCpu pin;
  if (!pin.pinned()) GTEST_SKIP() << "sched_setaffinity failed";
  RealTicker ticker;
  RealStrand a(&ticker, "a");
  RealStrand b(&ticker, "b");
  ASSERT_EQ(ticker.workers(), 1);
  // b's delays run in the reverse order of a's.
  const std::vector<Time> forward = {3000, 1000, 2000, 1000, 3000, 1000, 2000};
  const std::vector<Time> delays[2] = {
      forward, std::vector<Time>(forward.rbegin(), forward.rend())};
  RealStrand* strands[2] = {&a, &b};
  // Per strand: [lo, hi] brackets each task's due time, as above, and the
  // order its tasks ran in. Touched by the worker only, until drained.
  std::vector<Time> lo[2], hi[2];
  std::vector<size_t> ran[2];
  Gate gate(&a);  // Holds the one worker, so b's tasks wait too.
  for (size_t i = 0; i < forward.size(); ++i) {
    for (int s = 0; s < 2; ++s) {
      lo[s].push_back(ticker.NowMicros() + delays[s][i]);
      strands[s]->Schedule(delays[s][i],
                           [&ran, s, i]() { ran[s].push_back(i); });
      hi[s].push_back(ticker.NowMicros() + delays[s][i]);
    }
  }
  gate.Open();
  Drain(&a, 3000);
  Drain(&b, 3000);

  for (int s = 0; s < 2; ++s) {
    ASSERT_EQ(ran[s].size(), forward.size()) << "strand " << s;
    for (size_t k = 0; k + 1 < ran[s].size(); ++k) {
      size_t first = ran[s][k];
      size_t next = ran[s][k + 1];
      EXPECT_GE(hi[s][next], lo[s][first])
          << "strand " << s << ": task " << next << " ran after " << first;
    }
    // Equal delays keep submission order within each strand.
    for (Time d : {Time{1000}, Time{2000}, Time{3000}}) {
      std::vector<size_t> same;
      for (size_t i : ran[s]) {
        if (delays[s][i] == d) same.push_back(i);
      }
      EXPECT_EQ(same.size(), d == 1000 ? 3u : 2u);
      EXPECT_TRUE(std::is_sorted(same.begin(), same.end()))
          << "strand " << s << ", delay " << d;
    }
  }
}

TEST(RealStrandTest, SharedWorkerParkedOnAFarDeadlineWakesForANearerTask) {
  PinToOneCpu pin;
  if (!pin.pinned()) GTEST_SKIP() << "sched_setaffinity failed";
  RealTicker ticker;
  RealStrand a(&ticker, "a");
  RealStrand b(&ticker, "b");
  ASSERT_EQ(ticker.workers(), 1);
  constexpr Time kMinute = 60'000'000;
  b.Schedule(kMinute, []() {});
  Drain(&b);  // The worker goes back to its queue and parks on b's minute.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  auto ran_at = std::make_shared<std::promise<Time>>();
  std::future<Time> ran_future = ran_at->get_future();
  Time scheduled_at = ticker.NowMicros();
  a.Schedule(1000, [ran_at, &ticker]() {
    ran_at->set_value(ticker.NowMicros());
  });
  ASSERT_EQ(ran_future.wait_for(std::chrono::seconds(1)),
            std::future_status::ready)
      << "a's task waited behind b's deadline";
  EXPECT_GE(ran_future.get() - scheduled_at, 1000);
  EXPECT_EQ(b.PendingTasks(), 1);
}

/// Builds a ticker and its strands while pinned to the first usable CPU, so
/// they share one worker bound to it. Then the test thread moves to the
/// second usable CPU, beside the worker, if there is one; under
/// `taskset -c 0` it shares the worker's CPU.
struct OneWorker {
  explicit OneWorker(int strands) {
    {
      PinToOneCpu pin;
      pinned = pin.pinned();
      ticker = std::make_unique<RealTicker>();
      for (int i = 0; i < strands; ++i) {
        std::string name = "s";
        name.append(std::to_string(i));
        this->strands.push_back(
            std::make_unique<RealStrand>(ticker.get(), name));
      }
    }
    beside.emplace(/*index=*/1);
  }

  /// Bounds on a task's due time, as above.
  struct Due {
    Time lo = 0;
    Time hi = 0;
  };

  /// Has `strand`'s worker post `task` to it, due at the spin bound, and
  /// returns a fifth of the bound after that: by then the worker has left
  /// its mutex and spins for the task, unless it ran late enough to run the
  /// task at once. Polls rather than blocks, since a blocked thread wakes
  /// too late to catch a spin.
  Due PostAndLetSpin(RealStrand* strand, TaskRunner::Callback task) {
    constexpr Time kBound = RealTicker::kSpinBeforeParkUs;
    Due due;  // Written by the worker before `posted`.
    std::atomic<bool> posted{false};
    strand->Schedule(0, [&, strand]() {
      due.lo = ticker->NowMicros() + kBound;
      strand->Schedule(kBound, std::move(task));
      due.hi = ticker->NowMicros() + kBound;
      posted.store(true);
    });
    while (!posted.load()) std::this_thread::yield();
    while (ticker->NowMicros() < due.hi - kBound + kBound / 5) {
      std::this_thread::yield();
    }
    return due;
  }

  std::optional<PinToOneCpu> beside;
  bool pinned = false;
  std::unique_ptr<RealTicker> ticker;
  std::vector<std::unique_ptr<RealStrand>> strands;
};

TEST(RealStrandTest, TaskPostedWhileTheWorkerSpinsRunsByItsOwnDueTime) {
  OneWorker one(1);
  if (!one.pinned) GTEST_SKIP() << "sched_setaffinity failed";
  ASSERT_EQ(one.ticker->workers(), 1);
  RealTicker& ticker = *one.ticker;
  RealStrand& strand = *one.strands[0];
  constexpr Time kBound = RealTicker::kSpinBeforeParkUs;
  for (int round = 0; round < 50; ++round) {
    // Task 0 is the one the worker spins for. Task 1, posted meanwhile, is
    // due at once in even rounds and after task 0 in odd ones: a new task
    // ends the spin either way. Touched by the worker only, until drained.
    std::vector<int> ran;
    Time ran_at[2] = {0, 0};
    auto record = [&ran, &ran_at, &ticker](int task) {
      return [&ran, &ran_at, &ticker, task]() {
        ran_at[task] = ticker.NowMicros();
        ran.push_back(task);
      };
    };
    OneWorker::Due due[2];
    due[0] = one.PostAndLetSpin(&strand, record(0));
    Time delay = round % 2 == 0 ? 0 : 2 * kBound;
    due[1].lo = ticker.NowMicros() + delay;
    strand.Schedule(delay, record(1));
    due[1].hi = ticker.NowMicros() + delay;
    Drain(&strand, 2 * kBound);

    ASSERT_EQ(ran.size(), 2u);
    // Task ran[1] ran after task ran[0], so it cannot have been due
    // strictly earlier: the worker re-reads its queue after a spin.
    EXPECT_GE(due[ran[1]].hi, due[ran[0]].lo) << "round " << round;
    for (int task = 0; task < 2; ++task) {
      EXPECT_GE(ran_at[task], due[task].lo)
          << "round " << round << ": task " << task << " ran early";
    }
  }
}

TEST(RealStrandTest, StopReturnsWhileTheWorkerSpins) {
  for (int round = 0; round < 20; ++round) {
    OneWorker one(2);
    if (!one.pinned) GTEST_SKIP() << "sched_setaffinity failed";
    ASSERT_EQ(one.ticker->workers(), 1);
    RealStrand& a = *one.strands[0];
    RealStrand& b = *one.strands[1];
    std::atomic<bool> ran{false};
    one.PostAndLetSpin(&a, [&ran]() { ran.store(true); });
    a.Stop();
    // Either the task ran before Stop, or Stop discarded it. One more task
    // ran: the one that posted it.
    bool ran_before_stop = ran.load();
    EXPECT_EQ(a.executed(), ran_before_stop ? 2 : 1);
    EXPECT_EQ(a.PendingTasks(), ran_before_stop ? 0 : 1);
    Drain(&b, 2 * RealTicker::kSpinBeforeParkUs);  // Its worker goes on.
    EXPECT_EQ(ran.load(), ran_before_stop) << "a discarded task ran";
  }
}

TEST(RealStrandTest, DestroyingTheTickerReturnsWhileTheWorkerSpins) {
  for (int round = 0; round < 20; ++round) {
    OneWorker one(1);
    if (!one.pinned) GTEST_SKIP() << "sched_setaffinity failed";
    std::atomic<bool> ran{false};
    one.PostAndLetSpin(one.strands[0].get(), [&ran]() { ran.store(true); });
    one.strands.clear();  // Stops the strand and destroys its task.
    bool ran_before_stop = ran.load();
    one.ticker.reset();  // Joins the worker.
    EXPECT_EQ(ran.load(), ran_before_stop) << "a discarded task ran";
  }
}

TEST(RealStrandTest, StopOnOneStrandLeavesItsWorkerMateRunning) {
  PinToOneCpu pin;
  if (!pin.pinned()) GTEST_SKIP() << "sched_setaffinity failed";
  RealTicker ticker;
  RealStrand a(&ticker, "a");
  RealStrand b(&ticker, "b");
  ASSERT_EQ(ticker.workers(), 1);
  std::atomic<int> ran_a{0};
  std::atomic<int> ran_b{0};
  Gate gate(&a);  // a's task is in flight when Stop(a) begins.
  for (int i = 0; i < 5; ++i) {
    a.Schedule(0, [&ran_a]() { ran_a.fetch_add(1); });
    b.Schedule(0, [&ran_b]() { ran_b.fetch_add(1); });
  }
  std::thread stopper([&a]() { a.Stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.Open();
  stopper.join();
  Drain(&b);

  EXPECT_EQ(ran_a.load(), 0);
  EXPECT_EQ(a.executed(), 1);
  EXPECT_EQ(a.PendingTasks(), 5);
  EXPECT_EQ(ran_b.load(), 5);
  a.Schedule(0, [&ran_a]() { ran_a.fetch_add(1); });  // Dropped.
  Drain(&b);
  EXPECT_EQ(ran_a.load(), 0);
  b.Stop();                    // Makes executed() exact.
  EXPECT_EQ(b.executed(), 7);  // Five tasks and two drains.
}

TEST(RealStrandTest, DestroyingOneStrandLeavesItsWorkerMateWorking) {
  PinToOneCpu pin;
  if (!pin.pinned()) GTEST_SKIP() << "sched_setaffinity failed";
  RealTicker ticker;
  auto a = std::make_unique<RealStrand>(&ticker, "a");
  RealStrand b(&ticker, "b");
  ASSERT_EQ(ticker.workers(), 1);
  constexpr Time kMinute = 60'000'000;
  auto token = std::make_shared<int>(0);  // Held by a's queued callbacks.
  std::atomic<int> ran_b{0};
  for (int i = 0; i < 3; ++i) {
    a->Schedule(kMinute, [token]() {});
    b.Schedule(5000, [&ran_b]() { ran_b.fetch_add(1); });
  }
  a->Stop();
  EXPECT_EQ(token.use_count(), 4);  // Discarded, not yet destroyed.
  a.reset();
  EXPECT_EQ(token.use_count(), 1);  // Destroyed with the strand.

  Drain(&b, 5000);
  EXPECT_EQ(ran_b.load(), 3);
  EXPECT_EQ(RunOn(&b, []() { return 42; }), 42);
}
#endif  // __linux__

#ifdef __linux__
int TimerSlackNs() { return prctl(PR_GET_TIMERSLACK, 0UL, 0UL, 0UL, 0UL); }

TEST(RealStrandTest, WorkerRunsWithFineTimerSlack) {
  RealTicker ticker;
  RealStrand strand(&ticker, "slack");
  int ns = RunOn(&strand, TimerSlackNs);
  EXPECT_GE(ns, 0);
  EXPECT_LE(ns, 1000);
}

TEST(RealStrandTest, SetFineTimerSlackAppliesToTheCallingThread) {
  int after = -1;
  std::thread([&after]() {
    SetFineTimerSlack();
    after = TimerSlackNs();
  }).join();
  EXPECT_GE(after, 0);
  EXPECT_LE(after, 1000);
}
#endif  // __linux__

}  // namespace
}  // namespace mdbs::sim
