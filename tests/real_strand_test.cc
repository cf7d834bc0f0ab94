#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#ifdef __linux__
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
  // depends on the host.
  for (Time delay : {Time{1}, Time{5}, Time{10}, Time{20}, Time{100},
                     Time{1000}, Time{5000}}) {
    for (int rep = 0; rep < 5; ++rep) {
      Time scheduled_at = ticker.NowMicros();
      Time ran_at =
          RunOn(&strand, [&ticker]() { return ticker.NowMicros(); }, delay);
      EXPECT_GE(ran_at - scheduled_at, delay);
    }
  }
}

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
