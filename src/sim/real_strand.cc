#include "sim/real_strand.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#ifdef __linux__
#include <sched.h>
#include <sys/prctl.h>
#endif

#include "common/logging.h"

namespace mdbs::sim {
namespace {

/// Tells the CPU the caller is in a spin-wait loop, so it spends less power
/// and yields pipeline resources to a sibling hyperthread.
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

void SetFineTimerSlack() {
#ifdef __linux__
  // 1 ns is the smallest slack prctl accepts; 0 would restore the default.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

int UsableCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// One thread draining one timed task queue shared by the strands assigned
/// to it. Strand bookkeeping (`stopping_`, `running_task_`, ...) is guarded
/// by `mu`.
class RealTicker::Worker {
 public:
  using Callback = TaskRunner::Callback;

  explicit Worker(const RealTicker* ticker)
      : ticker_(ticker), thread_([this]() { Run(); }) {}

  /// Joins the thread. Every strand on this worker is gone by now.
  ~Worker() {
    {
      std::lock_guard<std::mutex> lock(mu);
      MDBS_CHECK(queue_.empty()) << "ticker destroyed before its strands";
      shutting_down_ = true;
      cv_.notify_all();
    }
    thread_.join();
  }

  /// Queues `cb` for `strand` at `at`. Caller holds `mu`.
  void Push(RealStrand* strand, Time at, Callback cb) {
    queue_.push_back(Task{at, next_seq_++, strand, std::move(cb)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    pushes_.fetch_add(1, std::memory_order_relaxed);  // Ends a spin.
    cv_.notify_all();
  }

  /// Moves `strand`'s queued callbacks into `out`. Caller holds `mu`.
  void Discard(const RealStrand* strand, std::vector<Callback>* out) {
    auto not_mine = [strand](const Task& task) {
      return task.strand != strand;
    };
    auto mine = std::partition(queue_.begin(), queue_.end(), not_mine);
    for (auto it = mine; it != queue_.end(); ++it) {
      out->push_back(std::move(it->cb));
    }
    queue_.erase(mine, queue_.end());
    std::make_heap(queue_.begin(), queue_.end(), Later{});
  }

  /// True if one of `strand`'s queued tasks is due at or before `horizon`.
  /// Caller holds `mu`.
  bool HasTaskDueBy(const RealStrand* strand, Time horizon) const {
    return std::any_of(queue_.begin(), queue_.end(), [&](const Task& task) {
      return task.strand == strand && task.at <= horizon;
    });
  }

  bool OnThisWorker() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  /// Adds this worker's wait counts to `sum`. Caller holds `mu`.
  void AddWaits(WorkerWaits* sum) const {
    sum->spun += spun_waits_;
    sum->parked += parked_waits_;
  }

  std::mutex mu;

 private:
  struct Task {
    Time at;
    int64_t seq;
    RealStrand* strand;
    Callback cb;
  };
  /// Min-heap order on (at, seq) for std::push_heap/pop_heap.
  struct Later {
    bool operator()(const Task& a, const Task& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void Run() {
    SetFineTimerSlack();
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (shutting_down_) return;
      if (queue_.empty()) {
        ++parked_waits_;
        cv_.wait(lock);
        continue;
      }
      Time due = queue_.front().at;
      Time now = ticker_->NowMicros();
      if (due > now) {
        if (due - now <= kSpinBeforeParkUs) {
          ++spun_waits_;
          SpinUntil(due, lock);
        } else {
          ++parked_waits_;
          cv_.wait_until(lock, ticker_->ToTimePoint(due));
        }
        continue;
      }
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      RealStrand* strand = queue_.back().strand;
      Callback cb = std::move(queue_.back().cb);
      queue_.pop_back();
      strand->running_task_ = true;
      --strand->pending_;
      lock.unlock();
      cb();
      cb = nullptr;  // Captures die before Stop can see the strand idle.
      lock.lock();
      strand->running_task_ = false;
      ++strand->executed_;
      if (strand->stopping_) strand->idle_.notify_all();
    }
  }

  /// Releases `lock` and busy-waits until `due` or until Push queues a
  /// task, then relocks; the caller re-reads the queue. `due` is at most
  /// kSpinBeforeParkUs away, so a spin delays shutdown no longer than that.
  void SpinUntil(Time due, std::unique_lock<std::mutex>& lock) {
    uint64_t seen = pushes_.load(std::memory_order_relaxed);
    lock.unlock();
    while (ticker_->NowMicros() < due &&
           pushes_.load(std::memory_order_relaxed) == seen) {
      CpuRelax();
    }
    lock.lock();
  }

  const RealTicker* ticker_;
  std::condition_variable cv_;
  std::vector<Task> queue_;  // Heap ordered by Later.
  int64_t next_seq_ = 0;
  bool shutting_down_ = false;
  int64_t spun_waits_ = 0;
  int64_t parked_waits_ = 0;
  std::atomic<uint64_t> pushes_{0};  // Bumped under mu, read while spinning.
  std::thread thread_;  // Last: starts once the members above exist.
};

RealTicker::RealTicker()
    : epoch_(std::chrono::steady_clock::now()), max_workers_(UsableCpus()) {}

RealTicker::~RealTicker() = default;

int RealTicker::workers() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return static_cast<int>(workers_.size());
}

WorkerWaits RealTicker::waits() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  WorkerWaits sum;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    std::lock_guard<std::mutex> worker_lock(worker->mu);
    worker->AddWaits(&sum);
  }
  return sum;
}

RealTicker::Worker* RealTicker::AssignWorker() {
  std::lock_guard<std::mutex> lock(workers_mu_);
  if (workers_.size() < static_cast<size_t>(max_workers_)) {
    workers_.push_back(std::make_unique<Worker>(this));
    return workers_.back().get();
  }
  return workers_[next_worker_++ % workers_.size()].get();
}

RealStrand::RealStrand(RealTicker* ticker, std::string name)
    : ticker_(ticker), worker_(nullptr), name_(std::move(name)) {
  MDBS_CHECK(ticker != nullptr);
  worker_ = ticker->AssignWorker();
}

RealStrand::~RealStrand() { Stop(); }

void RealStrand::Schedule(Time delay, Callback cb) {
  MDBS_CHECK(delay >= 0) << "negative delay on strand " << name_;
  std::lock_guard<std::mutex> lock(worker_->mu);
  if (stopping_) return;
  ++pending_;
  worker_->Push(this, ticker_->NowMicros() + delay, std::move(cb));
}

bool RealStrand::QuiescentBeyond(Time horizon) const {
  std::lock_guard<std::mutex> lock(worker_->mu);
  if (running_task_) return false;
  return !worker_->HasTaskDueBy(this, horizon);
}

void RealStrand::Stop() {
  std::unique_lock<std::mutex> lock(worker_->mu);
  MDBS_CHECK(!(running_task_ && worker_->OnThisWorker()))
      << "strand " << name_ << " stopped from its own task";
  if (!stopping_) {
    stopping_ = true;
    worker_->Discard(this, &discarded_);
  }
  idle_.wait(lock, [this]() { return !running_task_; });
}

int64_t RealStrand::executed() const {
  std::lock_guard<std::mutex> lock(worker_->mu);
  return executed_;
}

int64_t RealStrand::PendingTasks() const {
  std::lock_guard<std::mutex> lock(worker_->mu);
  return pending_;
}

}  // namespace mdbs::sim
