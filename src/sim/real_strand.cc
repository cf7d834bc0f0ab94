#include "sim/real_strand.h"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/logging.h"

namespace mdbs::sim {

void SetFineTimerSlack() {
#ifdef __linux__
  // 1 ns is the smallest slack prctl accepts; 0 would restore the default.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

RealStrand::RealStrand(const RealTicker* ticker, std::string name)
    : ticker_(ticker), name_(std::move(name)) {
  MDBS_CHECK(ticker_ != nullptr);
  worker_ = std::thread([this]() { ThreadMain(); });
}

RealStrand::~RealStrand() { Stop(); }

void RealStrand::Schedule(Time delay, Callback cb) {
  MDBS_CHECK(delay >= 0) << "negative delay on strand " << name_;
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return;
  queue_.push_back(Task{ticker_->NowMicros() + delay, next_seq_++,
                        std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  cv_.notify_all();
}

bool RealStrand::QuiescentBeyond(Time horizon) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_task_) return false;
  return queue_.empty() || queue_.front().at > horizon;
}

void RealStrand::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_.notify_all();
  }
  // A concurrent second caller blocks here until the first one has joined.
  std::call_once(join_once_, [this]() { worker_.join(); });
}

int64_t RealStrand::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

void RealStrand::ThreadMain() {
  SetFineTimerSlack();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    if (queue_.empty()) {
      cv_.wait(lock);
      continue;
    }
    Time due = queue_.front().at;
    if (due > ticker_->NowMicros()) {
      cv_.wait_until(lock, ticker_->ToTimePoint(due));
      continue;
    }
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Task task = std::move(queue_.back());
    queue_.pop_back();
    running_task_ = true;
    lock.unlock();
    task.cb();
    lock.lock();
    running_task_ = false;
    ++executed_;
  }
}

}  // namespace mdbs::sim
