#include "closed_loop.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>

namespace wallbench {

namespace {

// A run in which no callback arrives for this long is reported as hung; the
// process exits at once, since callbacks still queued in the program would
// outlive the generator's state.
constexpr int64_t kStallSeconds = 60;

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SpinThreadCpu(int64_t ns) {
  const double until = ClockSeconds(CLOCK_THREAD_CPUTIME_ID) +
                       static_cast<double>(ns) * 1e-9;
  while (ClockSeconds(CLOCK_THREAD_CPUTIME_ID) < until) {
  }
}

struct Slot {
  int64_t submit_ns = 0;
  int64_t in_flight_seq = -1;
  size_t cursor = 0;
};

// State shared by the generator thread and the completion callbacks (which
// run on the GTM strand, one at a time). Callback-only fields are written
// before the callback takes `mu`, and the generator reads them only after
// it has seen every callback's decrement of `outstanding` under `mu`.
struct LoopState {
  const LoopOptions* options = nullptr;
  std::vector<Slot> slots;
  clockid_t generator_clock{};

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;    // guarded by mu
  int64_t outstanding = 0;  // guarded by mu
  bool stop = false;        // guarded by mu

  // Callback-only.
  enum class Phase { kWarmup, kMeasure, kDone } phase = Phase::kWarmup;
  int64_t warm_end_ns = 0;
  int64_t measure_end_ns = 0;
  int64_t t0_ns = 0;
  double cpu0 = 0;
  double gen0 = 0;
  LoopResult result;
};

void OnFinished(LoopState* state, int client, int64_t seq,
                const mdbs::gtm::GlobalTxnResult& outcome) {
  ScopedSpan span(state->options->spans, SpanName::kCallback, seq);
  const int64_t now = NowNs();
  LoopResult& r = state->result;
  Slot& slot = state->slots[static_cast<size_t>(client)];
  ++r.callbacks;
  if (slot.in_flight_seq != seq) {
    ++r.duplicate_callbacks;
    return;
  }
  slot.in_flight_seq = -1;
  const bool ok = outcome.status.ok();
  if (ok) {
    ++r.committed;
  } else {
    ++r.failed;
    if (!outcome.retry_safe) ++r.partial_failed;
  }

  bool stop_now = false;
  if (state->options->measure_s > 0) {
    if (state->phase == LoopState::Phase::kWarmup &&
        now >= state->warm_end_ns) {
      state->phase = LoopState::Phase::kMeasure;
      state->t0_ns = now;
      state->cpu0 = ProcessCpuSeconds();
      state->gen0 = ClockSeconds(state->generator_clock);
    } else if (state->phase == LoopState::Phase::kMeasure &&
               now >= state->measure_end_ns) {
      state->phase = LoopState::Phase::kDone;
      r.interval_complete = true;
      r.interval_s = static_cast<double>(now - state->t0_ns) * 1e-9;
      r.process_cpu_s = ProcessCpuSeconds() - state->cpu0;
      r.generator_cpu_s = ClockSeconds(state->generator_clock) - state->gen0;
      stop_now = true;
    } else if (state->phase == LoopState::Phase::kMeasure) {
      if (ok) {
        ++r.interval_committed;
        const size_t window =
            static_cast<size_t>((now - state->t0_ns) / kWindowNs);
        r.latencies_ns.push_back(now - slot.submit_ns);
        if (r.window_commits.size() <= window) {
          r.window_commits.resize(window + 1, 0);
        }
        ++r.window_commits[window];
      } else {
        ++r.interval_failed;
      }
    }
  }

  // The last decrement may let the generator return and destroy `state`,
  // so notify under the lock and touch nothing of it afterwards.
  const int64_t spin_ns = state->options->probe_spin_ns;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->ready.push_back(client);
    --state->outstanding;
    if (stop_now) state->stop = true;
    state->cv.notify_one();
  }
  // The generator may already be submitting the next transaction, which
  // then queues behind this spin on the GTM strand.
  if (spin_ns > 0) SpinThreadCpu(spin_ns);
}

}  // namespace

int BindCpus(int count) {
  // The first call, made before any binding, records the start-up set.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int bound = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && bound < count; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++bound;
    }
  }
  if (bound == 0 || sched_setaffinity(0, sizeof(chosen), &chosen) != 0) {
    return 0;
  }
  return bound;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

LoopResult RunClosedLoop(mdbs::Mdbs* system, const InputPool& pool,
                         const LoopOptions& options) {
  LoopState state;
  state.options = &options;
  state.slots.resize(pool.per_client.size());
  pthread_getcpuclockid(pthread_self(), &state.generator_clock);
  if (options.measure_s > 0) {
    state.result.latencies_ns.reserve(1 << 16);
  }
  const int64_t start_ns = NowNs();
  state.warm_end_ns = start_ns + static_cast<int64_t>(options.warmup_s * 1e9);
  state.measure_end_ns =
      state.warm_end_ns + static_cast<int64_t>(options.measure_s * 1e9);

  int64_t next_seq = 0;
  auto submit = [&](int client) {
    Slot& slot = state.slots[static_cast<size_t>(client)];
    const std::vector<CompactTxn>& stream =
        pool.per_client[static_cast<size_t>(client)];
    if (slot.cursor == stream.size()) {
      slot.cursor = 0;
      ++state.result.pool_wraps;
    }
    mdbs::gtm::GlobalTxnSpec spec = stream[slot.cursor++].ToSpec();
    const int64_t seq = next_seq++;
    slot.in_flight_seq = seq;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      ++state.outstanding;
    }
    ++state.result.submitted;
    ScopedSpan span(options.spans, SpanName::kSubmit, seq);
    slot.submit_ns = NowNs();
    system->SubmitGlobal(std::move(spec),
                         [&state, client, seq](const mdbs::gtm::GlobalTxnResult& r) {
                           OnFinished(&state, client, seq, r);
                         });
  };

  auto may_submit = [&]() {
    return options.measure_s > 0 || state.result.submitted < options.max_submits;
  };
  for (size_t c = 0; c < pool.per_client.size() && may_submit(); ++c) {
    submit(static_cast<int>(c));
  }

  std::vector<int> ready;
  int64_t last_progress_ns = NowNs();
  while (true) {
    bool stopping = false;
    int64_t outstanding = 0;
    {
      std::unique_lock<std::mutex> lock(state.mu);
      state.cv.wait_for(lock, std::chrono::milliseconds(200), [&]() {
        return !state.ready.empty() || state.outstanding == 0;
      });
      ready.assign(state.ready.begin(), state.ready.end());
      state.ready.clear();
      stopping = state.stop;
      outstanding = state.outstanding;
    }
    const int64_t now = NowNs();
    if (!ready.empty()) last_progress_ns = now;
    if (now - last_progress_ns > kStallSeconds * 1'000'000'000) {
      std::fprintf(stderr, "wallbench: no transaction finished for %llds; "
                   "%lld still in flight\n",
                   static_cast<long long>(kStallSeconds),
                   static_cast<long long>(outstanding));
      std::_Exit(3);
    }
    if (!stopping) {
      for (int client : ready) {
        if (!may_submit()) break;
        submit(client);
        ++outstanding;
      }
    }
    if (outstanding == 0) break;
  }
  state.result.run_wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  for (const Slot& slot : state.slots) {
    if (slot.in_flight_seq != -1) ++state.result.left_in_flight;
  }
  return std::move(state.result);
}

double MeasureSetup(const mdbs::MdbsConfig& config, const InputPool& pool,
                    int rep) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool committed = false;
  int64_t first_commit_ns = 0;

  const int64_t start_ns = NowNs();
  mdbs::Mdbs system(config);
  const size_t clients = pool.per_client.size();
  const std::vector<CompactTxn>& stream =
      pool.per_client[static_cast<size_t>(rep) % clients];
  for (size_t i = (static_cast<size_t>(rep) / clients) % stream.size();
       !committed; i = (i + 1) % stream.size()) {
    done = false;
    system.SubmitGlobal(stream[i].ToSpec(),
                        [&](const mdbs::gtm::GlobalTxnResult& r) {
                          const int64_t now = NowNs();
                          std::lock_guard<std::mutex> lock(mu);
                          if (r.status.ok()) {
                            committed = true;
                            first_commit_ns = now;
                          }
                          done = true;
                          cv.notify_one();
                        });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done; });
  }
  system.FinishThreadedRun();
  return static_cast<double>(first_commit_ns - start_ns) * 1e-9;
}

}  // namespace wallbench
