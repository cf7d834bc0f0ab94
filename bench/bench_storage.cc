// E17 — Log-device append latency: the append pattern of a durable site's
// WAL, 48-byte records with a 250 KiB checkpoint after every 256 of them,
// until the log holds --mib MiB. It runs against storage::MemLogDevice,
// which keeps its bytes in fixed-size chunks, and against the flat device
// it replaced: one std::vector<uint8_t> grown by insert, which copies the
// whole log every time its capacity doubles.
//
// Each append is timed on its own. A repetition reports the total append
// time, the p99.9 and the worst single append; the table and
// BENCH_storage.json give the median, min and max of each over --reps
// repetitions. Every repetition runs in a fresh child process, so no run
// inherits pages or malloc state another run left behind. Pin the bench to
// one CPU (`taskset -c 0`) to match a federation sharing one worker.
//
// Expected shape: the flat device's worst appends are the doublings, tens
// to hundreds of milliseconds each at this size; the chunked device's worst
// append stays in the low milliseconds, and its total is lower because no
// byte is copied twice.
//
//   bench_storage [--mib=200] [--reps=5] [--json=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "bench_json.h"
#include "storage/log_device.h"

namespace {

using mdbs::Status;
using mdbs::storage::LogDevice;
using mdbs::storage::MemLogDevice;

constexpr size_t kRecordBytes = 48;
constexpr size_t kCheckpointBytes = 250 * 1024;
constexpr int kRecordsPerCheckpoint = 256;

/// The layout MemLogDevice had before it was chunked, kept as the baseline.
class FlatVectorLogDevice final : public LogDevice {
 public:
  Status Append(const void* data, size_t size) override {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), bytes, bytes + size);
    return Status::OK();
  }
  int64_t Size() const override { return static_cast<int64_t>(bytes_.size()); }
  Status ReadAll(std::vector<uint8_t>* out) const override {
    *out = bytes_;
    return Status::OK();
  }
  void Truncate(int64_t size) override {
    if (size >= 0 && static_cast<size_t>(size) < bytes_.size()) {
      bytes_.resize(static_cast<size_t>(size));
    }
  }

 private:
  std::vector<uint8_t> bytes_;
};

/// One repetition's figures.
struct Rep {
  double total_ms = 0;
  double p999_us = 0;
  double worst_ms = 0;
  double appends = 0;
};

Rep AppendUntil(LogDevice* device, int64_t target_bytes) {
  const std::vector<uint8_t> record(kRecordBytes, 0x5A);
  const std::vector<uint8_t> checkpoint(kCheckpointBytes, 0xC3);
  std::vector<int64_t> ns;
  ns.reserve(static_cast<size_t>(target_bytes / kCheckpointBytes + 1) *
             (kRecordsPerCheckpoint + 1));
  auto timed = [&](const std::vector<uint8_t>& bytes) {
    auto start = std::chrono::steady_clock::now();
    Status status = device->Append(bytes.data(), bytes.size());
    auto end = std::chrono::steady_clock::now();
    if (!status.ok()) std::abort();
    ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  };
  while (device->Size() < target_bytes) {
    for (int i = 0; i < kRecordsPerCheckpoint; ++i) timed(record);
    timed(checkpoint);
  }
  Rep rep;
  rep.appends = static_cast<double>(ns.size());
  for (int64_t t : ns) rep.total_ms += static_cast<double>(t) / 1e6;
  std::sort(ns.begin(), ns.end());
  size_t p999 = (ns.size() * 999 + 999) / 1000 - 1;  // ceil(0.999 n) - 1
  rep.p999_us = static_cast<double>(ns[p999]) / 1e3;
  rep.worst_ms = static_cast<double>(ns.back()) / 1e6;
  return rep;
}

/// Runs one repetition in a child process and reads its figures back.
Rep RunIsolated(bool chunked, int64_t target_bytes) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) std::abort();
  pid_t pid = fork();
  if (pid < 0) std::abort();
  if (pid == 0) {
    close(fds[0]);
    Rep rep;
    if (chunked) {
      MemLogDevice device;
      rep = AppendUntil(&device, target_bytes);
    } else {
      FlatVectorLogDevice device;
      rep = AppendUntil(&device, target_bytes);
    }
    bool ok = write(fds[1], &rep, sizeof(rep)) ==
              static_cast<ssize_t>(sizeof(rep));
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  Rep rep;
  bool ok = read(fds[0], &rep, sizeof(rep)) ==
            static_cast<ssize_t>(sizeof(rep));
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!ok || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "bench_storage: a repetition failed\n");
    std::exit(1);
  }
  return rep;
}

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  double median = n % 2 == 1 ? values[n / 2]
                             : (values[n / 2 - 1] + values[n / 2]) / 2;
  return {median, values.front(), values.back()};
}

int64_t IntFlag(int argc, char** argv, const std::string& name,
                int64_t fallback) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::atoll(arg.c_str() + prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t mib = std::max<int64_t>(1, IntFlag(argc, argv, "mib", 200));
  const int reps =
      static_cast<int>(std::max<int64_t>(1, IntFlag(argc, argv, "reps", 5)));
  const int64_t target = mib * 1024 * 1024;

  std::printf("E17 — log-device appends: %zu B records, a %zu KiB "
              "checkpoint every %d, up to %lld MiB; %d reps per device\n\n",
              kRecordBytes, kCheckpointBytes / 1024, kRecordsPerCheckpoint,
              static_cast<long long>(mib), reps);
  std::vector<std::vector<Rep>> runs(2);  // [0] flat, [1] chunked.
  for (int r = 0; r < reps; ++r) {
    // Alternate which device goes first, so drift hits both alike.
    for (int k = 0; k < 2; ++k) {
      bool chunked = (r + k) % 2 == 1;
      runs[chunked ? 1 : 0].push_back(RunIsolated(chunked, target));
    }
  }

  mdbs::bench::BenchReport results("storage");
  std::printf("%-8s %9s  %-24s %-24s %-24s\n", "device", "appends",
              "total ms (med [min-max])", "p99.9 us (med [min-max])",
              "worst ms (med [min-max])");
  for (int d = 0; d < 2; ++d) {
    const char* name = d == 1 ? "chunked" : "flat";
    std::vector<double> total, p999, worst;
    for (const Rep& rep : runs[d]) {
      total.push_back(rep.total_ms);
      p999.push_back(rep.p999_us);
      worst.push_back(rep.worst_ms);
    }
    Spread t = SpreadOf(total), p = SpreadOf(p999), w = SpreadOf(worst);
    std::printf("%-8s %9.0f  %7.1f [%6.1f-%6.1f]  %7.1f [%6.1f-%6.1f]  "
                "%7.2f [%6.2f-%6.2f]\n",
                name, runs[d].front().appends, t.median, t.min, t.max,
                p.median, p.min, p.max, w.median, w.min, w.max);
    results.AddRow()
        .Set("device", name)
        .Set("mib", static_cast<double>(mib))
        .Set("reps", static_cast<double>(reps))
        .Set("appends", runs[d].front().appends)
        .Set("total_ms_median", t.median)
        .Set("total_ms_min", t.min)
        .Set("total_ms_max", t.max)
        .Set("p999_us_median", p.median)
        .Set("p999_us_min", p.min)
        .Set("p999_us_max", p.max)
        .Set("worst_ms_median", w.median)
        .Set("worst_ms_min", w.min)
        .Set("worst_ms_max", w.max);
  }
  results.WriteFromArgs(argc, argv);
  return 0;
}
