// E17 — Log-device append latency: the append pattern of a durable site's
// WAL, 48-byte records with a 250 KiB checkpoint after every 256 of them,
// until --mib MiB have been appended. It runs against three devices:
//
//   flat             one std::vector<uint8_t> grown by insert, which copies
//                    the whole log every time its capacity doubles (the
//                    layout storage::MemLogDevice replaced);
//   chunked          storage::MemLogDevice keeping every byte;
//   chunked_discard  storage::MemLogDevice discarding everything before
//                    each checkpoint once it is appended, as the site WAL
//                    does (storage::WalWriter); the discard is timed with
//                    the checkpoint's append.
//
// Each append is timed on its own. A repetition reports the total append
// time, the p99.9 and the worst single append, and the most bytes the
// device held at once; the table and BENCH_storage.json give the median,
// min and max of each timing over --reps repetitions. Every repetition runs
// in a fresh child process, so no run inherits pages or malloc state
// another run left behind. Pin the bench to one CPU (`taskset -c 0`) to
// match a federation sharing one worker.
//
// Expected shape: the flat device's worst appends are the doublings, tens
// to hundreds of milliseconds each at this size; the chunked device's worst
// append stays in the low milliseconds, and its total is lower because no
// byte is copied twice. The discarding device's peak is two checkpoints
// and the records between them (512 KiB, just before a discard) whatever
// --mib is, and it reuses the chunks it frees, so its total is lower
// still.
//
// Then the layer costs of a checkpoint frame, in this process:
//
//   crc32              ns per byte of storage::Crc32 over spans of 64 B,
//                      4 KiB and 256 KiB, through the slice-by-8 tables
//                      (Crc32Tables) and through the carry-less-multiply
//                      kernel Crc32 takes where the CPU has PCLMULQDQ (no
//                      row where it has not);
//   checkpoint_append  microseconds per storage::WalWriter::Append of a
//                      250 KiB checkpoint image (8,000 items and 8,000
//                      committed transactions, a durable site's shape):
//                      field encoding, CRC, the device copy and the
//                      discard below the frame.
//
// Each repetition gives one figure per cell (the median append, or the
// total time over the bytes); the table and JSON give the median, min and
// max over --reps repetitions. Expected shape: the kernel runs at memory
// speed, several times the tables' ns per byte from 4 KiB up; at 64 B the
// fixed cost of the reduction narrows the gap.
//
//   bench_storage [--mib=200] [--reps=5] [--json=PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "storage/framing.h"
#include "storage/log_device.h"
#include "storage/wal.h"

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

enum class Device { kFlat, kChunked, kChunkedDiscard };
constexpr Device kDevices[] = {Device::kFlat, Device::kChunked,
                               Device::kChunkedDiscard};

const char* DeviceName(Device device) {
  switch (device) {
    case Device::kFlat:
      return "flat";
    case Device::kChunked:
      return "chunked";
    case Device::kChunkedDiscard:
      return "chunked_discard";
  }
  return "?";
}

/// One repetition's figures.
struct Rep {
  double total_ms = 0;
  double p999_us = 0;
  double worst_ms = 0;
  double appends = 0;
  double peak_retained_bytes = 0;
};

/// Appends the WAL pattern until `target_bytes` have been appended; with
/// `discard`, everything before each checkpoint is given up once the
/// checkpoint is on the device.
Rep AppendUntil(LogDevice* device, int64_t target_bytes, bool discard) {
  const std::vector<uint8_t> record(kRecordBytes, 0x5A);
  const std::vector<uint8_t> checkpoint(kCheckpointBytes, 0xC3);
  std::vector<int64_t> ns;
  ns.reserve(static_cast<size_t>(target_bytes / kCheckpointBytes + 1) *
             (kRecordsPerCheckpoint + 1));
  int64_t appended = 0;
  int64_t peak = 0;
  auto timed = [&](const std::vector<uint8_t>& bytes, bool cut) {
    const int64_t size = static_cast<int64_t>(bytes.size());
    auto start = std::chrono::steady_clock::now();
    Status status = device->Append(bytes.data(), bytes.size());
    peak = std::max(peak, device->Size());
    if (cut) device->DiscardPrefix(device->Size() - size);
    auto end = std::chrono::steady_clock::now();
    if (!status.ok()) std::abort();
    appended += size;
    ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
  };
  while (appended < target_bytes) {
    for (int i = 0; i < kRecordsPerCheckpoint; ++i) timed(record, false);
    timed(checkpoint, discard);
  }
  Rep rep;
  rep.peak_retained_bytes = static_cast<double>(peak);
  rep.appends = static_cast<double>(ns.size());
  for (int64_t t : ns) rep.total_ms += static_cast<double>(t) / 1e6;
  std::sort(ns.begin(), ns.end());
  size_t p999 = (ns.size() * 999 + 999) / 1000 - 1;  // ceil(0.999 n) - 1
  rep.p999_us = static_cast<double>(ns[p999]) / 1e3;
  rep.worst_ms = static_cast<double>(ns.back()) / 1e6;
  return rep;
}

/// Runs one repetition in a child process and reads its figures back.
Rep RunIsolated(Device kind, int64_t target_bytes) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) std::abort();
  pid_t pid = fork();
  if (pid < 0) std::abort();
  if (pid == 0) {
    close(fds[0]);
    Rep rep;
    if (kind == Device::kFlat) {
      FlatVectorLogDevice device;
      rep = AppendUntil(&device, target_bytes, false);
    } else {
      MemLogDevice device;
      rep = AppendUntil(&device, target_bytes,
                        kind == Device::kChunkedDiscard);
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

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Nanoseconds per byte of `crc` over `span`-byte spans, 32 MiB in all.
template <typename Crc>
double CrcNsPerByte(Crc crc, const std::vector<uint8_t>& buffer,
                    size_t span) {
  const size_t calls = std::max<size_t>(1, (size_t{32} << 20) / span);
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) {
    // Vary the alignment; keep every call.
    benchmark::DoNotOptimize(crc(buffer.data() + (i % 8), span));
  }
  const double seconds = SecondsSince(start);
  return seconds * 1e9 / static_cast<double>(calls * span);
}

/// A 250 KiB checkpoint image: 8,000 items and 8,000 committed
/// transactions.
mdbs::storage::WalRecord CheckpointRecord() {
  mdbs::storage::WalRecord rec;
  rec.type = mdbs::storage::WalRecordType::kCheckpoint;
  rec.checkpoint.clock = 1;
  for (int64_t i = 0; i < 8'000; ++i) {
    rec.checkpoint.items.push_back({i, i * 7 + 1, 100'000 + i});
    rec.checkpoint.committed.push_back(100'000 + 2 * i);
  }
  return rec;
}

/// The median microseconds of 50 checkpoint appends.
double CheckpointAppendUs(const mdbs::storage::WalRecord& rec) {
  MemLogDevice device;
  mdbs::storage::WalWriter writer(&device);
  std::vector<double> us;
  for (int i = 0; i < 50; ++i) {
    auto start = std::chrono::steady_clock::now();
    writer.Append(rec);
    us.push_back(SecondsSince(start) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
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
              "checkpoint every %d, %lld MiB appended; %d reps per "
              "device\n\n",
              kRecordBytes, kCheckpointBytes / 1024, kRecordsPerCheckpoint,
              static_cast<long long>(mib), reps);
  constexpr int kNumDevices = std::size(kDevices);
  std::vector<std::vector<Rep>> runs(kNumDevices);  // Indexed like kDevices.
  for (int r = 0; r < reps; ++r) {
    // Rotate which device goes first, so drift hits all alike.
    for (int k = 0; k < kNumDevices; ++k) {
      int d = (r + k) % kNumDevices;
      runs[d].push_back(RunIsolated(kDevices[d], target));
    }
  }

  mdbs::bench::BenchReport results("storage");
  std::printf("%-15s %9s %10s  %-24s %-24s %-24s\n", "device", "appends",
              "peak KiB", "total ms (med [min-max])",
              "p99.9 us (med [min-max])", "worst ms (med [min-max])");
  for (int d = 0; d < kNumDevices; ++d) {
    const char* name = DeviceName(kDevices[d]);
    // Appends and the peak are the same in every repetition.
    const double peak = runs[d].front().peak_retained_bytes;
    std::vector<double> total, p999, worst;
    for (const Rep& rep : runs[d]) {
      total.push_back(rep.total_ms);
      p999.push_back(rep.p999_us);
      worst.push_back(rep.worst_ms);
    }
    Spread t = SpreadOf(total), p = SpreadOf(p999), w = SpreadOf(worst);
    std::printf("%-15s %9.0f %10.0f  %7.1f [%6.1f-%6.1f]  "
                "%7.1f [%6.1f-%6.1f]  %7.2f [%6.2f-%6.2f]\n",
                name, runs[d].front().appends, peak / 1024, t.median, t.min,
                t.max, p.median, p.min, p.max, w.median, w.min, w.max);
    results.AddRow()
        .Set("device", name)
        .Set("mib", static_cast<double>(mib))
        .Set("reps", static_cast<double>(reps))
        .Set("appends", runs[d].front().appends)
        .Set("peak_retained_bytes", peak)
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

  std::printf("\nCRC-32, ns per byte (med [min-max]):\n");
  std::vector<uint8_t> buffer((256 << 10) + 8);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  struct CrcPath {
    const char* name;
    uint32_t (*crc)(const void*, size_t);
  };
  std::vector<CrcPath> paths = {{"tables", mdbs::storage::Crc32Tables}};
  if (mdbs::storage::Crc32UsesCarrylessMultiply()) {
    paths.push_back({"carryless", mdbs::storage::Crc32});
  } else {
    std::printf("  (no carry-less kernel on this CPU: tables only)\n");
  }
  for (const CrcPath& path : paths) {
    for (size_t span : {size_t{64}, size_t{4} << 10, size_t{256} << 10}) {
      std::vector<double> ns;
      for (int r = 0; r < reps; ++r) {
        ns.push_back(CrcNsPerByte(path.crc, buffer, span));
      }
      Spread n = SpreadOf(ns);
      std::printf("  %-10s %7zu B  %7.4f [%7.4f-%7.4f]  %6.2f GB/s\n",
                  path.name, span, n.median, n.min, n.max, 1 / n.median);
      results.AddRow()
          .Set("layer", "crc32")
          .Set("path", path.name)
          .Set("span_bytes", static_cast<double>(span))
          .Set("reps", static_cast<double>(reps))
          .Set("ns_per_byte_median", n.median)
          .Set("ns_per_byte_min", n.min)
          .Set("ns_per_byte_max", n.max);
    }
  }

  const mdbs::storage::WalRecord checkpoint = CheckpointRecord();
  const double frame_bytes =
      static_cast<double>(mdbs::storage::EncodeWalRecord(checkpoint).size());
  std::vector<double> append_us;
  for (int r = 0; r < reps; ++r) {
    append_us.push_back(CheckpointAppendUs(checkpoint));
  }
  Spread a = SpreadOf(append_us);
  std::printf("\ncheckpoint append, %.0f B frame: %.1f [%.1f-%.1f] us\n",
              frame_bytes, a.median, a.min, a.max);
  results.AddRow()
      .Set("layer", "checkpoint_append")
      .Set("frame_bytes", frame_bytes)
      .Set("reps", static_cast<double>(reps))
      .Set("us_median", a.median)
      .Set("us_min", a.min)
      .Set("us_max", a.max);
  results.WriteFromArgs(argc, argv);
  return 0;
}
