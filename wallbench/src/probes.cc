#include "probes.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "closed_loop.h"
#include "gtm/gtm2.h"
#include "gtm/synthetic.h"
#include "lcc/lock_manager.h"
#include "seams.h"
#include "sim/metrics.h"
#include "sim/real_strand.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace wallbench {

namespace {

// Schedules `count` tasks one at a time from this thread onto a strand and
// returns, per task, how long after its due time (call time + delay) it
// started running.
std::vector<double> StrandLateness(int count, mdbs::sim::Time delay_us) {
  mdbs::sim::RealTicker ticker;
  mdbs::sim::RealStrand strand(&ticker, "wallbench-probe");
  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> late_us;
  late_us.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    bool ran = false;
    int64_t ran_ns = 0;
    const int64_t call_ns = NowNs();
    strand.Schedule(delay_us, [&]() {
      const int64_t now = NowNs();
      std::lock_guard<std::mutex> lock(mu);
      ran_ns = now;
      ran = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return ran; });
    late_us.push_back(static_cast<double>(ran_ns - call_ns - delay_us * 1000) *
                      1e-3);
  }
  strand.Stop();
  return late_us;
}

double HarnessUsPerTxn(uint64_t seed) {
  mdbs::gtm::SyntheticConfig config;
  config.sites = 4;
  config.active_txns = 64;
  config.total_txns = 2000;
  config.seed = seed;
  mdbs::gtm::SyntheticGtmHarness harness(
      mdbs::gtm::MakeScheme(mdbs::gtm::SchemeKind::kScheme3), config);
  const int64_t start = NowNs();
  mdbs::gtm::SyntheticReport report = harness.Run();
  const int64_t elapsed = NowNs() - start;
  return report.completed == 0
             ? 0.0
             : static_cast<double>(elapsed) * 1e-3 /
                   static_cast<double>(report.completed);
}

// One transaction at a time: lock every operation's item (shared for reads,
// exclusive for writes), then release all. Items of different sites get
// distinct ids, as they would in one lock table per site.
double LockNsPerOp(const InputPool& pool) {
  constexpr int64_t kMaxTxns = 20'000;
  mdbs::lcc::LockManager locks;
  int64_t ops = 0;
  int64_t txn_id = 0;
  const int64_t start = NowNs();
  const size_t length = pool.per_client.front().size();
  for (size_t i = 0; i < length && txn_id < kMaxTxns; ++i) {
    for (const std::vector<CompactTxn>& stream : pool.per_client) {
      const mdbs::TxnId txn(txn_id++);
      for (const CompactOp& op : stream[i].ops) {
        locks.Acquire(txn, mdbs::DataItemId(op.item * 8 + op.site),
                      op.write ? mdbs::lcc::LockMode::kExclusive
                               : mdbs::lcc::LockMode::kShared);
        ++ops;
      }
      locks.ReleaseAll(txn);
    }
  }
  const int64_t elapsed = NowNs() - start;
  return ops == 0 ? 0.0
                  : static_cast<double>(elapsed) / static_cast<double>(ops);
}

// Frames one payload per operation of the workload, sized like a site WAL
// data record (kind, transaction, item, before- and after-image), with a
// commit point after each transaction.
double FrameNsPerAppend(const InputPool& pool) {
  constexpr int64_t kMaxAppends = 200'000;
  mdbs::storage::MemLogDevice device;
  mdbs::storage::FrameWriter writer(&device);
  std::vector<uint8_t> payload;
  int64_t appends = 0;
  const int64_t start = NowNs();
  while (appends < kMaxAppends) {
    for (const std::vector<CompactTxn>& stream : pool.per_client) {
      for (const CompactTxn& txn : stream) {
        for (size_t k = 0; k < txn.ops.size(); ++k) {
          const CompactOp& op = txn.ops[k];
          payload.clear();
          mdbs::storage::PutU8(&payload, op.write ? 1 : 0);
          mdbs::storage::PutI64(&payload, appends);
          mdbs::storage::PutI64(&payload, op.item);
          mdbs::storage::PutI64(&payload, op.value);
          mdbs::storage::PutI64(&payload, op.value ^ op.item);
          writer.AppendPayload(payload, /*is_checkpoint=*/false,
                               /*is_commit_point=*/k + 1 == txn.ops.size());
          ++appends;
        }
        if (device.Size() > (int64_t{1} << 22)) device.Truncate(0);
        if (appends >= kMaxAppends) break;
      }
      if (appends >= kMaxAppends) break;
    }
  }
  const int64_t elapsed = NowNs() - start;
  return static_cast<double>(elapsed) / static_cast<double>(appends);
}

double HistogramNsPerRecord(const std::vector<int64_t>& latencies_ns) {
  constexpr int64_t kRecords = 1'000'000;
  if (latencies_ns.empty()) return 0;
  mdbs::sim::Summary summary;
  const int64_t start = NowNs();
  for (int64_t i = 0; i < kRecords; ++i) {
    summary.Add(static_cast<double>(
        latencies_ns[static_cast<size_t>(i) % latencies_ns.size()] / 1000));
  }
  const int64_t elapsed = NowNs() - start;
  // Keep the summary observable so the loop is not discarded.
  if (summary.count() != kRecords) return -1;
  return static_cast<double>(elapsed) / static_cast<double>(kRecords);
}

}  // namespace

ProbeResults RunProbes(const InputPool& pool, uint64_t seed,
                       const std::vector<int64_t>& latencies_ns) {
  ProbeResults results;
  // The hand-off probe alone runs cross-core, as hand-offs go on the
  // multi-core engine; it is per-layer, without a bound, so the host's
  // wake-up latency may show in it.
  BindCpus(kHandoffProbeCpus);
  results.strand_handoff_us = Median(StrandLateness(2000, 0));
  BindCpus(kBoundCpus);
  results.strand_timer_late_us = Median(StrandLateness(1000, 10));
  results.harness_s3_us_per_txn = HarnessUsPerTxn(seed);
  results.lock_acquire_release_ns = LockNsPerOp(pool);
  results.frame_append_ns = FrameNsPerAppend(pool);
  results.histogram_record_ns = HistogramNsPerRecord(latencies_ns);
  return results;
}

}  // namespace wallbench
