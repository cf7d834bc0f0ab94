// Heap held at the end of a wallbench memory pass, by component.
//
// Runs the pass wallbench's `max_rss_mb` measures (a fresh MDBS of the
// workload driven through `memory_txns` transactions; wallbench's inputs,
// config and closed loop), with the global operator new/delete replaced by
// counting ones, and prints one JSON line:
//   max_rss_mb   peak RSS of the process (the counting adds a 16 B header
//                to every allocation, so it reads a little above wallbench)
//   heap         bytes allocated and still live when the pass ends
//   gtm_log      memory the GTM WAL's in-memory device holds
//   site_logs    the same, summed over the site WALs
//   recorder     the schedule recorder, measured by recording each site's
//                operations and transactions again into a fresh recorder
//   cc_tables    the local protocols' state, measured by replaying each
//                site's recorded transactions, one at a time, into a fresh
//                protocol of the site's kind
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "closed_loop.h"
#include "gtm/gtm_replica.h"
#include "mdbs/mdbs.h"
#include "sched/schedule.h"
#include "site/local_dbms.h"
#include "storage/log_device.h"
#include "workloads.h"

namespace {

constexpr size_t kHeader = alignof(std::max_align_t);
std::atomic<int64_t> live_bytes{0};

void* CountedNew(size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(block) = size;
  live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void CountedDelete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  void* block = static_cast<char*>(ptr) - kHeader;
  live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<size_t*>(block)),
                       std::memory_order_relaxed);
  std::free(block);
}

}  // namespace

void* operator new(size_t size) { return CountedNew(size); }
void* operator new[](size_t size) { return CountedNew(size); }
void operator delete(void* ptr) noexcept { CountedDelete(ptr); }
void operator delete[](void* ptr) noexcept { CountedDelete(ptr); }
void operator delete(void* ptr, size_t) noexcept { CountedDelete(ptr); }
void operator delete[](void* ptr, size_t) noexcept { CountedDelete(ptr); }

namespace {

using mdbs::TxnId;
using mdbs::lcc::AccessDecision;
using mdbs::sched::RecordedOp;
using mdbs::sched::ScheduleRecorder;
using mdbs::sched::SiteSchedule;

int64_t DeviceBytes(mdbs::storage::LogDevice* device) {
  auto* mem = dynamic_cast<mdbs::storage::MemLogDevice*>(device);
  return mem == nullptr ? 0 : mem->AllocatedBytes();
}

/// Live bytes `build` leaves allocated; what it builds stays alive.
template <typename Build>
int64_t Held(Build&& build) {
  const int64_t before = live_bytes.load();
  build();
  return live_bytes.load() - before;
}

class NoHost : public mdbs::lcc::ProtocolHost {
 public:
  void ResumeTransaction(TxnId) override {}
};

struct Breakdown {
  double max_rss_mb = 0;
  int64_t heap = 0;
  int64_t gtm_log = 0;
  int64_t site_logs = 0;
  int64_t recorder = 0;
  int64_t cc_tables = 0;
  /// Replayed accesses that did not proceed (0 on a contention-free run).
  int64_t replay_stalls = 0;
};

int64_t RecorderBytes(const mdbs::Mdbs& system,
                      std::unique_ptr<ScheduleRecorder>* copy) {
  return Held([&] {
    *copy = std::make_unique<ScheduleRecorder>(system.site_ids());
    for (const auto& [site, recorded] : system.recorder().sites()) {
      SiteSchedule& schedule = (*copy)->site(site);
      for (const auto& [txn, record] : recorded.txns()) {
        schedule.RecordBegin(txn, record.global);
      }
      for (const RecordedOp& op : recorded.ops()) {
        schedule.RecordOp(op.txn, op.op, op.time, op.read_from);
      }
      for (const auto& [txn, record] : recorded.txns()) {
        schedule.RecordFinish(txn, record.outcome, record.serialization_key);
      }
    }
  });
}

int64_t ProtocolBytes(
    mdbs::Mdbs& system, int64_t* stalls,
    std::vector<std::unique_ptr<mdbs::lcc::ConcurrencyControl>>* kept) {
  static NoHost host;
  int64_t bytes = 0;
  for (mdbs::SiteId site : system.site_ids()) {
    const SiteSchedule& recorded = system.recorder().site(site);
    // Each transaction's operations, transactions in order of first op.
    std::map<int64_t, std::vector<const RecordedOp*>> ops_of;
    for (const RecordedOp& op : recorded.ops()) {
      ops_of[op.txn.value()].push_back(&op);
    }
    std::vector<std::pair<int64_t, int64_t>> order;  // (first seq, txn)
    for (const auto& [txn, ops] : ops_of) {
      order.emplace_back(ops.front()->seq, txn);
    }
    std::sort(order.begin(), order.end());
    bytes += Held([&] {
      kept->push_back(mdbs::site::MakeProtocol(
          system.site(site).protocol().kind(), &host, mdbs::obs::kNoEvents,
          site));
      mdbs::lcc::ConcurrencyControl& cc = *kept->back();
      for (const auto& [seq, id] : order) {
        const mdbs::sched::TxnRecord* record = recorded.FindTxn(TxnId(id));
        if (record == nullptr) continue;
        const TxnId txn(id);
        cc.OnBegin(txn);
        bool proceeded = true;
        for (const RecordedOp* op : ops_of.at(id)) {
          if (cc.OnAccess(txn, op->op) != AccessDecision::kProceed) {
            ++*stalls;
            proceeded = false;
            break;
          }
          cc.OnAccessApplied(txn, op->op);
        }
        const bool commit =
            proceeded && record->outcome != mdbs::TxnOutcome::kAborted &&
            cc.OnValidate(txn) == AccessDecision::kProceed;
        cc.OnFinish(txn, commit ? mdbs::TxnOutcome::kCommitted
                                : mdbs::TxnOutcome::kAborted);
      }
    });
  }
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wallbench;
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::string name = argc > 2 ? argv[2] : "durable";
  const Workload* workload = FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "usage: heap_breakdown [seed] [hop|durable]\n");
    return 2;
  }
  BindCpus(kBoundCpus);  // As wallbench does, before any thread exists.
  // wallbench's input pool: 32,768 transactions over the clients.
  const InputPool pool = GenerateInputs(
      *workload, seed, std::max<int64_t>(256, 32'768 / workload->clients));

  Breakdown out;
  std::unique_ptr<ScheduleRecorder> recorder_copy;
  std::vector<std::unique_ptr<mdbs::lcc::ConcurrencyControl>> protocols;
  const int64_t before = live_bytes.load();
  mdbs::Mdbs system(MakeConfig(*workload, seed));
  LoopOptions options;
  options.max_submits = workload->memory_txns;
  RunClosedLoop(&system, pool, options);
  system.FinishThreadedRun();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  out.heap = live_bytes.load() - before;
  if (system.gtm_replica() != nullptr) {
    out.gtm_log = DeviceBytes(system.gtm_replica()->wal_device());
  }
  for (mdbs::SiteId site : system.site_ids()) {
    if (system.site(site).wal_device() != nullptr) {
      out.site_logs += DeviceBytes(system.site(site).wal_device());
    }
  }
  out.recorder = RecorderBytes(system, &recorder_copy);
  out.cc_tables = ProtocolBytes(system, &out.replay_stalls, &protocols);
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"max_rss_mb\": %.2f, "
      "\"heap\": %lld, \"gtm_log\": %lld, \"site_logs\": %lld, "
      "\"recorder\": %lld, \"cc_tables\": %lld, \"replay_stalls\": %lld}\n",
      name.c_str(), static_cast<unsigned long long>(seed), out.max_rss_mb,
      static_cast<long long>(out.heap), static_cast<long long>(out.gtm_log),
      static_cast<long long>(out.site_logs),
      static_cast<long long>(out.recorder),
      static_cast<long long>(out.cc_tables),
      static_cast<long long>(out.replay_stalls));
  return 0;
}
