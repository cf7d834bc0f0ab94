// Heap held per touched item by the local concurrency control protocols.
// This binary replaces the global operator new/delete with counting ones,
// drives strict TO, SGT, MVTO and 2PL through 10,000 distinct items with
// no contention (no access ever waits), and bounds the bytes still
// allocated per item, both while the transactions are running and after
// they committed. An item's waiter list must cost nothing until someone
// waits: a std::deque allocates 576 B even when empty, which alone breaks
// the bound.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "lcc/mvto.h"
#include "lcc/sgt.h"
#include "lcc/timestamp_ordering.h"
#include "lcc/two_phase_locking.h"

namespace {

// Every allocation carries its size in a header of one max-aligned slot,
// so delete can subtract what new added.
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

namespace mdbs::lcc {
namespace {

constexpr int64_t kItems = 10'000;
constexpr int64_t kTxns = 100;  // Each touches kItems / kTxns items.
/// Bytes an item may keep: its table entry (key, a few fields, the empty
/// waiter list, the hash node and its bucket) and, at MVTO, one committed
/// version.
constexpr int64_t kBoundPerItem = 160;

class FakeHost : public ProtocolHost {
 public:
  void ResumeTransaction(TxnId) override { ++resumed; }
  int64_t resumed = 0;
};

struct Held {
  int64_t running = 0;    // Per item, every transaction still active.
  int64_t committed = 0;  // Per item, after every transaction committed.
};

/// Transaction t reads and writes items t, t + kTxns, t + 2 kTxns, ...:
/// every item is touched by exactly one transaction, so nothing waits.
Held Drive(ConcurrencyControl* cc, const FakeHost& host) {
  const int64_t before = live_bytes.load();
  for (int64_t t = 0; t < kTxns; ++t) cc->OnBegin(TxnId(t + 1));
  for (int64_t item = 0; item < kItems; ++item) {
    const TxnId txn(item % kTxns + 1);
    const DataItemId id(item);
    for (const DataOp& op : {DataOp::Read(id), DataOp::Write(id, 7)}) {
      EXPECT_EQ(cc->OnAccess(txn, op), AccessDecision::kProceed);
      cc->OnAccessApplied(txn, op);
    }
  }
  Held held;
  held.running = (live_bytes.load() - before) / kItems;
  for (int64_t t = 0; t < kTxns; ++t) {
    const TxnId txn(t + 1);
    EXPECT_EQ(cc->OnValidate(txn), AccessDecision::kProceed);
    cc->OnFinish(txn, TxnOutcome::kCommitted);
  }
  held.committed = (live_bytes.load() - before) / kItems;
  EXPECT_EQ(host.resumed, 0) << "an access waited: the run had contention";
  return held;
}

void ExpectBounded(const Held& held) {
  EXPECT_LT(held.running, kBoundPerItem) << "bytes per item while running";
  EXPECT_LT(held.committed, kBoundPerItem)
      << "bytes per item after commit";
  ::testing::Test::RecordProperty("bytes_per_item_running",
                                  static_cast<int>(held.running));
  ::testing::Test::RecordProperty("bytes_per_item_committed",
                                  static_cast<int>(held.committed));
}

TEST(ItemMemoryTest, CountingAllocatorSeesTheHeap) {
  const int64_t before = live_bytes.load();
  auto block = std::make_unique<std::vector<int64_t>>(1000);
  EXPECT_GE(live_bytes.load() - before, 8000);
  block.reset();
  EXPECT_EQ(live_bytes.load(), before);
}

TEST(ItemMemoryTest, TimestampOrderingKeepsLittlePerItem) {
  FakeHost host;
  TimestampOrdering to(&host);
  ExpectBounded(Drive(&to, host));
}

TEST(ItemMemoryTest, SgtKeepsLittlePerItem) {
  FakeHost host;
  SerializationGraphTesting sgt(&host);
  ExpectBounded(Drive(&sgt, host));
}

TEST(ItemMemoryTest, MvtoKeepsLittlePerItem) {
  FakeHost host;
  MultiversionTimestampOrdering mvto(&host);
  ExpectBounded(Drive(&mvto, host));
}

// 2PL keeps nothing for an item once its locks are released, but the lock
// table holds one entry per locked item while the holders run.
TEST(ItemMemoryTest, TwoPhaseLockingKeepsLittlePerLockedItem) {
  FakeHost host;
  TwoPhaseLocking tpl(&host);
  ExpectBounded(Drive(&tpl, host));
}

}  // namespace
}  // namespace mdbs::lcc
