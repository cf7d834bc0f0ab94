// Differential test of storage::MemLogDevice: every sequence of Append,
// Truncate, DiscardPrefix, CorruptByte and ReadAll must leave the chunked
// device holding exactly the bytes a plain std::vector<uint8_t> holds under
// the same operations (the flat buffer the device used to be), and exactly
// the chunks that cover them. Sizes are chosen to land on, just before and
// just past chunk boundaries.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/log_device.h"
#include "storage/wal.h"

namespace mdbs::storage {
namespace {

constexpr size_t kChunk = MemLogDevice::kChunkBytes;

/// The reference: a flat vector with the device's documented semantics.
class FlatLog {
 public:
  void Append(const std::vector<uint8_t>& data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  void Truncate(int64_t size) {
    if (size >= 0 && static_cast<size_t>(size) < bytes_.size()) {
      bytes_.resize(static_cast<size_t>(size));
    }
  }
  void DiscardPrefix(int64_t bytes) {
    if (bytes <= 0) return;
    size_t cut = std::min(static_cast<size_t>(bytes), bytes_.size());
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(cut));
    discarded_ += cut;
  }
  void CorruptByte(size_t offset, uint8_t mask) {
    if (offset < bytes_.size()) bytes_[offset] ^= mask;
  }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  /// Bytes given up from the front so far.
  size_t discarded() const { return discarded_; }
  /// The chunk memory a device holding these bytes needs: every chunk that
  /// overlaps [discarded, discarded + size) in the stream of all bytes
  /// ever appended, and no other.
  int64_t ChunkBytes() const {
    size_t end = discarded_ + bytes_.size();
    size_t chunks = (end + kChunk - 1) / kChunk - discarded_ / kChunk;
    return static_cast<int64_t>(chunks * kChunk);
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t discarded_ = 0;
};

/// Bytes that differ from their neighbours and from one append to the next,
/// so a misplaced or stale byte shows up.
std::vector<uint8_t> Payload(size_t size, uint64_t salt) {
  std::vector<uint8_t> data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((i * 131 + salt * 7919 + (i >> 8)) & 0xFF);
  }
  return data;
}

/// The two logs agree: same size, ReadAll (into a reused, possibly larger
/// vector) and Image both return the reference bytes, and the device holds
/// exactly the chunks that cover them.
::testing::AssertionResult Matches(const MemLogDevice& device,
                                   const FlatLog& reference,
                                   std::vector<uint8_t>* scratch) {
  const std::vector<uint8_t>& want = reference.bytes();
  if (device.Size() != static_cast<int64_t>(want.size())) {
    return ::testing::AssertionFailure()
           << "Size " << device.Size() << ", reference " << want.size();
  }
  if (device.AllocatedBytes() != reference.ChunkBytes()) {
    return ::testing::AssertionFailure()
           << "holds " << device.AllocatedBytes() << " B of chunks, needs "
           << reference.ChunkBytes();
  }
  if (!device.ReadAll(scratch).ok() || *scratch != want) {
    return ::testing::AssertionFailure() << "ReadAll differs from reference";
  }
  if (device.Image() != want) {
    return ::testing::AssertionFailure() << "Image differs from reference";
  }
  return ::testing::AssertionSuccess();
}

class Pair {
 public:
  void Append(size_t size) {
    std::vector<uint8_t> data = Payload(size, ++salt_);
    ASSERT_TRUE(device.Append(data.data(), data.size()).ok());
    reference.Append(data);
  }
  void Truncate(int64_t size) {
    device.Truncate(size);
    reference.Truncate(size);
  }
  void DiscardPrefix(int64_t bytes) {
    device.DiscardPrefix(bytes);
    reference.DiscardPrefix(bytes);
  }
  void CorruptByte(size_t offset, uint8_t mask) {
    device.CorruptByte(offset, mask);
    reference.CorruptByte(offset, mask);
  }
  ::testing::AssertionResult Same() {
    return Matches(device, reference, &scratch_);
  }

  MemLogDevice device;
  FlatLog reference;

 private:
  uint64_t salt_ = 0;
  std::vector<uint8_t> scratch_;
};

TEST(MemLogDeviceTest, EmptyDeviceReadsEmpty) {
  Pair pair;
  EXPECT_TRUE(pair.Same());
  pair.Append(0);
  EXPECT_TRUE(pair.Same());
  pair.Truncate(0);
  pair.CorruptByte(0, 0xFF);
  EXPECT_TRUE(pair.Same());
}

TEST(MemLogDeviceTest, AppendsOfEdgeSizesMatchAFlatVector) {
  Pair pair;
  // 0 B and 1 B, exactly one chunk from an unaligned tail, a fill to the
  // boundary, exactly one chunk from an aligned tail, then more than two
  // chunks in one append from both kinds of tail.
  pair.Append(0);
  EXPECT_TRUE(pair.Same());
  pair.Append(1);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk - 1);
  ASSERT_EQ(pair.device.Size(), static_cast<int64_t>(2 * kChunk));
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk);
  EXPECT_TRUE(pair.Same());
  pair.Append(0);
  EXPECT_TRUE(pair.Same());
  pair.Append(2 * kChunk + 17);
  EXPECT_TRUE(pair.Same());
  pair.Append(1);
  pair.Append(3 * kChunk);
  EXPECT_TRUE(pair.Same());
}

TEST(MemLogDeviceTest, TruncatesFollowedByAppendsMatchAFlatVector) {
  Pair pair;
  pair.Append(3 * kChunk + 100);
  ASSERT_TRUE(pair.Same());

  // Inside a chunk: the stale bytes past the cut must never reappear.
  pair.Truncate(2 * kChunk + 40);
  EXPECT_TRUE(pair.Same());
  pair.Append(10);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk);
  EXPECT_TRUE(pair.Same());

  // On a chunk boundary, then an append that starts a fresh chunk.
  pair.Truncate(2 * kChunk);
  EXPECT_TRUE(pair.Same());
  pair.Append(1);
  EXPECT_TRUE(pair.Same());
  pair.Truncate(kChunk);
  pair.Append(kChunk + 3);
  EXPECT_TRUE(pair.Same());

  // Past the end and at the end are no-ops; so is a negative size.
  pair.Truncate(pair.device.Size() + 1);
  EXPECT_TRUE(pair.Same());
  pair.Truncate(pair.device.Size());
  pair.Truncate(-1);
  EXPECT_TRUE(pair.Same());
  pair.Append(5);
  EXPECT_TRUE(pair.Same());

  // To zero, then the device fills again from its first byte.
  pair.Truncate(0);
  EXPECT_TRUE(pair.Same());
  pair.Append(2 * kChunk + 1);
  EXPECT_TRUE(pair.Same());
}

TEST(MemLogDeviceTest, DiscardsFollowedByAppendsMatchAFlatVector) {
  Pair pair;
  pair.Append(3 * kChunk + 100);
  ASSERT_TRUE(pair.Same());

  // Zero and negative cuts keep everything.
  pair.DiscardPrefix(0);
  EXPECT_TRUE(pair.Same());
  pair.DiscardPrefix(-5);
  EXPECT_TRUE(pair.Same());
  pair.Append(7);
  EXPECT_TRUE(pair.Same());

  // Inside the first chunk: it stays, holding the new front.
  pair.DiscardPrefix(100);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk);
  EXPECT_TRUE(pair.Same());

  // Up to a chunk boundary of the stream: every chunk below it is freed.
  pair.DiscardPrefix(2 * kChunk - 100);
  EXPECT_TRUE(pair.Same());
  ASSERT_EQ(pair.device.AllocatedBytes(), static_cast<int64_t>(3 * kChunk));
  pair.Append(kChunk - 7);
  EXPECT_TRUE(pair.Same());

  // Across several chunks, from and to the middle of one.
  pair.DiscardPrefix(kChunk + 3);
  EXPECT_TRUE(pair.Same());
  pair.Append(2 * kChunk + 1);
  EXPECT_TRUE(pair.Same());

  // The whole device: the tail chunk stays only when the stream ends
  // inside it, and appends continue the stream from there.
  pair.DiscardPrefix(pair.device.Size());
  EXPECT_TRUE(pair.Same());
  pair.Append(5);
  EXPECT_TRUE(pair.Same());
  size_t end = pair.reference.discarded() + pair.reference.bytes().size();
  pair.Append(kChunk - end % kChunk);
  pair.DiscardPrefix(pair.device.Size());
  ASSERT_EQ(pair.device.AllocatedBytes(), 0);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk + 9);
  EXPECT_TRUE(pair.Same());

  // Past the end: the same as the whole device.
  pair.DiscardPrefix(pair.device.Size() + kChunk);
  EXPECT_TRUE(pair.Same());
  pair.Append(2 * kChunk);
  EXPECT_TRUE(pair.Same());
}

TEST(MemLogDeviceTest, TruncateAndCorruptByteCountFromTheKeptFront) {
  Pair pair;
  pair.Append(4 * kChunk + 300);
  pair.DiscardPrefix(kChunk + 200);
  ASSERT_TRUE(pair.Same());

  // Offsets are into what the device kept, not into the stream.
  for (size_t offset : {size_t{0}, kChunk - 201, kChunk - 200, kChunk - 199,
                        2 * kChunk, 3 * kChunk + 99, 3 * kChunk + 100}) {
    pair.CorruptByte(offset, 0x3C);
    EXPECT_TRUE(pair.Same()) << "offset " << offset;
  }

  // Cuts inside a chunk, on the stream's chunk boundary, to zero and past
  // the end, each followed by appends.
  pair.Truncate(2 * kChunk + 17);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk);
  EXPECT_TRUE(pair.Same());
  pair.Truncate(2 * kChunk - 200);
  EXPECT_TRUE(pair.Same());
  pair.Append(3);
  EXPECT_TRUE(pair.Same());
  pair.Truncate(pair.device.Size() + 4);
  EXPECT_TRUE(pair.Same());
  pair.Truncate(0);
  EXPECT_TRUE(pair.Same());
  pair.Append(kChunk + 1);
  EXPECT_TRUE(pair.Same());

  // A second discard after the truncations.
  pair.DiscardPrefix(kChunk / 2);
  EXPECT_TRUE(pair.Same());
  pair.CorruptByte(0, 0x81);
  pair.Truncate(10);
  pair.Append(kChunk);
  EXPECT_TRUE(pair.Same());
}

TEST(MemLogDeviceTest, CorruptByteHitsTheSameByteAcrossChunkBoundaries) {
  Pair pair;
  pair.Append(2 * kChunk + 9);
  for (size_t offset : {size_t{0}, kChunk - 1, kChunk, kChunk + 1,
                        2 * kChunk + 8, 2 * kChunk + 9, 5 * kChunk}) {
    pair.CorruptByte(offset, 0x5A);
    EXPECT_TRUE(pair.Same()) << "offset " << offset;
  }
}

TEST(MemLogDeviceTest, SeededRandomOperationsMatchAFlatVector) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Pair pair;
    for (int step = 0; step < 400; ++step) {
      int64_t size = pair.device.Size();
      uint64_t op = rng.NextBelow(100);
      if (op < 55) {
        // Mostly frame-sized appends, some near a chunk or filling the
        // tail chunk, a few past two chunks.
        uint64_t kind = rng.NextBelow(10);
        size_t n = rng.NextBelow(64);
        if (kind >= 6) n = kChunk - 2 + rng.NextBelow(5);
        if (kind == 8) n = kChunk - size % kChunk;
        if (kind == 9) n = 2 * kChunk + rng.NextBelow(kChunk);
        pair.Append(n);
      } else if (op < 75) {
        // Cuts: anywhere, on a boundary, to zero, or past the end.
        uint64_t kind = rng.NextBelow(4);
        int64_t cut = rng.NextInRange(0, size);
        if (kind == 1) cut = kChunk * rng.NextInRange(0, size / kChunk);
        if (kind == 2) cut = 0;
        if (kind == 3) cut = size + rng.NextInRange(0, 3);
        pair.Truncate(cut);
      } else if (op < 82) {
        // Discards: inside the device, to a chunk boundary of the stream,
        // the whole device, past the end, or a non-positive no-op.
        uint64_t kind = rng.NextBelow(5);
        int64_t cut = rng.NextInRange(0, size);
        if (kind == 1) {
          cut = static_cast<int64_t>(kChunk -
                                     pair.reference.discarded() % kChunk);
        }
        if (kind == 2) cut = size;
        if (kind == 3) cut = size + rng.NextInRange(1, 3);
        if (kind == 4) cut = -rng.NextInRange(0, 2);
        pair.DiscardPrefix(cut);
      } else if (op < 92) {
        pair.CorruptByte(rng.NextBelow(size + 2),
                         static_cast<uint8_t>(1 + rng.NextBelow(255)));
      }
      // The remaining ops only read.
      ASSERT_TRUE(pair.Same()) << "step " << step;
      // Keep the logs a few chunks long so every step compares cheaply.
      if (pair.device.Size() > static_cast<int64_t>(6 * kChunk)) {
        pair.Truncate(rng.NextInRange(0, 3 * kChunk));
        ASSERT_TRUE(pair.Same()) << "step " << step;
      }
    }
  }
}

TEST(MemLogDeviceTest, ImageConstructorSeedsExactlyTheImage) {
  for (size_t size : {size_t{0}, size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                      2 * kChunk + 5}) {
    SCOPED_TRACE(size);
    std::vector<uint8_t> image = Payload(size, size);
    MemLogDevice device(image);
    FlatLog reference;
    reference.Append(image);
    std::vector<uint8_t> scratch;
    EXPECT_TRUE(Matches(device, reference, &scratch));

    // The seeded device keeps appending after the image.
    std::vector<uint8_t> more = Payload(kChunk / 2, 99);
    ASSERT_TRUE(device.Append(more.data(), more.size()).ok());
    reference.Append(more);
    EXPECT_TRUE(Matches(device, reference, &scratch));
  }
}

// A checkpoint frame spanning several chunks, appended from a tail in the
// middle of a chunk, decodes back to the image it was written from; so does
// a device seeded with the same bytes. The writer discards what precedes
// the checkpoint, so the device then starts mid-chunk with that frame.
TEST(MemLogDeviceTest, CheckpointLargerThanAChunkRoundTripsThroughReadWal) {
  MemLogDevice device;
  WalWriter writer(&device);
  WalRecord begin;
  begin.type = WalRecordType::kBegin;
  begin.txn = 1;
  begin.global = 2;
  begin.clock = 3;
  writer.Append(begin);
  ASSERT_NE(device.Size() % static_cast<int64_t>(kChunk), 0);

  WalRecord checkpoint;
  checkpoint.type = WalRecordType::kCheckpoint;
  checkpoint.checkpoint.clock = 77;
  for (int64_t i = 0; i < 12'000; ++i) {
    checkpoint.checkpoint.items.push_back({i, i * 3 - 5, i % 7 - 1});
    checkpoint.checkpoint.committed.push_back(2 * i + 1);
  }
  int64_t before = device.Size();
  writer.Append(checkpoint);
  int64_t frame = device.Size();
  ASSERT_GT(frame, static_cast<int64_t>(2 * kChunk));
  ASSERT_EQ(frame, static_cast<int64_t>(
                       EncodeWalRecord(checkpoint).size()))
      << "the " << before << " B before the checkpoint were not discarded";

  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = 1;
  commit.clock = 78;
  writer.Append(commit);

  MemLogDevice copy(device.Image());
  for (const MemLogDevice* log : {&device, &copy}) {
    WalScan scan;
    ASSERT_TRUE(ReadWal(*log, &scan).ok());
    EXPECT_FALSE(scan.torn_tail);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.valid_bytes, static_cast<size_t>(device.Size()));
    const CheckpointImage& image = scan.records[0].checkpoint;
    EXPECT_EQ(scan.records[0].type, WalRecordType::kCheckpoint);
    EXPECT_EQ(image.clock, 77);
    EXPECT_EQ(image.items, checkpoint.checkpoint.items);
    EXPECT_EQ(image.committed, checkpoint.checkpoint.committed);
    EXPECT_EQ(scan.records[1].type, WalRecordType::kCommit);
    EXPECT_EQ(scan.records[1].clock, 78);
  }
}

}  // namespace
}  // namespace mdbs::storage
