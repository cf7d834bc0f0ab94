#ifndef MDBS_STORAGE_LOG_DEVICE_H_
#define MDBS_STORAGE_LOG_DEVICE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace mdbs::storage {

/// Append-only byte device backing one site's write-ahead log. The interface
/// is deliberately tiny — append bytes, read everything back — because the
/// durability model is fsync-free and deterministic: a "crash" loses exactly
/// the bytes that were never appended, never a suffix of what was. Torn
/// writes are modeled explicitly by tests truncating the image mid-frame.
class LogDevice {
 public:
  virtual ~LogDevice() = default;

  /// Appends `data` at the end of the device. Appends are atomic at this
  /// layer; partial appends only exist as test-constructed images.
  virtual Status Append(const void* data, size_t size) = 0;

  /// The sync barrier of the WAL's sync policy, counted by FrameWriter so
  /// the run report states what policy actually ran (`wal.syncs`). The
  /// default is a no-op: the in-memory device IS stable storage under the
  /// deterministic crash model. The file device only flushes its stream
  /// into the OS page cache — no fsync/fdatasync — so its bytes survive a
  /// process crash but not a power cut.
  virtual Status Sync() { return Status::OK(); }

  /// Bytes currently on the device.
  virtual int64_t Size() const = 0;

  /// The whole device image, front to back.
  virtual Status ReadAll(std::vector<uint8_t>* out) const = 0;

  /// Cuts the device to its first `size` bytes. Recovery truncates a torn
  /// tail here before appending new records; tests build crash points.
  virtual void Truncate(int64_t size) = 0;

  /// Gives up the device's first `bytes` bytes (all of them when `bytes`
  /// is past the end; nothing when it is not positive): offsets, `Size`
  /// and `ReadAll` then count from the first byte kept. The site WAL calls
  /// this at every checkpoint, because recovery never reads what precedes
  /// the last complete checkpoint. The default keeps everything, which is
  /// equally correct: a device that keeps its history still recovers.
  virtual void DiscardPrefix(int64_t bytes) { (void)bytes; }
};

/// The default "disk": the device's bytes in fixed-size chunks held in
/// memory. Both engines replay it byte-for-byte, and recovery tests
/// snapshot/truncate/corrupt it freely.
///
/// An append copies its bytes exactly once, into the tail chunk and as many
/// fresh chunks as it needs; a byte already on the device never moves
/// again. A flat buffer would instead copy the whole log every time it
/// doubled, inside one strand task, and a multi-megabyte log stalls every
/// strand on the worker for tens of milliseconds (DESIGN §9).
///
/// `DiscardPrefix` frees every chunk that lies wholly below the cut; the
/// chunk holding the new front stays until a later cut passes it.
class MemLogDevice : public LogDevice {
 public:
  /// 64 KiB: below glibc's smallest mmap threshold (128 KiB), so a chunk
  /// comes from the heap arena and a freed one is reused without a
  /// munmap/mmap round trip; large enough that a chunk holds about a
  /// thousand site-WAL data frames, so its allocation is rare; small
  /// enough that a device holding a few records allocates little.
  static constexpr size_t kChunkBytes = 64 * 1024;

  MemLogDevice() = default;
  /// Seeds the device with an existing image (prefix-truncation fuzzing).
  explicit MemLogDevice(const std::vector<uint8_t>& image);

  Status Append(const void* data, size_t size) override;
  int64_t Size() const override {
    return static_cast<int64_t>(end_ - head_);
  }
  Status ReadAll(std::vector<uint8_t>* out) const override;

  void Truncate(int64_t size) override;
  void DiscardPrefix(int64_t bytes) override;

  /// The whole image as one vector (a copy), for tests and digests.
  std::vector<uint8_t> Image() const;
  /// Memory the chunks hold: kChunkBytes per chunk, Size() or more.
  int64_t AllocatedBytes() const {
    return static_cast<int64_t>(chunks_.size() * kChunkBytes);
  }
  /// XORs one byte of the image (corruption fuzzing).
  void CorruptByte(size_t offset, uint8_t mask = 0xFF);

 private:
  /// The byte at stream offset `at` (head_ <= at < end_).
  uint8_t* At(size_t at) const {
    return chunks_[at / kChunkBytes - head_ / kChunkBytes].get() +
           at % kChunkBytes;
  }

  /// Offsets count every byte ever appended: head_ is the first byte kept,
  /// end_ one past the last. chunks_[0] starts at the chunk boundary at or
  /// below head_. Invariant: chunks_.size() == ceil(end_ / kChunkBytes) -
  /// floor(head_ / kChunkBytes). A chunk is allocated by the append that
  /// first writes into it, and none is zero-filled: bytes outside
  /// [head_, end_) are never read.
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  size_t head_ = 0;
  size_t end_ = 0;
};

/// A real append-only file, for `mdbsim --wal_dir=`. Writes are flushed per
/// append (no fsync — the determinism contract is the byte stream, not the
/// kernel's cache behavior); an existing file is recovered from, not
/// truncated.
class FileLogDevice : public LogDevice {
 public:
  /// Opens (creating if absent) `path` for appending.
  explicit FileLogDevice(const std::string& path);

  Status Append(const void* data, size_t size) override;
  Status Sync() override;
  int64_t Size() const override;
  Status ReadAll(std::vector<uint8_t>* out) const override;
  void Truncate(int64_t size) override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::fstream file_;
  int64_t size_ = 0;
  bool open_failed_ = false;
};

}  // namespace mdbs::storage

#endif  // MDBS_STORAGE_LOG_DEVICE_H_
