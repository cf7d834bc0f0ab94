#ifndef MDBS_STORAGE_LOG_DEVICE_H_
#define MDBS_STORAGE_LOG_DEVICE_H_

#include <cstdint>
#include <fstream>
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
};

/// The default "disk": an in-memory byte vector. Both engines replay it
/// byte-for-byte, and recovery tests snapshot/truncate/corrupt it freely.
class MemLogDevice : public LogDevice {
 public:
  MemLogDevice() = default;
  /// Seeds the device with an existing image (prefix-truncation fuzzing).
  explicit MemLogDevice(std::vector<uint8_t> image)
      : bytes_(std::move(image)) {}

  Status Append(const void* data, size_t size) override;
  int64_t Size() const override { return static_cast<int64_t>(bytes_.size()); }
  Status ReadAll(std::vector<uint8_t>* out) const override;

  void Truncate(int64_t size) override;

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  /// XORs one byte of the image (corruption fuzzing).
  void CorruptByte(size_t offset, uint8_t mask = 0xFF);

 private:
  std::vector<uint8_t> bytes_;
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
