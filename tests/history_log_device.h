// A log device for tests that need the log's whole history. A site and the
// durable GTM discard their WAL below every checkpoint; this device still
// does that, through the MemLogDevice it forwards to, and also keeps every
// byte ever appended, so a test can cut the full byte stream anywhere and
// compare recovery from what was kept with recovery from the history.
#ifndef MDBS_TESTS_HISTORY_LOG_DEVICE_H_
#define MDBS_TESTS_HISTORY_LOG_DEVICE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "storage/log_device.h"

namespace mdbs {

class HistoryLogDevice : public storage::LogDevice {
 public:
  /// Called at the start of every append, before any byte of it lands,
  /// with the device as it stands (an append boundary) and the bytes
  /// about to be appended.
  using BeforeAppend = std::function<void(const HistoryLogDevice& device,
                                          const uint8_t* data, size_t size)>;

  void set_before_append(BeforeAppend hook) {
    before_append_ = std::move(hook);
  }

  Status Append(const void* data, size_t size) override {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    if (before_append_) before_append_(*this, bytes, size);
    history_.insert(history_.end(), bytes, bytes + size);
    return retained_.Append(data, size);
  }
  int64_t Size() const override { return retained_.Size(); }
  Status ReadAll(std::vector<uint8_t>* out) const override {
    return retained_.ReadAll(out);
  }
  void Truncate(int64_t size) override {
    if (size >= 0 && size < retained_.Size()) {
      history_.resize(static_cast<size_t>(discarded_ + size));
    }
    retained_.Truncate(size);
  }
  void DiscardPrefix(int64_t bytes) override {
    int64_t before = retained_.Size();
    retained_.DiscardPrefix(bytes);
    discarded_ += before - retained_.Size();
    ++discards_;
  }

  /// Every byte appended and not truncated away, front to back: the image
  /// a device that never discards would hold.
  const std::vector<uint8_t>& history() const { return history_; }
  /// What the log kept: the suffix of history() from discarded() on.
  const storage::MemLogDevice& retained() const { return retained_; }
  int64_t discarded() const { return discarded_; }
  /// DiscardPrefix calls so far: one per checkpoint written.
  int64_t discards() const { return discards_; }

 private:
  storage::MemLogDevice retained_;
  std::vector<uint8_t> history_;
  int64_t discarded_ = 0;
  int64_t discards_ = 0;
  BeforeAppend before_append_;
};

}  // namespace mdbs

#endif  // MDBS_TESTS_HISTORY_LOG_DEVICE_H_
