#include "storage/log_device.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace mdbs::storage {

MemLogDevice::MemLogDevice(const std::vector<uint8_t>& image) {
  Append(image.data(), image.size());
}

Status MemLogDevice::Append(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  while (size > 0) {
    size_t offset = end_ % kChunkBytes;
    if (offset == 0) {
      chunks_.push_back(
          std::make_unique_for_overwrite<uint8_t[]>(kChunkBytes));
    }
    size_t n = std::min(size, kChunkBytes - offset);
    std::memcpy(chunks_.back().get() + offset, bytes, n);
    bytes += n;
    size -= n;
    end_ += n;
  }
  return Status::OK();
}

Status MemLogDevice::ReadAll(std::vector<uint8_t>* out) const {
  out->clear();
  out->reserve(end_ - head_);
  for (size_t at = head_; at < end_;) {
    size_t n = std::min(kChunkBytes - at % kChunkBytes, end_ - at);
    out->insert(out->end(), At(at), At(at) + n);
    at += n;
  }
  return Status::OK();
}

std::vector<uint8_t> MemLogDevice::Image() const {
  std::vector<uint8_t> image;
  ReadAll(&image);
  return image;
}

void MemLogDevice::Truncate(int64_t size) {
  if (size >= 0 && static_cast<size_t>(size) < end_ - head_) {
    end_ = head_ + static_cast<size_t>(size);
    chunks_.resize((end_ + kChunkBytes - 1) / kChunkBytes -
                   head_ / kChunkBytes);
  }
}

void MemLogDevice::DiscardPrefix(int64_t bytes) {
  if (bytes <= 0) return;
  size_t old_head = head_;
  head_ += std::min(static_cast<size_t>(bytes), end_ - head_);
  auto first_kept = chunks_.begin() +
                    static_cast<std::ptrdiff_t>(head_ / kChunkBytes -
                                                old_head / kChunkBytes);
  chunks_.erase(chunks_.begin(), first_kept);
}

void MemLogDevice::CorruptByte(size_t offset, uint8_t mask) {
  if (offset < end_ - head_) *At(head_ + offset) ^= mask;
}

FileLogDevice::FileLogDevice(const std::string& path) : path_(path) {
  // Open read/write without truncation; create the file first if needed.
  file_.open(path_, std::ios::in | std::ios::out | std::ios::binary);
  if (!file_.is_open()) {
    file_.clear();
    file_.open(path_, std::ios::out | std::ios::binary);
    file_.close();
    file_.open(path_, std::ios::in | std::ios::out | std::ios::binary);
  }
  if (!file_.is_open()) {
    open_failed_ = true;
    return;
  }
  file_.seekg(0, std::ios::end);
  size_ = static_cast<int64_t>(file_.tellg());
}

Status FileLogDevice::Append(const void* data, size_t size) {
  if (open_failed_) {
    return Status::InvalidArgument("cannot open WAL file: " + path_);
  }
  file_.clear();
  file_.seekp(0, std::ios::end);
  file_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  file_.flush();
  if (!file_) return Status::Internal("short append to WAL file: " + path_);
  size_ += static_cast<int64_t>(size);
  return Status::OK();
}

Status FileLogDevice::Sync() {
  if (open_failed_) {
    return Status::InvalidArgument("cannot open WAL file: " + path_);
  }
  file_.flush();
  if (!file_) return Status::Internal("sync failed for WAL file: " + path_);
  return Status::OK();
}

int64_t FileLogDevice::Size() const { return open_failed_ ? 0 : size_; }

void FileLogDevice::Truncate(int64_t size) {
  if (open_failed_ || size < 0 || size >= size_) return;
  std::error_code ec;
  std::filesystem::resize_file(path_, static_cast<uintmax_t>(size), ec);
  if (!ec) size_ = size;
}

Status FileLogDevice::ReadAll(std::vector<uint8_t>* out) const {
  out->clear();
  if (open_failed_) {
    return Status::InvalidArgument("cannot open WAL file: " + path_);
  }
  file_.clear();
  file_.seekg(0, std::ios::beg);
  out->resize(static_cast<size_t>(size_));
  if (size_ > 0) {
    file_.read(reinterpret_cast<char*>(out->data()),
               static_cast<std::streamsize>(size_));
    if (!file_) return Status::Internal("short read from WAL file: " + path_);
  }
  return Status::OK();
}

}  // namespace mdbs::storage
