#include "storage/wal.h"

#include <cstring>

#include "common/logging.h"
#include "storage/framing.h"

namespace mdbs::storage {
namespace {

/// Writes the payload [u8 type][little-endian fixed-width fields...] into
/// `out`, a ByteCounter or a ByteWriter.
template <typename Out>
void EncodePayload(const WalRecord& record, Out& out) {
  out.U8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kBegin:
      out.I64(record.txn);
      out.I64(record.global);
      out.I64(record.clock);
      break;
    case WalRecordType::kWrite:
      out.I64(record.txn);
      out.I64(record.item);
      out.I64(record.before);
      out.I64(record.value);
      out.I64(record.clock);
      break;
    case WalRecordType::kClr:
      out.I64(record.txn);
      out.I64(record.item);
      out.I64(record.value);
      break;
    case WalRecordType::kCommit:
      out.I64(record.txn);
      out.I64(record.clock);
      break;
    case WalRecordType::kAbort:
      out.I64(record.txn);
      break;
    case WalRecordType::kCheckpoint: {
      const CheckpointImage& image = record.checkpoint;
      out.I64(image.clock);
      out.U32(static_cast<uint32_t>(image.committed.size()));
      for (int64_t txn : image.committed) out.I64(txn);
      out.U32(static_cast<uint32_t>(image.items.size()));
      for (const CheckpointImage::Item& item : image.items) {
        out.I64(item.item);
        out.I64(item.value);
        out.I64(item.last_committed_writer);
      }
      out.U32(static_cast<uint32_t>(image.mv_initial.size()));
      for (const auto& [item, value] : image.mv_initial) {
        out.I64(item);
        out.I64(value);
      }
      out.U32(static_cast<uint32_t>(image.mv_latest.size()));
      for (const CheckpointImage::MvVersion& v : image.mv_latest) {
        out.I64(v.item);
        out.I64(v.wts);
        out.I64(v.writer);
        out.I64(v.value);
      }
      out.U32(static_cast<uint32_t>(image.active.size()));
      for (const CheckpointImage::ActiveTxn& txn : image.active) {
        out.I64(txn.txn);
        out.I64(txn.global);
        out.U32(static_cast<uint32_t>(txn.undo.size()));
        for (const auto& [item, before] : txn.undo) {
          out.I64(item);
          out.I64(before);
        }
      }
      break;
    }
  }
}

size_t PayloadSize(const WalRecord& record) {
  ByteCounter counter;
  EncodePayload(record, counter);
  return counter.size();
}

bool DecodePayload(const uint8_t* data, size_t size, WalRecord* out) {
  Cursor c(data, size);
  uint8_t raw_type = c.U8();
  if (!c.ok()) return false;
  switch (static_cast<WalRecordType>(raw_type)) {
    case WalRecordType::kBegin:
      out->type = WalRecordType::kBegin;
      out->txn = c.I64();
      out->global = c.I64();
      out->clock = c.I64();
      break;
    case WalRecordType::kWrite:
      out->type = WalRecordType::kWrite;
      out->txn = c.I64();
      out->item = c.I64();
      out->before = c.I64();
      out->value = c.I64();
      out->clock = c.I64();
      break;
    case WalRecordType::kClr:
      out->type = WalRecordType::kClr;
      out->txn = c.I64();
      out->item = c.I64();
      out->value = c.I64();
      break;
    case WalRecordType::kCommit:
      out->type = WalRecordType::kCommit;
      out->txn = c.I64();
      out->clock = c.I64();
      break;
    case WalRecordType::kAbort:
      out->type = WalRecordType::kAbort;
      out->txn = c.I64();
      break;
    case WalRecordType::kCheckpoint: {
      out->type = WalRecordType::kCheckpoint;
      CheckpointImage& image = out->checkpoint;
      image.clock = c.I64();
      uint32_t n_committed = c.U32();
      if (!c.ok()) return false;
      for (uint32_t i = 0; i < n_committed && c.ok(); ++i) {
        image.committed.push_back(c.I64());
      }
      uint32_t n_items = c.U32();
      if (!c.ok()) return false;
      for (uint32_t i = 0; i < n_items && c.ok(); ++i) {
        CheckpointImage::Item item;
        item.item = c.I64();
        item.value = c.I64();
        item.last_committed_writer = c.I64();
        image.items.push_back(item);
      }
      uint32_t n_mv = c.U32();
      if (!c.ok()) return false;
      for (uint32_t i = 0; i < n_mv && c.ok(); ++i) {
        int64_t item = c.I64();
        int64_t value = c.I64();
        image.mv_initial.emplace_back(item, value);
      }
      uint32_t n_latest = c.U32();
      if (!c.ok()) return false;
      for (uint32_t i = 0; i < n_latest && c.ok(); ++i) {
        CheckpointImage::MvVersion v;
        v.item = c.I64();
        v.wts = c.I64();
        v.writer = c.I64();
        v.value = c.I64();
        image.mv_latest.push_back(v);
      }
      uint32_t n_active = c.U32();
      if (!c.ok()) return false;
      for (uint32_t i = 0; i < n_active && c.ok(); ++i) {
        CheckpointImage::ActiveTxn txn;
        txn.txn = c.I64();
        txn.global = c.I64();
        uint32_t n_undo = c.U32();
        if (!c.ok()) return false;
        for (uint32_t j = 0; j < n_undo && c.ok(); ++j) {
          int64_t item = c.I64();
          int64_t before = c.I64();
          txn.undo.emplace_back(item, before);
        }
        image.active.push_back(std::move(txn));
      }
      break;
    }
    default:
      return false;  // Unknown type in a CRC-valid frame: corruption.
  }
  return c.ok() && c.exhausted();
}

}  // namespace

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kBegin:
      return "begin";
    case WalRecordType::kWrite:
      return "write";
    case WalRecordType::kClr:
      return "clr";
    case WalRecordType::kCommit:
      return "commit";
    case WalRecordType::kAbort:
      return "abort";
    case WalRecordType::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  auto encode = [&](ByteWriter& out) { EncodePayload(record, out); };
  return FrameEncoded(PayloadSize(record), encode);
}

Status ReadWal(const LogDevice& device, WalScan* out) {
  *out = WalScan{};
  std::vector<uint8_t> image;
  Status read = device.ReadAll(&image);
  if (!read.ok()) return read;
  FrameScan frames;
  Status scanned = ScanFrames(image, &frames);
  if (!scanned.ok()) return scanned;
  for (const auto& [offset, len] : frames.payloads) {
    WalRecord record;
    if (!DecodePayload(image.data() + offset, len, &record)) {
      return Status::Internal("WAL corruption: undecodable frame at byte " +
                              std::to_string(offset - 8));
    }
    out->records.push_back(std::move(record));
  }
  out->boundaries = std::move(frames.boundaries);
  out->valid_bytes = frames.valid_bytes;
  out->torn_tail = frames.torn_tail;
  return Status::OK();
}

void WalWriter::Append(const WalRecord& record) {
  bool is_checkpoint = record.type == WalRecordType::kCheckpoint;
  bool is_commit_point =
      is_checkpoint || record.type == WalRecordType::kCommit;
  auto encode = [&](ByteWriter& out) { EncodePayload(record, out); };
  const std::span<const uint8_t> frame = frames_.AppendEncoded(
      PayloadSize(record), encode, is_checkpoint, is_commit_point);
  if (is_checkpoint) {
    device_->DiscardPrefix(device_->Size() -
                           static_cast<int64_t>(frame.size()));
  }
}

}  // namespace mdbs::storage
