#include "storage/wal.h"

namespace mdbs::storage {

// The records' field lists (storage/framing.h): [u8 type][little-endian
// fixed-width fields of that type...]; a checkpoint's tables are
// count-prefixed. Item, MvVersion and MvInitial name their fields in
// declaration order: their tables are copied as blocks on little-endian
// hosts, and these lists write the same bytes on the others.
template <typename Io, FieldsOf<CheckpointImage::Item> R>
void Fields(Io& io, R& item) {
  io.I64(item.item);
  io.I64(item.value);
  io.I64(item.last_committed_writer);
}
template <typename Io, FieldsOf<CheckpointImage::MvVersion> R>
void Fields(Io& io, R& version) {
  io.I64(version.item);
  io.I64(version.wts);
  io.I64(version.writer);
  io.I64(version.value);
}
template <typename Io, FieldsOf<CheckpointImage::MvInitial> R>
void Fields(Io& io, R& initial) {
  io.I64(initial.item);
  io.I64(initial.value);
}
template <typename Io, FieldsOf<CheckpointImage::ActiveTxn> R>
void Fields(Io& io, R& txn) {
  io.I64(txn.txn);
  io.I64(txn.global);
  io.Vec(txn.undo);
}
template <typename Io, FieldsOf<WalRecord> R>
void Fields(Io& io, R& r) {
  io.Enum(r.type, WalRecordType::kBegin, WalRecordType::kCheckpoint);
  switch (r.type) {
    case WalRecordType::kBegin:
      io.I64(r.txn);
      io.I64(r.global);
      io.I64(r.clock);
      break;
    case WalRecordType::kWrite:
      io.I64(r.txn);
      io.I64(r.item);
      io.I64(r.before);
      io.I64(r.value);
      io.I64(r.clock);
      break;
    case WalRecordType::kClr:
      io.I64(r.txn);
      io.I64(r.item);
      io.I64(r.value);
      break;
    case WalRecordType::kCommit:
      io.I64(r.txn);
      io.I64(r.clock);
      break;
    case WalRecordType::kAbort:
      io.I64(r.txn);
      break;
    case WalRecordType::kCheckpoint:
      io.I64(r.checkpoint.clock);
      io.Vec(r.checkpoint.committed);
      io.Vec(r.checkpoint.items);
      io.Vec(r.checkpoint.mv_initial);
      io.Vec(r.checkpoint.mv_latest);
      io.Vec(r.checkpoint.active);
      break;
  }
}

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  return FrameFields(record);
}

Status ReadWal(const LogDevice& device, WalScan* out) {
  return ReadLog(device, out);
}

void WalWriter::Append(const WalRecord& record) {
  const bool is_checkpoint = record.type == WalRecordType::kCheckpoint;
  frames_.AppendFields(record, is_checkpoint,
                       is_checkpoint || record.type == WalRecordType::kCommit);
}

}  // namespace mdbs::storage
