#ifndef MDBS_STORAGE_FRAMING_H_
#define MDBS_STORAGE_FRAMING_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/log_device.h"

namespace mdbs::storage {

/// CRC-32 (IEEE 802.3, reflected) over `size` bytes, with the values of
/// the bytewise algorithm. On x86-64 CPUs with PCLMULQDQ and SSE4.1 (read
/// once, at the first long span) the whole 16-byte blocks of a span of 64
/// bytes or more go through a carry-less-multiply kernel; shorter spans,
/// the tail and other CPUs take Crc32Tables's slice-by-8 tables.
uint32_t Crc32(const void* data, size_t size);

/// Crc32 through the slice-by-8 tables alone, whatever the CPU: eight table
/// lookups fold in eight bytes per step.
uint32_t Crc32Tables(const void* data, size_t size);

/// True when Crc32 takes the carry-less-multiply kernel on this CPU.
bool Crc32UsesCarrylessMultiply();

/// Little-endian fixed-width encoding, independent of host byte order so a
/// log written on one machine replays byte-for-byte on another.
inline void StoreU32(uint8_t* at, uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) at[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}
inline void StoreI64(uint8_t* at, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &u, sizeof(u));
  } else {
    for (int i = 0; i < 8; ++i) at[i] = static_cast<uint8_t>(u >> (8 * i));
  }
}

/// Appends one field to a growing buffer.
void PutU8(std::vector<uint8_t>* out, uint8_t v);
void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutI64(std::vector<uint8_t>* out, int64_t v);

/// Each record type has one field list, a function template
///   template <typename Io, FieldsOf<Record> R> void Fields(Io& io, R& r);
/// that hands every field in turn to `io`: a ByteCounter sizes the record,
/// a ByteWriter writes it, a Cursor reads it back (R is then non-const and
/// every field is read by reference). One list encodes and decodes, so the
/// two cannot drift apart. Beside U8/U32/I64, the three I/O types share
///   Bool(b)               one byte, 0 or 1;
///   Enum(e, first, last)  one byte; the reader refuses one outside
///                         [first, last];
///   Vec(v)                a u32 count, then each element (Field below)
///                         of a vector, deque or set;
///   Optional(o)           Bool(present), then the value if present.
template <typename R, typename Record>
concept FieldsOf = std::same_as<std::remove_const_t<R>, Record>;

/// True when a vector of T is written and read as one block of bytes: on a
/// little-endian host, for int64_t and for records that declare
///   static constexpr int kI64Fields = N;
/// because they are N int64_t fields, declared in the order their field
/// list names them, with no padding. The block then holds exactly the bytes
/// the fields would, one by one. Other hosts and types go field by field.
template <typename T>
constexpr bool IsFixedWidthTable() {
  if constexpr (std::endian::native != std::endian::little) {
    return false;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return true;
  } else if constexpr (requires { T::kI64Fields; }) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::has_unique_object_representations_v<T> &&
                      sizeof(T) == T::kI64Fields * sizeof(int64_t),
                  "kI64Fields promises int64_t fields and nothing else");
    return true;
  } else {
    return false;
  }
}

/// One element of a Vec: an integer, an id, a pair or array of those, a
/// container of those (a nested Vec), or a record with a field list of its
/// own (found by argument-dependent lookup).
template <typename Io, typename T>
void Field(Io& io, T& v) {
  using U = std::remove_const_t<T>;
  if constexpr (std::is_same_v<U, int64_t>) {
    io.I64(v);
  } else if constexpr (requires { v.value(); }) {
    int64_t raw = v.value();
    io.I64(raw);
    if constexpr (!std::is_const_v<T>) v = U(raw);
  } else if constexpr (requires { v.first; v.second; }) {
    Field(io, v.first);
    Field(io, v.second);
  } else if constexpr (requires { std::tuple_size<U>::value; }) {
    for (auto& element : v) Field(io, element);
  } else if constexpr (requires { typename U::value_type; v.size(); }) {
    io.Vec(v);
  } else {
    Fields(io, v);
  }
}

/// The helpers the two writers share, over the U8/U32/Bytes of `Out`.
template <typename Out>
class FieldWriter {
 public:
  void Bool(bool v) { out().U8(v ? 1 : 0); }
  template <typename E>
  void Enum(E v, E /*first*/, E /*last*/) {
    out().U8(static_cast<uint8_t>(v));
  }
  template <typename C>
  void Vec(const C& v) {
    using T = typename C::value_type;
    out().U32(static_cast<uint32_t>(v.size()));
    if constexpr (std::is_same_v<C, std::vector<T>> &&
                  (std::is_same_v<T, uint8_t> || IsFixedWidthTable<T>())) {
      out().Bytes(reinterpret_cast<const uint8_t*>(v.data()),
                  v.size() * sizeof(T));
    } else {
      for (const T& element : v) Field(out(), element);
    }
  }
  template <typename T>
  void Optional(const std::optional<T>& v) {
    Bool(v.has_value());
    if (v.has_value()) Field(out(), *v);
  }

 private:
  Out& out() { return static_cast<Out&>(*this); }
};

/// Sizes a record without writing it.
class ByteCounter : public FieldWriter<ByteCounter> {
 public:
  void U8(uint8_t) { size_ += 1; }
  void U32(uint32_t) { size_ += 4; }
  void I64(int64_t) { size_ += 8; }
  void Bytes(const uint8_t*, size_t size) { size_ += size; }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Writes a record in place into exactly the bytes ByteCounter sized.
class ByteWriter : public FieldWriter<ByteWriter> {
 public:
  explicit ByteWriter(uint8_t* out) : out_(out) {}
  void U8(uint8_t v) { *out_++ = v; }
  void U32(uint32_t v) {
    StoreU32(out_, v);
    out_ += 4;
  }
  void I64(int64_t v) {
    StoreI64(out_, v);
    out_ += 8;
  }
  void Bytes(const uint8_t* data, size_t size) {
    if (size > 0) std::memcpy(out_, data, size);
    out_ += size;
  }

 private:
  uint8_t* out_;
};

/// Bounds-checked little-endian decoding cursor. A structural overrun in a
/// CRC-valid payload still counts as corruption (ok() goes false).
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() {
    if (pos_ + 1 > size_) return Fail<uint8_t>();
    return data_[pos_++];
  }
  uint32_t U32() {
    if (pos_ + 4 > size_) return Fail<uint32_t>();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }
  int64_t I64() {
    if (pos_ + 8 > size_) return Fail<int64_t>();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return static_cast<int64_t>(v);
  }

  // The field-list forms: each reads into its argument.
  void U8(uint8_t& v) { v = U8(); }
  void U32(uint32_t& v) { v = U32(); }
  void I64(int64_t& v) { v = I64(); }
  void Bool(bool& v) { v = U8() != 0; }
  template <typename E>
  void Enum(E& v, E first, E last) {
    const uint8_t raw = U8();
    if (raw < static_cast<uint8_t>(first) ||
        raw > static_cast<uint8_t>(last)) {
      ok_ = false;
      return;
    }
    v = static_cast<E>(raw);
  }
  /// Every element takes at least one byte, so a count past the bytes left
  /// is refused before it sizes the vector; a fixed-width table's count is
  /// refused unless all its rows are there.
  template <typename C>
  void Vec(C& v) {
    using T = typename C::value_type;
    const uint32_t count = U32();
    if (count > size_ - pos_) {
      ok_ = false;
      return;
    }
    if constexpr (std::is_same_v<C, std::vector<uint8_t>>) {
      v.assign(data_ + pos_, data_ + pos_ + count);
      pos_ += count;
    } else if constexpr (std::is_same_v<C, std::vector<T>> &&
                         IsFixedWidthTable<T>()) {
      if (count > (size_ - pos_) / sizeof(T)) {
        ok_ = false;
        return;
      }
      v.resize(count);
      if (count > 0) std::memcpy(v.data(), data_ + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    } else if constexpr (requires { v.resize(count); }) {
      v.resize(count);
      for (T& element : v) {
        if (!ok_) return;
        Field(*this, element);
      }
    } else {
      v.clear();
      for (uint32_t i = 0; i < count && ok_; ++i) {
        T element{};
        Field(*this, element);
        v.insert(v.end(), std::move(element));
      }
    }
  }
  template <typename T>
  void Optional(std::optional<T>& v) {
    bool present = false;
    Bool(present);
    v.reset();
    if (present) Field(*this, v.emplace());
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  template <typename T>
  T Fail() {
    ok_ = false;
    return T{};
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

template <typename Record>
size_t FieldsSize(const Record& record) {
  ByteCounter counter;
  Fields(counter, record);
  return counter.size();
}

/// `record`'s fields, unframed.
template <typename Record>
std::vector<uint8_t> EncodeFields(const Record& record) {
  std::vector<uint8_t> out(FieldsSize(record));
  ByteWriter writer(out.data());
  Fields(writer, record);
  return out;
}

/// Reads `record`'s fields from the `size` bytes at `data`: false unless
/// every check passes and the fields end exactly where the bytes do.
template <typename Record>
bool DecodeFields(const uint8_t* data, size_t size, Record* record) {
  Cursor in(data, size);
  Fields(in, *record);
  return in.ok() && in.exhausted();
}

/// Bytes of the frame header: [u32 payload_len][u32 crc32(payload)].
inline constexpr size_t kFrameHeaderSize = 8;

/// Fills in the header of the `size`-byte `frame`, whose payload already
/// follows the kFrameHeaderSize bytes reserved for it. A frame is
///   [u32 payload_len][u32 crc32(payload)][payload]
/// This is the one framing implementation shared by the site WAL and the
/// GTM log; the two differ only in their payload (record) schemas.
void SealFrame(uint8_t* frame, size_t size);

/// Frames the `payload_size`-byte payload `encode(ByteWriter&)` writes.
template <typename Encode>
std::vector<uint8_t> FrameEncoded(size_t payload_size, Encode&& encode) {
  std::vector<uint8_t> frame(kFrameHeaderSize + payload_size);
  ByteWriter out(frame.data() + kFrameHeaderSize);
  encode(out);
  SealFrame(frame.data(), frame.size());
  return frame;
}

/// Frames `record`'s fields.
template <typename Record>
std::vector<uint8_t> FrameFields(const Record& record) {
  return FrameEncoded(FieldsSize(record),
                      [&record](ByteWriter& out) { Fields(out, record); });
}

/// Checks that `frame` is exactly one complete frame — a header, a payload
/// of the length it states and a matching CRC, nothing more — and points
/// `payload` at its payload. Reads one frame in place, without allocating
/// (ScanFrames splits a whole image). False when any check fails.
bool ReadSingleFrame(std::span<const uint8_t> frame,
                     std::span<const uint8_t>* payload);

/// Result of scanning a framed device image front to back, before any
/// payload decoding.
struct FrameScan {
  /// (offset, length) of each complete, CRC-valid payload in the image.
  std::vector<std::pair<size_t, size_t>> payloads;
  /// Byte offset just past frame i — the admissible truncation points.
  std::vector<size_t> boundaries;
  /// Bytes covered by complete, CRC-valid frames.
  size_t valid_bytes = 0;
  /// True when trailing bytes form an incomplete frame — the torn tail a
  /// crash mid-append legitimately leaves. The tail is ignored.
  bool torn_tail = false;
};

/// Splits `image` into frames. A complete frame whose CRC is invalid is
/// corruption — returns a non-OK status (recovery must fail loudly, never
/// silently diverge). An incomplete trailing frame is a torn tail:
/// admitted, flagged, ignored.
Status ScanFrames(const std::vector<uint8_t>& image, FrameScan* out);

/// A log device's image read front to back: FrameScan with each payload
/// decoded into a record.
template <typename Record>
struct LogScan {
  std::vector<Record> records;
  /// Byte offset just past record i — the admissible truncation points.
  std::vector<size_t> boundaries;
  size_t valid_bytes = 0;
  bool torn_tail = false;
};

/// The one reader of both logs: splits the device's image into frames
/// (ScanFrames) and decodes each payload through its record's field list.
/// A payload that fails DecodeFields is corruption, as a CRC mismatch is;
/// a torn tail is flagged and ignored.
template <typename Record>
Status ReadLog(const LogDevice& device, LogScan<Record>* out) {
  *out = LogScan<Record>{};
  std::vector<uint8_t> image;
  MDBS_RETURN_IF_ERROR(device.ReadAll(&image));
  FrameScan frames;
  MDBS_RETURN_IF_ERROR(ScanFrames(image, &frames));
  out->records.resize(frames.payloads.size());
  for (size_t i = 0; i < frames.payloads.size(); ++i) {
    const auto [offset, size] = frames.payloads[i];
    if (!DecodeFields(image.data() + offset, size, &out->records[i])) {
      std::string message = "log corruption: undecodable frame at byte ";
      message.append(std::to_string(offset - kFrameHeaderSize));
      return Status::Internal(message);
    }
  }
  out->boundaries = std::move(frames.boundaries);
  out->valid_bytes = frames.valid_bytes;
  out->torn_tail = frames.torn_tail;
  return Status::OK();
}

/// When the log's backing device distinguishes "appended" from "on stable
/// storage" (the file device), this decides when the writer forces a sync
/// barrier. The in-memory device is stable by construction, so the policy
/// only changes the `wal.syncs` counter there — which is exactly the point:
/// the report states what policy actually ran.
enum class WalSyncPolicy : uint8_t {
  kEveryCommit,  // sync at every commit-point record (commits, checkpoints)
  kInterval,     // sync every `interval` records, commit or not
  kOff,          // never sync explicitly (device-level flushing only)
};

struct WalSyncConfig {
  WalSyncPolicy policy = WalSyncPolicy::kEveryCommit;
  /// Records per sync under kInterval (must be >= 1 there; ignored
  /// otherwise).
  int64_t interval = 64;
};

/// Parses `every_commit` | `interval:N` | `off` (the `--wal_fsync=` flag
/// language). N must be a positive integer.
StatusOr<WalSyncConfig> ParseWalSyncSpec(const std::string& spec);

/// Append-side shared by both logs: frames and appends payloads, counting
/// bytes and records for the checkpoint trigger and the run report.
///
/// Once a checkpoint's frame is on the device, everything before that frame
/// is discarded (`LogDevice::DiscardPrefix`): recovery and a lagging
/// standby start from the last complete checkpoint and never read what
/// precedes it, so the device keeps at most one checkpoint and the records
/// appended since (ARIES truncates its log below the redo point of the last
/// checkpoint the same way). A device that keeps its history (the LogDevice
/// default) discards nothing.
class FrameWriter {
 public:
  explicit FrameWriter(LogDevice* device) : device_(device) {}

  /// Replaces the sync policy (default: every commit point).
  void SetSyncConfig(const WalSyncConfig& config) { sync_ = config; }

  /// Frames and appends `payload`; crashes the process on device errors
  /// (the in-memory device cannot fail; the file device failing is
  /// non-recoverable here). `is_commit_point` marks records whose loss
  /// would lose an acknowledged decision (commits, checkpoints) — the sync
  /// policy's kEveryCommit trigger.
  void AppendPayload(const std::vector<uint8_t>& payload, bool is_checkpoint,
                     bool is_commit_point = false);

  /// As AppendPayload, for the `payload_size`-byte payload
  /// `encode(ByteWriter&)` writes straight into the frame buffer. Returns
  /// the appended frame, valid until the next append.
  template <typename Encode>
  std::span<const uint8_t> AppendEncoded(size_t payload_size,
                                         Encode&& encode, bool is_checkpoint,
                                         bool is_commit_point = false) {
    uint8_t* frame = StartFrame(kFrameHeaderSize + payload_size);
    ByteWriter out(frame + kFrameHeaderSize);
    encode(out);
    return AppendFrame(is_checkpoint, is_commit_point);
  }

  /// As AppendEncoded, for `record`'s fields.
  template <typename Record>
  std::span<const uint8_t> AppendFields(const Record& record,
                                        bool is_checkpoint,
                                        bool is_commit_point) {
    auto encode = [&record](ByteWriter& out) { Fields(out, record); };
    return AppendEncoded(FieldsSize(record), encode, is_checkpoint,
                         is_commit_point);
  }

  int64_t records_written() const { return records_written_; }
  int64_t bytes_written() const { return bytes_written_; }
  /// Records appended since the last checkpoint record.
  int64_t records_since_checkpoint() const {
    return records_since_checkpoint_;
  }
  /// Sync barriers forced so far (`wal.syncs` in the run report).
  int64_t syncs() const { return syncs_; }
  /// The kept base: the records and bytes discarded so far. Records count
  /// from this writer's first, so kept record i is the writer's record
  /// discarded_records() + i.
  int64_t discarded_records() const { return discarded_records_; }
  int64_t discarded_bytes() const { return discarded_bytes_; }

 private:
  /// Makes the frame buffer hold `size` bytes and returns it. The buffer
  /// only grows, and is never zero-filled: the encoder overwrites every
  /// byte of the frame, so filling a large checkpoint frame with zeros
  /// first would be wasted work.
  uint8_t* StartFrame(size_t size);
  /// Seals the frame, appends it to the device, applies the sync policy
  /// and, after a checkpoint, discards the device below it.
  std::span<const uint8_t> AppendFrame(bool is_checkpoint,
                                       bool is_commit_point);

  LogDevice* device_;
  WalSyncConfig sync_;
  /// The frame being appended: the first `frame_size_` of the
  /// `capacity_` bytes at `buffer_`, reused so appends do not allocate.
  std::unique_ptr<uint8_t[]> buffer_;
  size_t capacity_ = 0;
  size_t frame_size_ = 0;
  int64_t records_written_ = 0;
  int64_t bytes_written_ = 0;
  int64_t records_since_checkpoint_ = 0;
  int64_t records_since_sync_ = 0;
  int64_t syncs_ = 0;
  int64_t discarded_records_ = 0;
  int64_t discarded_bytes_ = 0;
};

}  // namespace mdbs::storage

#endif  // MDBS_STORAGE_FRAMING_H_
