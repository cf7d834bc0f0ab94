#include "storage/framing.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define MDBS_CRC32_CLMUL 1
#endif

namespace mdbs::storage {
namespace {

/// kCrcTables[0] is the bytewise table of the reflected polynomial;
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, which
/// lets one step fold in eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t LoadU32(const uint8_t* at) {
  return uint32_t{at[0]} | (uint32_t{at[1]} << 8) | (uint32_t{at[2]} << 16) |
         (uint32_t{at[3]} << 24);
}

/// Folds `size` bytes into the CRC register `crc`, eight bytes per step.
/// The register's initial and final inversions are the caller's.
uint32_t UpdateTables(uint32_t crc, const uint8_t* bytes, size_t size) {
  for (; size >= 8; bytes += 8, size -= 8) {
    uint32_t lo = LoadU32(bytes) ^ crc;
    uint32_t hi = LoadU32(bytes + 4);
    crc = kCrcTables[7][lo & 0xFF] ^ kCrcTables[6][(lo >> 8) & 0xFF] ^
          kCrcTables[5][(lo >> 16) & 0xFF] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFF] ^ kCrcTables[2][(hi >> 8) & 0xFF] ^
          kCrcTables[1][(hi >> 16) & 0xFF] ^ kCrcTables[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kCrcTables[0][(crc ^ *bytes) & 0xFF];
  }
  return crc;
}

#ifdef MDBS_CRC32_CLMUL

__attribute__((target("pclmul,sse4.1"))) __m128i Load128(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// `lane` moved forward by the distance the constants `k` encode, plus
/// `next`.
__attribute__((target("pclmul,sse4.1"))) __m128i Fold(__m128i lane,
                                                       __m128i k,
                                                       __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Folds `size` bytes, a multiple of 16 and at least 64, into the CRC
/// register `crc` with carry-less multiplies (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
/// 2009): four 128-bit lanes fold 64 bytes per step; then the lanes fold
/// into one, which takes the remaining 16-byte blocks; a Barrett reduction
/// takes its 128 bits down to the 32-bit register. The constants are
/// x^k mod P for the reflected IEEE polynomial P, bit-reflected, as the
/// paper derives them.
__attribute__((target("pclmul,sse4.1"))) uint32_t UpdateClmul(
    uint32_t crc, const uint8_t* bytes, size_t size) {
  // Moves a lane 512 bits forward (k1, k2), or 128 bits (k3, k4).
  const __m128i fold4 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i fold1 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // Folds 64 bits into 32 (k5).
  const __m128i fold64 = _mm_set_epi64x(0, 0x163cd6124);
  // P and floor(x^64 / P), for the Barrett reduction.
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  const __m128i initial = _mm_cvtsi32_si128(static_cast<int>(crc));
  __m128i x1 = _mm_xor_si128(Load128(bytes), initial);
  __m128i x2 = Load128(bytes + 16);
  __m128i x3 = Load128(bytes + 32);
  __m128i x4 = Load128(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = Fold(x1, fold4, Load128(bytes));
    x2 = Fold(x2, fold4, Load128(bytes + 16));
    x3 = Fold(x3, fold4, Load128(bytes + 32));
    x4 = Fold(x4, fold4, Load128(bytes + 48));
  }
  x1 = Fold(x1, fold1, x2);
  x1 = Fold(x1, fold1, x3);
  x1 = Fold(x1, fold1, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold(x1, fold1, Load128(bytes));
  }

  // 128 bits to 64, then to the 64 the Barrett reduction takes.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, fold1, 0x10));
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, low32), fold64, 0x00));
  // Barrett: the quotient's low 32 bits, times P, cancel all but the
  // remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // MDBS_CRC32_CLMUL

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#ifdef MDBS_CRC32_CLMUL
  if (size >= 64 && Crc32UsesCarrylessMultiply()) {
    const size_t blocks = size & ~size_t{15};
    crc = UpdateClmul(crc, bytes, blocks);
    bytes += blocks;
    size -= blocks;
  }
#endif
  return UpdateTables(crc, bytes, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Tables(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  return UpdateTables(0xFFFFFFFFu, bytes, size) ^ 0xFFFFFFFFu;
}

bool Crc32UsesCarrylessMultiply() {
#ifdef MDBS_CRC32_CLMUL
  static const bool has_clmul = CpuHasClmul();
  return has_clmul;
#else
  return false;
#endif
}

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->resize(out->size() + 4);
  StoreU32(out->data() + out->size() - 4, v);
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  out->resize(out->size() + 8);
  StoreI64(out->data() + out->size() - 8, v);
}

void SealFrame(uint8_t* frame, size_t size) {
  MDBS_CHECK(size >= kFrameHeaderSize);
  size_t payload_size = size - kFrameHeaderSize;
  StoreU32(frame, static_cast<uint32_t>(payload_size));
  StoreU32(frame + 4, Crc32(frame + kFrameHeaderSize, payload_size));
}

bool ReadSingleFrame(std::span<const uint8_t> frame,
                     std::span<const uint8_t>* payload) {
  if (frame.size() < kFrameHeaderSize) return false;
  const uint32_t len = LoadU32(frame.data());
  const uint32_t crc = LoadU32(frame.data() + 4);
  if (frame.size() - kFrameHeaderSize != len) return false;
  *payload = frame.subspan(kFrameHeaderSize);
  return Crc32(payload->data(), payload->size()) == crc;
}

Status ScanFrames(const std::vector<uint8_t>& image, FrameScan* out) {
  *out = FrameScan{};
  size_t pos = 0;
  while (pos < image.size()) {
    if (image.size() - pos < 8) {
      out->torn_tail = true;  // Not even a full header.
      break;
    }
    const uint32_t len = LoadU32(image.data() + pos);
    const uint32_t crc = LoadU32(image.data() + pos + 4);
    if (image.size() - pos - 8 < len) {
      out->torn_tail = true;  // Frame extends past the end of the device.
      break;
    }
    const uint8_t* payload = image.data() + pos + 8;
    if (Crc32(payload, len) != crc) {
      return Status::Internal(
          "log corruption: CRC mismatch in frame at byte " +
          std::to_string(pos));
    }
    out->payloads.emplace_back(pos + 8, len);
    pos += 8 + len;
    out->boundaries.push_back(pos);
    out->valid_bytes = pos;
  }
  return Status::OK();
}

StatusOr<WalSyncConfig> ParseWalSyncSpec(const std::string& spec) {
  WalSyncConfig config;
  if (spec == "every_commit") {
    config.policy = WalSyncPolicy::kEveryCommit;
    return config;
  }
  if (spec == "off") {
    config.policy = WalSyncPolicy::kOff;
    return config;
  }
  constexpr const char* kIntervalPrefix = "interval:";
  if (spec.rfind(kIntervalPrefix, 0) == 0) {
    std::string digits = spec.substr(std::string(kIntervalPrefix).size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return Status::InvalidArgument("bad wal sync interval: '" + spec + "'");
    }
    config.policy = WalSyncPolicy::kInterval;
    config.interval = std::stoll(digits);
    if (config.interval < 1) {
      return Status::InvalidArgument("wal sync interval must be >= 1: '" +
                                     spec + "'");
    }
    return config;
  }
  return Status::InvalidArgument(
      "bad wal sync spec '" + spec +
      "' (want every_commit | interval:N | off)");
}

void FrameWriter::AppendPayload(const std::vector<uint8_t>& payload,
                                bool is_checkpoint, bool is_commit_point) {
  auto encode = [&](ByteWriter& out) {
    out.Bytes(payload.data(), payload.size());
  };
  AppendEncoded(payload.size(), encode, is_checkpoint, is_commit_point);
}

uint8_t* FrameWriter::StartFrame(size_t size) {
  if (size > capacity_) {
    // Geometric growth, as a vector's, so a checkpoint frame that grows a
    // little at every checkpoint does not reallocate every time.
    capacity_ = std::max(size, 2 * capacity_);
    buffer_ = std::make_unique_for_overwrite<uint8_t[]>(capacity_);
  }
  frame_size_ = size;
  return buffer_.get();
}

std::span<const uint8_t> FrameWriter::AppendFrame(bool is_checkpoint,
                                                  bool is_commit_point) {
  SealFrame(buffer_.get(), frame_size_);
  Status appended = device_->Append(buffer_.get(), frame_size_);
  MDBS_CHECK(appended.ok()) << appended.message();
  ++records_written_;
  bytes_written_ += static_cast<int64_t>(frame_size_);
  if (is_checkpoint) {
    records_since_checkpoint_ = 0;
  } else {
    ++records_since_checkpoint_;
  }
  ++records_since_sync_;
  bool sync_now = false;
  switch (sync_.policy) {
    case WalSyncPolicy::kEveryCommit:
      sync_now = is_commit_point;
      break;
    case WalSyncPolicy::kInterval:
      sync_now = records_since_sync_ >= sync_.interval;
      break;
    case WalSyncPolicy::kOff:
      break;
  }
  if (sync_now) {
    Status synced = device_->Sync();
    MDBS_CHECK(synced.ok()) << synced.message();
    ++syncs_;
    records_since_sync_ = 0;
  }
  if (is_checkpoint) {
    const int64_t frame_size = static_cast<int64_t>(frame_size_);
    const int64_t before = device_->Size();
    device_->DiscardPrefix(before - frame_size);
    const int64_t discarded = before - device_->Size();
    if (discarded > 0) {
      MDBS_CHECK(device_->Size() == frame_size)
          << "the log device kept part of the prefix it was told to discard";
      discarded_bytes_ += discarded;
      discarded_records_ = records_written_ - 1;
    }
  }
  return {buffer_.get(), frame_size_};
}

}  // namespace mdbs::storage
