#ifndef MDBS_STORAGE_WAL_H_
#define MDBS_STORAGE_WAL_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace mdbs::storage {

/// Write-ahead log record types. The log is logical-physical: redo carries
/// after-images, undo carries before-images, and compensation records (CLR)
/// make abort rollbacks repeatable on replay.
enum class WalRecordType : uint8_t {
  kBegin = 1,       // txn began; carries the global id and the protocol clock
  kWrite = 2,       // one write: item, before-image, after-image
  kClr = 3,         // rollback restored `item` to `value` (compensation)
  kCommit = 4,      // txn committed; carries the protocol clock
  kAbort = 5,       // txn abort completed (all its CLRs precede this)
  kCheckpoint = 6,  // fuzzy checkpoint image (store + active-txn undo)
};

/// A fuzzy checkpoint: the store as of the checkpoint (which may contain
/// uncommitted in-place writes), the undo entries needed to roll those back,
/// and everything recovery needs to avoid reading the log's prefix again.
/// All vectors are sorted so the encoded image is deterministic. Item,
/// MvInitial and MvVersion are all int64_t fields (kI64Fields), so their
/// tables are encoded and decoded as blocks (storage/framing.h).
struct CheckpointImage {
  struct Item {
    static constexpr int kI64Fields = 3;
    int64_t item = 0;
    int64_t value = 0;
    int64_t last_committed_writer = -1;

    friend bool operator==(const Item&, const Item&) = default;
  };
  struct MvInitial {
    static constexpr int kI64Fields = 2;
    int64_t item = 0;
    int64_t value = 0;

    friend bool operator==(const MvInitial&, const MvInitial&) = default;
  };
  struct ActiveTxn {
    int64_t txn = -1;
    int64_t global = -1;
    /// (item, before-image) in apply order — the txn's undo log so far.
    std::vector<std::pair<int64_t, int64_t>> undo;
  };
  struct MvVersion {
    static constexpr int kI64Fields = 4;
    int64_t item = 0;
    int64_t wts = 0;
    int64_t writer = -1;
    int64_t value = 0;

    friend bool operator==(const MvVersion&, const MvVersion&) = default;
  };

  int64_t clock = 0;  // Protocol clock at checkpoint time.
  std::vector<Item> items;
  /// Every transaction committed at this site so far, sorted. Carried so a
  /// restarted site still answers a duplicate Commit idempotently — the
  /// durable GTM forward-rolls its commit fan-out after its own crash, and
  /// the re-driven Commit may target a sub-transaction that committed (and
  /// was retired from the active table) before the site went down.
  std::vector<int64_t> committed;
  /// Multiversion sites: pre-first-committed-write images.
  std::vector<MvInitial> mv_initial;
  /// Multiversion sites: latest committed version per item in TIMESTAMP
  /// order, which can trail commit order (`items` is the commit-order
  /// mirror). Restarted readers must be reseeded from this table — serving
  /// the commit-order value would expose a version the pre-crash protocol
  /// never served and break serializability.
  std::vector<MvVersion> mv_latest;
  std::vector<ActiveTxn> active;
};

/// One decoded log record. Fields are meaningful per `type`; unused ones
/// keep their defaults.
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  int64_t txn = -1;
  int64_t global = -1;
  /// kBegin / kCommit: protocol clock. kWrite on multiversion sites: the
  /// writer's timestamp — version order, which can differ from log order.
  int64_t clock = 0;
  int64_t item = 0;    // kWrite / kClr
  int64_t before = 0;  // kWrite
  int64_t value = 0;   // kWrite after-image; kClr restored value
  CheckpointImage checkpoint;  // kCheckpoint only
};

/// Encodes one record as a CRC-framed byte string:
///   [u32 payload_len][u32 crc32(payload)][payload]
/// payload = [u8 type][little-endian fixed-width fields...], the record's
/// field list (wal.cc).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& record);

using WalScan = LogScan<WalRecord>;

/// ReadLog over the site WAL.
Status ReadWal(const LogDevice& device, WalScan* out);

/// Append-side of the log: a thin record schema over the shared CRC
/// framing (storage::FrameWriter), which also discards the log below each
/// checkpoint.
class WalWriter {
 public:
  explicit WalWriter(LogDevice* device) : frames_(device) {}

  /// Replaces the sync policy (default: every commit point). Commit points
  /// here are kCommit and kCheckpoint records — the records whose loss
  /// would lose an acknowledged commit.
  void SetSyncConfig(const WalSyncConfig& config) {
    frames_.SetSyncConfig(config);
  }

  /// Appends `record`; crashes the process on device errors (the in-memory
  /// device cannot fail; the file device failing is non-recoverable here).
  void Append(const WalRecord& record);

  int64_t records_written() const { return frames_.records_written(); }
  int64_t bytes_written() const { return frames_.bytes_written(); }
  /// Records appended since the last checkpoint record.
  int64_t records_since_checkpoint() const {
    return frames_.records_since_checkpoint();
  }
  /// Sync barriers forced by the policy so far.
  int64_t syncs() const { return frames_.syncs(); }

 private:
  FrameWriter frames_;
};

}  // namespace mdbs::storage

#endif  // MDBS_STORAGE_WAL_H_
