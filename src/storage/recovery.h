#ifndef MDBS_STORAGE_RECOVERY_H_
#define MDBS_STORAGE_RECOVERY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "storage/wal.h"

namespace mdbs::storage {

/// Everything restart recovery reconstructs from one site's log.
struct RecoveredState {
  /// The committed store: item -> value. Items absent here read as 0, like
  /// the live store. May materialize items a crash-free store would not
  /// (values rolled back to 0) — value-equal, not map-equal.
  std::unordered_map<int64_t, int64_t> store;
  /// item -> last committed writer (for reseeding multiversion protocols).
  std::unordered_map<int64_t, int64_t> last_writer;
  /// Multiversion sites: pre-first-committed-write images.
  std::unordered_map<int64_t, int64_t> mv_initial;
  struct MvVersion {
    int64_t wts = 0;
    int64_t writer = -1;
    int64_t value = 0;

    friend bool operator==(const MvVersion&, const MvVersion&) = default;
  };
  /// Multiversion sites: latest committed version per item in TIMESTAMP
  /// order. Can disagree with `store` (the commit-order mirror) when a
  /// lower-timestamped writer committed later; readers must be reseeded
  /// from this table, not from `store`.
  std::unordered_map<int64_t, MvVersion> mv_latest;
  /// Protocol clock to resume from: max clock persisted anywhere in the log.
  /// Counters recovered to >= this value keep timestamps / lock-point
  /// sequences / commit numbers monotone across the restart.
  int64_t clock = 0;
  /// Every transaction ever committed at this site (checkpoint-carried set
  /// plus kCommit records in the replay window) — restores the site's
  /// duplicate-Commit idempotency filter.
  std::unordered_set<int64_t> committed_set;

  // Replay statistics (surfaced in traces and the run report).
  int64_t scanned_records = 0;
  int64_t scanned_bytes = 0;
  int64_t redo_writes = 0;
  int64_t clr_replays = 0;
  int64_t undone_writes = 0;
  int64_t committed_txns = 0;
  int64_t loser_txns = 0;
  bool used_checkpoint = false;
  bool torn_tail = false;
};

/// Replays `device` ARIES-style: analysis from the last complete checkpoint
/// (who committed, who aborted, who was still active — the losers), redo of
/// committed writes and of every compensation record, then undo of the
/// losers' writes from their before-images (checkpoint-carried entries
/// included). Selective redo is sound here because every local protocol is
/// strict — an uncommitted write is never overwritten by another
/// transaction, so skipping loser writes cannot skip a committed value.
///
/// Corruption (a complete frame failing CRC or decode) returns a non-OK
/// status; a torn tail is admitted and flagged. `multiversion` selects
/// whether commit replay maintains the mv-initial-image table, mirroring
/// what the live site does.
Status RecoverWal(const LogDevice& device, bool multiversion,
                  RecoveredState* out);

}  // namespace mdbs::storage

#endif  // MDBS_STORAGE_RECOVERY_H_
