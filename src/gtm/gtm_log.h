#ifndef MDBS_GTM_GTM_LOG_H_
#define MDBS_GTM_GTM_LOG_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "gtm/gtm1.h"
#include "gtm/gtm2.h"
#include "gtm/queue_op.h"
#include "gtm/scheme.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace mdbs::gtm {

/// Record types of the GTM write-ahead log. The log captures every GTM
/// state transition that recovery needs: job admission, attempt lifecycle,
/// sub-transaction creation, every GTM2 mutation (enqueue / abort cleanup —
/// the scheme DS and WAIT are deterministic functions of that sequence),
/// commit progress for forward-rolling, and quarantine churn. What is
/// deliberately NOT logged: site responses other than reads (recovery
/// aborts non-committing attempts instead of resuming mid-step), and the
/// audit layer's ser(S) graph (an under-approximation after recovery is
/// safe — fewer edges can only miss, never fabricate, a cycle).
enum class GtmLogRecordType : uint8_t {
  kSubmit = 1,        // job admitted; time = submit tick
  kAttemptStart = 2,  // attempt created; index = 1-based attempt number
  kBeginSite = 3,     // sub-transaction allocated for (attempt, site)
  kRead = 4,          // data-op read observed (site, item, value)
  kEnqueue = 5,       // GTM2 enqueue of `op`
  kAbortCleanup = 6,  // GTM2 purge of a dead attempt
  kAttemptFail = 7,   // attempt retired; code = GtmAttemptFailReason
  kCommitStart = 8,   // validation passed, commit fan-out begins
  kCommitSite = 9,    // site #index committed (acked)
  kFinish = 10,       // job done; code = GtmFinishOutcome, index = attempts
  kPark = 11,         // job parked on a quarantined site
  kUnpark = 12,       // parked job resumed
  kSiteDown = 13,     // health monitor quarantined `site`
  kSiteUp = 14,       // quarantine lifted
  kCheckpoint = 15,   // full snapshot; replay restarts here
};

/// Outcome byte of a kFinish record.
enum class GtmFinishOutcome : uint8_t {
  kCommitted = 0,
  kGaveUp = 1,       // max_attempts exhausted
  kPartial = 2,      // partial commit; resubmission is unsafe
  kParkTimeout = 3,  // failed back while parked on a quarantined site
};

/// Checkpoint image: the complete durable GTM state at one log position.
/// Everything is encoded in deterministic (sorted / insertion) order so a
/// checkpoint taken at the same logical point always produces identical
/// bytes — the determinism battery depends on it.
struct GtmCheckpoint {
  struct JobImage {
    int64_t id = -1;
    int64_t submit_time = 0;
    int64_t attempts = 0;
    /// Live attempt id, -1 when the job is parked or in backoff.
    int64_t current_attempt = -1;
    bool parked = false;
  };
  struct AttemptImage {
    int64_t id = -1;
    int64_t job = -1;
    bool committing = false;
    /// Next site index to commit (committing attempts only).
    int64_t commit_index = 0;
    /// (site, sub-txn) in begin order.
    std::vector<std::pair<int64_t, int64_t>> subs;
    /// (site, item, value) sorted by (site, item).
    std::vector<std::array<int64_t, 3>> reads;
  };

  int64_t next_txn_id = 0;
  int64_t next_attempt_id = 0;
  int64_t next_job_id = 0;
  Gtm1Stats gtm1_stats;
  std::vector<JobImage> jobs;          // sorted by id
  std::vector<AttemptImage> attempts;  // sorted by id
  std::vector<int64_t> quarantined;    // sorted
  /// GTM2's volatile image (QUEUE is empty at every strand-turn boundary,
  /// so WAIT, the dead set, the counters and the scheme DS are all of it).
  Gtm2::VolatileImage gtm2;
};

/// One GTM WAL record. Field use depends on `type` (see the enum); unused
/// fields keep their defaults and are not encoded.
struct GtmLogRecord {
  GtmLogRecordType type = GtmLogRecordType::kSubmit;
  int64_t job = -1;
  int64_t attempt = -1;
  int64_t site = -1;
  int64_t sub = -1;
  int64_t item = 0;
  int64_t value = 0;
  /// kAttemptStart: attempt number; kCommitSite: committed site index;
  /// kFinish: attempts used.
  int64_t index = 0;
  /// kAttemptFail: GtmAttemptFailReason; kFinish: GtmFinishOutcome.
  uint8_t code = 0;
  /// kSubmit: submit tick.
  int64_t time = 0;
  /// kEnqueue only: the operation GTM1 put into GTM2's QUEUE.
  QueueOp op{};
  /// kCheckpoint only.
  GtmCheckpoint checkpoint{};
};

/// Encodes one record as a CRC-framed log frame (storage/framing.h — the
/// same framing the per-site WAL uses, with the GTM record's field list
/// inside).
std::vector<uint8_t> EncodeGtmLogRecord(const GtmLogRecord& record);

/// Decodes one frame payload (the bytes between the CRC header and the next
/// frame). Returns false on a structurally invalid payload. Public because
/// the warm standby decodes shipped frames one at a time, outside
/// ReadGtmLog's whole-device path.
bool DecodeGtmLogPayload(const uint8_t* data, size_t size,
                         GtmLogRecord* record);

using GtmLogScan = storage::LogScan<GtmLogRecord>;

/// storage::ReadLog over the GTM log.
Status ReadGtmLog(const storage::LogDevice& device, GtmLogScan* out);

/// Appends GTM records through the shared frame writer. A kCheckpoint
/// append resets records_since_checkpoint() and discards the log below it.
class GtmLogWriter {
 public:
  explicit GtmLogWriter(storage::LogDevice* device) : frames_(device) {}

  GtmLogWriter(const GtmLogWriter&) = delete;
  GtmLogWriter& operator=(const GtmLogWriter&) = delete;

  /// Replaces the sync policy (default: every commit point). GTM commit
  /// points are kCommitStart, kFinish and kCheckpoint — the records whose
  /// loss would lose an acknowledged global decision.
  void SetSyncConfig(const storage::WalSyncConfig& config) {
    frames_.SetSyncConfig(config);
  }

  /// Returns the CRC-framed bytes the device got, valid until the next
  /// append: what the warm standby is shipped.
  std::span<const uint8_t> Append(const GtmLogRecord& record);

  int64_t records_written() const { return frames_.records_written(); }
  int64_t bytes_written() const { return frames_.bytes_written(); }
  int64_t records_since_checkpoint() const {
    return frames_.records_since_checkpoint();
  }
  /// Sync barriers forced by the policy so far.
  int64_t syncs() const { return frames_.syncs(); }
  /// The kept base (storage::FrameWriter).
  int64_t discarded_records() const { return frames_.discarded_records(); }
  int64_t discarded_bytes() const { return frames_.discarded_bytes(); }

 private:
  storage::FrameWriter frames_;
};

/// Folds `record` into the counters it changes — the one counting rule:
/// Gtm1 applies it to every record it logs and GtmLogReplayer to every
/// record it replays, so a catch-up installs what the run counted. A
/// checkpoint counts nothing (it carries the counters); no record carries
/// fast_path_attempts.
void CountRecord(const GtmLogRecord& record, Gtm1Stats* stats);

/// GTM1 state derived from a (possibly truncated) GTM log: the latest
/// checkpoint, fast-forwarded through the suffix. Pure function of the
/// record sequence. GTM2's state is not part of it: ReplayIntoGtm2
/// rebuilds that.
struct GtmLogAnalysis {
  int64_t next_txn_id = 0;
  int64_t next_attempt_id = 0;
  int64_t next_job_id = 0;
  Gtm1Stats stats;
  /// Unfinished jobs, keyed by id (ordered — recovery resumes in id order).
  std::map<int64_t, GtmCheckpoint::JobImage> jobs;
  /// Live (not failed, not finished) attempts, keyed by id.
  std::map<int64_t, GtmCheckpoint::AttemptImage> attempts;
  /// Quarantine set as of the log end (sorted). Recovery supersedes it
  /// with the health monitor's current view; the fuzz oracle checks it.
  std::vector<int64_t> quarantined;
  /// Index of the latest kCheckpoint record, or npos. Replaying the
  /// records from here through ReplayIntoGtm2 rebuilds GTM2 exactly as
  /// replaying them from the log head does.
  static constexpr size_t kNoCheckpoint = static_cast<size_t>(-1);
  size_t checkpoint_index = kNoCheckpoint;
};

/// Builds a GtmLogAnalysis record by record: feed records one at a time
/// and read the running analysis at any point. A GTM catch-up
/// (GtmReplica) applies records through this and ReplayIntoGtm2 as they
/// arrive, so a warm standby's promotion only has to apply the unshipped
/// tail.
class GtmLogReplayer {
 public:
  GtmLogReplayer() = default;

  /// Applies the record at log position applied() to the running analysis.
  /// Structurally impossible sequences (references to unknown jobs or
  /// attempts, a submit or attempt_start that repeats a live id, an
  /// attempt_start for a job whose current attempt is still live, a
  /// checkpoint that repeats an id or holds an attempt of a job it lacks)
  /// are corruption: a non-OK status naming the record.
  Status Apply(const GtmLogRecord& record);

  const GtmLogAnalysis& analysis() const { return analysis_; }
  /// Records applied so far: the log position of the next one.
  int64_t applied() const { return applied_; }

 private:
  GtmLogAnalysis analysis_;
  int64_t applied_ = 0;
};

/// The one rule for turning a GTM log record back into a GTM2 call. Cold
/// recovery, the warm standby and the crash-point battery all replay the
/// log through it:
///   kEnqueue / kAbortCleanup — re-applies the mutation; returns true;
///   kCheckpoint — resets `gtm2` onto `fresh_scheme()` and restores the
///                 checkpoint's image (it supersedes every earlier
///                 mutation); returns false;
///   anything else — GTM1-only state; no-op, returns false.
/// Replaying a log from its head or from its latest checkpoint yields the
/// same GTM2 state.
bool ReplayIntoGtm2(
    const GtmLogRecord& record, Gtm2* gtm2,
    const std::function<std::unique_ptr<Scheme>()>& fresh_scheme);

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_GTM_LOG_H_
