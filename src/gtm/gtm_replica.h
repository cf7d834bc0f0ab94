#ifndef MDBS_GTM_GTM_REPLICA_H_
#define MDBS_GTM_GTM_REPLICA_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "gtm/gtm1.h"
#include "gtm/gtm2.h"
#include "gtm/gtm_log.h"
#include "obs/event_sink.h"
#include "sim/task_runner.h"
#include "storage/log_device.h"

namespace mdbs::gtm {

/// Counters of the durable GTM.
struct GtmDurabilityStats {
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t checkpoints = 0;
  int64_t crashes = 0;
  int64_t recoveries = 0;
  /// Log records scanned across all recoveries.
  int64_t replayed_records = 0;
  int64_t replayed_bytes = 0;
  /// GTM2 mutations (enqueues + cleanups) re-applied by a cold recovery or
  /// in a promotion tail.
  int64_t replayed_enqueues = 0;
  /// Mid-commit attempts forward-rolled to completion after a crash.
  int64_t resumed_commits = 0;
  /// In-flight attempts aborted at recovery and retried via fresh attempts.
  int64_t recovery_aborted_attempts = 0;
  /// Submissions that arrived during an outage and were buffered.
  int64_t buffered_submits = 0;
  /// Modeled replay ticks charged before resuming.
  int64_t recovery_ticks = 0;
  /// Sync barriers forced by the flush policy (`--wal_fsync=`).
  int64_t wal_syncs = 0;
};

/// Warm-standby shipping and failover counters (all zero when no standby is
/// configured).
struct GtmStandbyStats {
  int64_t shipped_records = 0;
  int64_t shipped_bytes = 0;
  /// Shipped frames the standby applied into its shadow state. The
  /// durable tail a promotion reads back is not among them (lag_records
  /// counts it), so once quiescent shipped = applied + dropped_frames.
  int64_t applied_records = 0;
  int64_t applied_bytes = 0;
  /// Durable-but-unshipped backlog at promotion time: the records the
  /// promoted standby had to read from the primary's log before taking
  /// over — the whole kept log when it lacked the kept checkpoint. This —
  /// not the log length — bounds failover unavailability.
  int64_t lag_records = 0;
  int64_t lag_bytes = 0;
  int64_t promotions = 0;
  int64_t fencing_epoch = 0;
  /// Commit acks that reached the fenced primary after the promotion, plus
  /// recoveries of it that were refused.
  int64_t stale_rejections = 0;
  /// Frames that arrived after promotion (shipped by the fenced primary's
  /// final strand turns) and were discarded.
  int64_t dropped_frames = 0;
};

/// The durable GTM (Gtm1Config::durable): one logical GTM that survives
/// crashes, around a plain Gtm1 that only drives global transactions
/// (Figure 1). It owns what durability adds: the GTM WAL, to which every
/// record Gtm1 journals is appended before it takes effect, with a
/// checkpoint of Gtm1's snapshot every `checkpoint_interval` records; the
/// crash and the outage, during which clients' jobs wait in the registry
/// and their submissions in a buffer; and the optional warm standby, a
/// follower fed every frame the primary appends, plus its fencing epoch.
///
/// Once a checkpoint's frame is on the WAL, the shared frame writer
/// discards everything before it (`LogDevice::DiscardPrefix`), as for the
/// site WAL: the log keeps one checkpoint and the records since. Log
/// positions still count every record written, so kept record i sits at
/// position `discarded records + i`; the standby's frame sequence numbers
/// are such positions.
///
/// Recovery is one catch-up path: a follower (a GtmLogReplayer plus a
/// GTM2 of its own) applies log records one at a time, then Gtm1::Install
/// takes its analysis and its GTM2. Cold Recover() runs a fresh follower
/// over the GTM's kept log; Promote() runs the standby's follower over the
/// primary's unshipped tail, or over the whole kept log when the standby
/// has not yet received the kept checkpoint. They differ only in where the
/// records come from and in how the aborted attempts become durable: cold
/// recovery appends them to the log it replayed, a promoted node opens its
/// own log with a checkpoint that holds them. All methods run on the GTM
/// strand.
class GtmReplica : private SiteGateway {
 public:
  /// Builds the Gtm1 and the WAL on `config.wal_device` (a fresh in-memory
  /// device when null). `standby` adds the warm standby, which receives
  /// each frame `standby_lag` ticks after its append; the WAL must then
  /// start empty, because frames are numbered by log position from zero.
  GtmReplica(const Gtm1Config& config, sim::TaskRunner* loop,
             SiteGateway* gateway, uint64_t seed,
             const obs::EventSink& events, bool standby,
             sim::Time standby_lag);
  ~GtmReplica() override;

  GtmReplica(const GtmReplica&) = delete;
  GtmReplica& operator=(const GtmReplica&) = delete;

  /// The live GTM1. The same object before and after a crash or a
  /// promotion.
  Gtm1& gtm1() { return *gtm1_; }
  const Gtm1& gtm1() const { return *gtm1_; }

  /// Gtm1::Submit, or buffered while the GTM is down and admitted in
  /// arrival order when it resumes. Results carry the fencing epoch.
  void Submit(GlobalTxnSpec spec, Gtm1::ResultCallback cb);

  /// Gtm1::OnSiteDown/OnSiteUp; ignored while the GTM is down, because
  /// recovery takes the health monitor's view at that time instead.
  void OnSiteDown(SiteId site);
  void OnSiteUp(SiteId site);

  /// Crashes the primary (Gtm1::Crash). Returns false, doing nothing, when
  /// the GTM is already down or the standby was promoted.
  bool Crash();

  /// Restarts the crashed primary from its log: a fresh follower analyzes
  /// what the log kept, from its checkpoint (or from the head before the
  /// first), and replays GTM2 from the latest checkpoint, audited.
  /// The GTM resumes after recovery_base_time + recovery_time_per_record *
  /// records. `down_sites` is the health monitor's current down set. No-op
  /// unless down; after a promotion the primary is fenced out, and the
  /// call is refused and counted as a stale rejection.
  void Recover(const std::vector<SiteId>& down_sites);

  /// Fails over to the warm standby while the primary is down: bumps the
  /// fencing epoch, applies the durable records the standby has not
  /// received (the tail; the whole kept log when the standby lacks the
  /// kept checkpoint), installs, and opens a fresh WAL with a checkpoint.
  /// Resumes after recovery_base_time + recovery_time_per_record * tail
  /// records. No-op once promoted.
  void Promote(const std::vector<SiteId>& down_sites);

  bool IsDown() const { return down_; }
  bool promoted() const { return promoted_; }

  GtmDurabilityStats durability_stats() const;
  GtmStandbyStats standby_stats() const;

  /// The log the GTM writes now: the primary's, or after a promotion the
  /// promoted node's own.
  storage::LogDevice* wal_device() const { return wal_device_.get(); }

  /// The device a promotion opens the promoted node's WAL on; a fresh
  /// in-memory device when none is set.
  void SetPromotionWalDevice(std::shared_ptr<storage::LogDevice> device) {
    promotion_wal_device_ = std::move(device);
  }

 private:
  struct Follower;

  // SiteGateway, for the Gtm1: passes every call through and fences commit
  // acks. After a promotion, an ack the fenced primary is still waiting
  // for is rejected and counted instead of advancing a commit cursor the
  // promoted node re-drives.
  lcc::ProtocolKind ProtocolAt(SiteId site) const override;
  void Begin(SiteId site, TxnId txn, GlobalTxnId global,
             TxnCallback cb) override;
  void Submit(SiteId site, TxnId txn, const DataOp& op,
              OpCallback cb) override;
  void Commit(SiteId site, TxnId txn, TxnCallback cb) override;
  void Abort(SiteId site, TxnId txn, TxnCallback cb) override;

  /// Gtm1::Submit with the result stamped with the fencing epoch.
  void Admit(GlobalTxnSpec spec, Gtm1::ResultCallback cb);
  /// The journal: appends `record` to the WAL, if one is open, ships it to
  /// the standby, and schedules a checkpoint when the interval elapsed.
  void Record(const GtmLogRecord& record);
  void MaybeScheduleCheckpoint();
  void TakeCheckpoint();
  void OpenWal(std::shared_ptr<storage::LogDevice> device);

  /// A follower with a fresh GTM2 that has no callbacks and no subscribers.
  std::unique_ptr<Follower> NewFollower() const;
  /// Applies the record at the follower's next log position to its
  /// analysis and, with `into_gtm2`, through ReplayIntoGtm2; true when that
  /// replayed a GTM2 mutation.
  bool CatchUp(Follower* follower, const GtmLogRecord& record,
               bool into_gtm2);
  /// Standby: applies one frame the primary shipped, at log position
  /// `seq`.
  void ReceiveShippedFrame(int64_t seq, std::vector<uint8_t> frame);
  /// The catch-up both recoveries share: audits the follower's GTM2 like
  /// the live one, applies `records` from `from` on (into GTM2 from
  /// `gtm2_from` on), and installs the result and the clients in Gtm1.
  void CatchUpAndInstall(Follower* follower,
                         const std::vector<GtmLogRecord>& records,
                         size_t from, size_t gtm2_from,
                         const std::vector<SiteId>& down_sites);
  /// Counts `records` / `bytes` as replayed, charges recovery_base_time +
  /// per_record * records, and resumes after that delay.
  void ChargeReplayThenResume(int64_t records, int64_t bytes, bool promoted);
  void Resume(int64_t replayed_records, bool promoted);

  Gtm1Config config_;
  sim::TaskRunner* loop_;
  SiteGateway* gateway_;
  uint64_t seed_;
  const obs::EventSink& events_;
  sim::Time standby_lag_;
  std::unique_ptr<Gtm1> gtm1_;

  std::shared_ptr<storage::LogDevice> wal_device_;
  /// Discards the WAL below each checkpoint and keeps the kept base. Its
  /// records count from the log head whenever a standby is attached (the
  /// WAL must then start empty).
  std::unique_ptr<GtmLogWriter> wal_;
  std::shared_ptr<storage::LogDevice> promotion_wal_device_;
  bool checkpoint_scheduled_ = false;
  bool down_ = false;
  /// Between Recover()/Promote() and the delayed resume.
  bool recovering_ = false;
  GtmDurabilityStats durability_;
  /// The client registry: what the clients of the unfinished jobs hold
  /// across an outage, from Crash() to the install.
  Gtm1::Clients clients_;
  /// Submissions that arrived while the GTM was down, in arrival order.
  std::vector<std::pair<GlobalTxnSpec, Gtm1::ResultCallback>> pending_;

  /// The warm standby's follower; null without a standby.
  std::unique_ptr<Follower> standby_;
  bool promoted_ = false;
  GtmStandbyStats standby_stats_;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_GTM_REPLICA_H_
