#include "gtm/gtm_replica.h"

#include <span>
#include <utility>

#include "common/logging.h"

namespace mdbs::gtm {

namespace {

/// Reads the whole GTM log on `device` and cuts a torn tail off it, so the
/// next append starts on a frame boundary.
GtmLogScan ReadLogCuttingTornTail(storage::LogDevice* device) {
  GtmLogScan scan;
  Status read = ReadGtmLog(*device, &scan);
  MDBS_CHECK(read.ok()) << read.message();
  if (scan.torn_tail) device->Truncate(static_cast<int64_t>(scan.valid_bytes));
  return scan;
}

}  // namespace

/// Catches a GTM up on a log, one record at a time: GTM1's side in the
/// running analysis, GTM2's in a GTM2 of its own.
struct GtmReplica::Follower {
  GtmLogReplayer replayer;
  std::unique_ptr<Gtm2> gtm2;
};

GtmReplica::GtmReplica(const Gtm1Config& config, sim::TaskRunner* loop,
                       SiteGateway* gateway, uint64_t seed,
                       const obs::EventSink& events, bool standby,
                       sim::Time standby_lag)
    : config_(config),
      loop_(loop),
      gateway_(gateway),
      seed_(seed),
      events_(events),
      standby_lag_(standby_lag),
      gtm1_(std::make_unique<Gtm1>(config, loop,
                                   static_cast<SiteGateway*>(this), seed,
                                   events)) {
  MDBS_CHECK(gtm1_->gtm2().scheme().SupportsSnapshot())
      << "durable GTM requires a snapshot-capable scheme; "
      << gtm1_->gtm2().scheme().Name() << " is not (Schemes 0-3 and the "
      << "certified fast path are)";
  OpenWal(config.wal_device != nullptr
              ? config.wal_device
              : std::make_shared<storage::MemLogDevice>());
  gtm1_->SetJournal([this](const GtmLogRecord& record) { Record(record); });
  if (!standby) return;
  MDBS_CHECK(wal_device_->Size() == 0)
      << "warm standby requires an empty GTM WAL: shipped frame sequence "
      << "numbers are log positions counted from zero";
  standby_ = NewFollower();
}

GtmReplica::~GtmReplica() = default;

lcc::ProtocolKind GtmReplica::ProtocolAt(SiteId site) const {
  return gateway_->ProtocolAt(site);
}

void GtmReplica::Begin(SiteId site, TxnId txn, GlobalTxnId global,
                       TxnCallback cb) {
  gateway_->Begin(site, txn, global, std::move(cb));
}

void GtmReplica::Submit(SiteId site, TxnId txn, const DataOp& op,
                        OpCallback cb) {
  gateway_->Submit(site, txn, op, std::move(cb));
}

void GtmReplica::Commit(SiteId site, TxnId txn, TxnCallback cb) {
  gateway_->Commit(site, txn,
                   [this, fence = standby_stats_.fencing_epoch,
                    cb = std::move(cb)](const Status& status) {
                     if (fence != standby_stats_.fencing_epoch) {
                       ++standby_stats_.stale_rejections;
                       return;
                     }
                     cb(status);
                   });
}

void GtmReplica::Abort(SiteId site, TxnId txn, TxnCallback cb) {
  gateway_->Abort(site, txn, std::move(cb));
}

void GtmReplica::Submit(GlobalTxnSpec spec, Gtm1::ResultCallback cb) {
  if (down_) {
    // The GTM is crashed or still replaying: the client's submission rides
    // out the outage in the admission buffer.
    ++durability_.buffered_submits;
    pending_.emplace_back(std::move(spec), std::move(cb));
    return;
  }
  Admit(std::move(spec), std::move(cb));
}

void GtmReplica::Admit(GlobalTxnSpec spec, Gtm1::ResultCallback cb) {
  gtm1_->Submit(std::move(spec), [this, cb = std::move(cb)](
                                     const GlobalTxnResult& result) {
    GlobalTxnResult stamped = result;
    stamped.gtm_epoch = standby_stats_.fencing_epoch;
    cb(stamped);
  });
}

void GtmReplica::OnSiteDown(SiteId site) {
  if (!down_) gtm1_->OnSiteDown(site);
}

void GtmReplica::OnSiteUp(SiteId site) {
  if (!down_) gtm1_->OnSiteUp(site);
}

void GtmReplica::OpenWal(std::shared_ptr<storage::LogDevice> device) {
  wal_device_ = std::move(device);
  wal_ = std::make_unique<GtmLogWriter>(wal_device_.get());
  wal_->SetSyncConfig(config_.wal_sync);
}

void GtmReplica::Record(const GtmLogRecord& record) {
  // A promotion installs between the primary's log and its own: what it
  // would log there, its first checkpoint holds.
  if (wal_ == nullptr) return;
  const std::span<const uint8_t> frame = wal_->Append(record);
  if (standby_ != nullptr && !promoted_) {
    // Ship the durable frame: it crosses the modeled network and lands
    // back on this strand standby_lag later (equal delays on one FIFO
    // strand keep frames in order).
    ++standby_stats_.shipped_records;
    standby_stats_.shipped_bytes += static_cast<int64_t>(frame.size());
    loop_->Schedule(standby_lag_,
                    [this, seq = wal_->records_written() - 1,
                     shipped = std::vector<uint8_t>(frame.begin(),
                                                    frame.end())]() mutable {
                      ReceiveShippedFrame(seq, std::move(shipped));
                    });
  }
  MaybeScheduleCheckpoint();
}

void GtmReplica::MaybeScheduleCheckpoint() {
  if (config_.checkpoint_interval <= 0 || checkpoint_scheduled_) return;
  if (wal_->records_since_checkpoint() < config_.checkpoint_interval) return;
  // Deferred to a strand-turn boundary, where GTM2's QUEUE is provably
  // empty and the volatile image is exactly WAIT + dead set + scheme DS.
  checkpoint_scheduled_ = true;
  int64_t crashes = durability_.crashes;
  loop_->Schedule(0, [this, crashes]() {
    checkpoint_scheduled_ = false;
    if (crashes != durability_.crashes || down_) return;
    TakeCheckpoint();
  });
}

void GtmReplica::TakeCheckpoint() {
  GtmLogRecord record;
  record.type = GtmLogRecordType::kCheckpoint;
  gtm1_->Snapshot(&record.checkpoint);
  Record(record);
  ++durability_.checkpoints;
}

GtmDurabilityStats GtmReplica::durability_stats() const {
  GtmDurabilityStats stats = durability_;
  if (wal_ != nullptr) {
    stats.wal_records += wal_->records_written();
    stats.wal_bytes += wal_->bytes_written();
    stats.wal_syncs += wal_->syncs();
  }
  return stats;
}

GtmStandbyStats GtmReplica::standby_stats() const { return standby_stats_; }

bool GtmReplica::Crash() {
  if (down_ || promoted_) return false;
  down_ = true;
  checkpoint_scheduled_ = false;
  ++durability_.crashes;
  // The clients outlive the GTM: they keep their specs, result callbacks
  // and submit times across the outage.
  clients_ = gtm1_->Crash();
  return true;
}

std::unique_ptr<GtmReplica::Follower> GtmReplica::NewFollower() const {
  auto follower = std::make_unique<Follower>();
  follower->gtm2 =
      std::make_unique<Gtm2>(gtm1_->MakeFreshScheme(), Gtm2::Callbacks{});
  return follower;
}

bool GtmReplica::CatchUp(Follower* follower, const GtmLogRecord& record,
                         bool into_gtm2) {
  Status applied = follower->replayer.Apply(record);
  MDBS_CHECK(applied.ok()) << applied.message();
  return into_gtm2 &&
         ReplayIntoGtm2(record, follower->gtm2.get(),
                        [this]() { return gtm1_->MakeFreshScheme(); });
}

void GtmReplica::Recover(const std::vector<SiteId>& down_sites) {
  if (promoted_) {
    // The standby was promoted past the primary while it was down: it is
    // fenced out and must stay dead — recovering would put two GTMs in
    // charge of the same jobs (split brain). Counted, refused.
    ++standby_stats_.stale_rejections;
    return;
  }
  if (!down_ || recovering_) return;
  recovering_ = true;
  ++durability_.recoveries;

  GtmLogScan scan = ReadLogCuttingTornTail(wal_device_.get());
  // The analysis validates the kept log, which starts at the checkpoint
  // everything before it was discarded below (or at the head, before the
  // first); GTM2 replays from the latest checkpoint, whose image
  // supersedes every earlier mutation.
  size_t first = 0;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == GtmLogRecordType::kCheckpoint) first = i;
  }
  CatchUpAndInstall(NewFollower().get(), scan.records, 0, first, down_sites);
  ChargeReplayThenResume(static_cast<int64_t>(scan.records.size()),
                         static_cast<int64_t>(scan.valid_bytes),
                         /*promoted=*/false);
}

void GtmReplica::ReceiveShippedFrame(int64_t seq, std::vector<uint8_t> frame) {
  if (promoted_) {
    // This frame was shipped by the fenced primary's final strand turns
    // and its content is (at most) a prefix of what the promotion already
    // read from the durable log. Count and drop.
    ++standby_stats_.dropped_frames;
    return;
  }
  MDBS_CHECK(seq == standby_->replayer.applied())
      << "shipped frame out of order: got seq " << seq << ", expected "
      << standby_->replayer.applied()
      << " (the shipping channel must be a FIFO)";
  std::span<const uint8_t> payload;
  MDBS_CHECK(storage::ReadSingleFrame(frame, &payload))
      << "malformed shipped frame at seq " << seq;
  GtmLogRecord record;
  MDBS_CHECK(DecodeGtmLogPayload(payload.data(), payload.size(), &record))
      << "undecodable shipped frame at seq " << seq;
  // The standby replays GTM2 from the log head, so promotion starts from
  // the primary's exact WAIT / dead-set / scheme state.
  CatchUp(standby_.get(), record, /*into_gtm2=*/true);
  ++standby_stats_.applied_records;
  standby_stats_.applied_bytes += static_cast<int64_t>(frame.size());
}

void GtmReplica::Promote(const std::vector<SiteId>& down_sites) {
  MDBS_CHECK(standby_ != nullptr) << "Promote() requires a standby";
  if (promoted_) return;
  MDBS_CHECK(down_)
      << "refusing to promote a standby while the primary is live";
  ++standby_stats_.promotions;

  // The primary's durable log is the ground truth; the shipping channel
  // had delivered a prefix of it. Read what the log kept, drop any torn
  // tail, and apply only the unshipped remainder — the lag that bounds
  // this failover's replay work, independent of total log length. Kept
  // record i sits at log position discarded + i. A standby that
  // has not yet received the kept checkpoint catches up from it instead:
  // the checkpoint supersedes the discarded records it still lacks.
  GtmLogScan scan = ReadLogCuttingTornTail(wal_device_.get());
  const int64_t applied = standby_->replayer.applied();
  const int64_t discarded = wal_->discarded_records();
  const int64_t kept = static_cast<int64_t>(scan.records.size());
  MDBS_CHECK(applied <= discarded + kept)
      << "standby applied " << applied << " records but the primary's log "
      << "only holds " << discarded + kept;
  const bool behind = applied < discarded;
  const size_t tail = behind ? 0 : static_cast<size_t>(applied - discarded);
  const int64_t tail_records = kept - static_cast<int64_t>(tail);
  standby_stats_.lag_records = tail_records;
  standby_stats_.lag_bytes =
      behind ? static_cast<int64_t>(scan.valid_bytes)
             : wal_->discarded_bytes() +
                   static_cast<int64_t>(scan.valid_bytes) -
                   standby_stats_.applied_bytes;

  // Fence: from here on, anything still acting under the old epoch — the
  // primary's in-flight commit acks, a stray Recover() — is stale.
  promoted_ = true;
  ++standby_stats_.fencing_epoch;
  events_.Emit({.kind = obs::TraceEventKind::kGtmPromoteBegin,
                .a = standby_stats_.fencing_epoch, .b = tail_records});

  // The promoted node: its GTM1 draws from its own stream, its GTM2 is the
  // standby's shadow, audited from the tail on, and its log is its own,
  // opened with a checkpoint of the installed state.
  recovering_ = true;
  durability_ = durability_stats();  // Keeps the primary WAL's counters.
  wal_.reset();
  gtm1_->Reseed(seed_ + 1);
  CatchUpAndInstall(standby_.get(), scan.records, tail, tail, down_sites);
  OpenWal(promotion_wal_device_ != nullptr
              ? std::move(promotion_wal_device_)
              : std::make_shared<storage::MemLogDevice>());
  TakeCheckpoint();

  // Unavailability model: the promoted GTM pays for the tail it had to
  // read back, not for the primary's whole log — the warm-standby claim.
  ChargeReplayThenResume(tail_records, standby_stats_.lag_bytes,
                         /*promoted=*/true);
}

void GtmReplica::CatchUpAndInstall(Follower* follower,
                                   const std::vector<GtmLogRecord>& records,
                                   size_t from, size_t gtm2_from,
                                   const std::vector<SiteId>& down_sites) {
  follower->gtm2->CopyAuditFrom(gtm1_->gtm2());
  for (size_t i = from; i < records.size(); ++i) {
    if (CatchUp(follower, records[i], i >= gtm2_from)) {
      ++durability_.replayed_enqueues;
    }
  }
  durability_.recovery_aborted_attempts += gtm1_->Install(
      follower->replayer.analysis(), std::move(follower->gtm2),
      std::exchange(clients_, {}), down_sites);
}

void GtmReplica::ChargeReplayThenResume(int64_t records, int64_t bytes,
                                        bool promoted) {
  durability_.replayed_records += records;
  durability_.replayed_bytes += bytes;
  // Model the replay cost: the GTM stays down for a further base + per-record
  // delay before it resumes driving transactions.
  sim::Time delay = config_.recovery_base_time +
                    config_.recovery_time_per_record * records;
  durability_.recovery_ticks += delay;
  int64_t crashes = durability_.crashes;
  loop_->Schedule(delay, [this, crashes, records, promoted]() {
    if (crashes != durability_.crashes) return;
    Resume(records, promoted);
  });
}

void GtmReplica::Resume(int64_t replayed_records, bool promoted) {
  down_ = false;
  recovering_ = false;
  events_.Emit({.kind = promoted ? obs::TraceEventKind::kGtmPromote
                                 : obs::TraceEventKind::kGtmRecover,
                .a = replayed_records, .b = gtm1_->InFlight()});
  durability_.resumed_commits += gtm1_->Resume();
  // Admit the submissions that arrived while the GTM was down, in arrival
  // order.
  for (auto& [spec, cb] : std::exchange(pending_, {})) {
    Admit(std::move(spec), std::move(cb));
  }
}

}  // namespace mdbs::gtm
