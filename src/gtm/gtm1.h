#ifndef MDBS_GTM_GTM1_H_
#define MDBS_GTM_GTM1_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "gtm/global_txn.h"
#include "gtm/gtm2.h"
#include "gtm/serialization_function.h"
#include "obs/event_sink.h"
#include "sim/task_runner.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace mdbs::gtm {

struct GtmLogRecord;
struct GtmLogAnalysis;
class GtmLogWriter;
class GtmLogReplayer;

/// The "servers" of the paper (Figure 1): GTM1's asynchronous gateway to the
/// local DBMSs, one logical server per transaction per site. The MDBS
/// facade implements it over LocalDbms instances plus network delays.
class SiteGateway {
 public:
  using OpCallback = std::function<void(const Status&, int64_t value)>;
  using TxnCallback = std::function<void(const Status&)>;

  virtual ~SiteGateway() = default;

  virtual lcc::ProtocolKind ProtocolAt(SiteId site) const = 0;
  virtual void Begin(SiteId site, TxnId txn, GlobalTxnId global,
                     TxnCallback cb) = 0;
  virtual void Submit(SiteId site, TxnId txn, const DataOp& op,
                      OpCallback cb) = 0;
  virtual void Commit(SiteId site, TxnId txn, TxnCallback cb) = 0;
  virtual void Abort(SiteId site, TxnId txn, TxnCallback cb) = 0;
};

/// Shared between a warm-standby GTM pair: the failover fencing epoch plus
/// the count of stale-epoch rejections (gateway responses delivered, or
/// recovery attempted, under a superseded epoch). Promotion bumps `epoch`;
/// anything still acting under the old value is fenced out — the
/// split-brain guard. Mutated on the GTM strand only.
struct FencingToken {
  int64_t epoch = 0;
  int64_t stale_rejections = 0;
};

struct Gtm1Config {
  SchemeKind scheme = SchemeKind::kScheme3;
  /// Overrides `scheme` with a custom GTM2 scheme instance when set (used
  /// by the ablation experiments for scheme variants).
  std::function<std::unique_ptr<Scheme>()> scheme_factory;
  /// Ablation: place the forced-conflict ticket write after the last data
  /// operation at the site instead of right after begin. Shortens the
  /// ticket latch window at SGT sites at the cost of a later
  /// serialization point.
  bool ticket_last = false;
  /// Certified fast path: the static analyzer (src/analysis) proved the
  /// declared transaction mix conflict-robust, so every operation runs
  /// without GTM2 ser-op control and no ticket writes are injected. Pair
  /// it with scheme_factory = MakeRobustFastPath(scheme) so reports and
  /// the audit oracle keep the replaced scheme's kind. Each fast-path
  /// attempt records a kDowngrade trace event; the end-of-run oracle
  /// remains the runtime cross-check of the certificate.
  bool certified_fast_path = false;
  /// Base backoff before retrying an aborted attempt. The delay doubles per
  /// failed attempt up to `retry_backoff_cap`, with uniform jitter up to 2x
  /// (attempt 1 retries exactly as the pre-exponential code did).
  sim::Time retry_backoff = 500;
  /// Ceiling of the exponential backoff (before jitter).
  sim::Time retry_backoff_cap = 8000;
  /// Maximum attempts per global transaction before giving up.
  int max_attempts = 50;
  /// Abort an attempt whose next acknowledgement takes longer than this —
  /// the MDBS-level answer to cross-site blocking the paper leaves out of
  /// scope (it only treats serializability). 0 disables.
  sim::Time attempt_timeout = 200'000;
  /// How long a transaction may sit parked on a quarantined site before it
  /// is failed back to the caller instead of retried. 0 parks forever
  /// (until recovery or max_attempts elsewhere).
  sim::Time quarantine_park_timeout = 120'000;

  /// Durable GTM: write-ahead log every state transition (submission,
  /// attempt lifecycle, every GTM2 enqueue/cleanup, commit progress,
  /// park/quarantine churn) to `wal_device` before it takes effect, so
  /// Crash()/Recover() can rebuild the exact pre-crash WAIT/QUEUE/ticket
  /// state. Requires a snapshot-capable scheme (Schemes 0-3 / the
  /// certified fast path; the baselines are not).
  bool durable = false;
  /// Take a checkpoint after this many log records (0 disables; replay
  /// then starts from the log head).
  int64_t checkpoint_interval = 256;
  /// Modeled replay cost charged before the recovered GTM resumes:
  /// base + per_record * records.
  sim::Time recovery_base_time = 0;
  sim::Time recovery_time_per_record = 0;
  /// Backing device of the GTM WAL; a fresh in-memory device when null.
  std::shared_ptr<storage::LogDevice> wal_device;
  /// When to force the WAL to stable storage (mdbsim --wal_fsync=).
  storage::WalSyncConfig wal_sync;

  /// Warm standby: construct this GTM as the passive follower of a primary.
  /// It starts down (never submitted to directly), continuously applies
  /// WAL frames shipped via ReceiveShippedFrame into a live shadow GTM2,
  /// and only becomes active through Promote(). Requires `durable`; the
  /// standby always gets its own fresh `wal_device` (leave it null).
  bool standby = false;
  /// Fencing token shared across a primary/standby pair; self-created when
  /// null (single-GTM runs, where it never advances).
  std::shared_ptr<FencingToken> fence;
};

/// Counters of the durable GTM (all zero when Gtm1Config::durable is off).
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
/// configured). The shipped_* fields are counted by the shipping channel —
/// the MDBS facade's network model — and overlaid there; a bare Gtm1 fills
/// the applied/lag/promotion/fencing fields.
struct GtmStandbyStats {
  int64_t shipped_records = 0;
  int64_t shipped_bytes = 0;
  /// Frames applied into the shadow state (shipped ones plus the durable
  /// tail read back at promotion).
  int64_t applied_records = 0;
  int64_t applied_bytes = 0;
  /// Durable-but-unshipped backlog at promotion time: the records the
  /// promoted standby had to read from the primary's log before taking
  /// over. This — not the log length — bounds failover unavailability.
  int64_t lag_records = 0;
  int64_t lag_bytes = 0;
  int64_t promotions = 0;
  int64_t fencing_epoch = 0;
  int64_t stale_rejections = 0;
  /// Frames that arrived after promotion (shipped by the fenced primary's
  /// final strand turns) and were discarded.
  int64_t dropped_frames = 0;
};

/// Final outcome of one global transaction (across all its attempts).
struct GlobalTxnResult {
  Status status;
  int attempts = 0;
  sim::Time submit_time = 0;
  sim::Time finish_time = 0;
  /// Values read by the successful attempt, keyed by (site, item).
  ReadContext reads;
  /// False when some subtransactions committed before the failure (partial
  /// commit): resubmitting such a transaction would double-apply the
  /// committed sites' effects, so the driver's retry layer must not.
  bool retry_safe = true;
  /// Fencing epoch of the GTM that produced this result. Bumps at every
  /// standby promotion, so after a failover every response carries the new
  /// epoch — the no-split-brain acceptance check.
  int64_t gtm_epoch = 0;
};

struct Gtm1Stats {
  int64_t submitted = 0;
  int64_t committed = 0;
  int64_t failed = 0;           // Gave up after max_attempts.
  int64_t attempts = 0;
  int64_t aborted_attempts = 0;  // Local aborts + scheme aborts + timeouts.
  int64_t scheme_aborts = 0;    // Subset the non-conservative scheme demanded.
  int64_t timeouts = 0;
  int64_t partial_commits = 0;  // OCC validation failed after some commits.
  int64_t site_down_aborts = 0; // Attempts aborted by a site-down declaration.
  int64_t parked = 0;           // Jobs parked on a quarantined site.
  int64_t unparked = 0;         // Jobs resumed after the site recovered.
  int64_t park_timeouts = 0;    // Jobs failed back while still parked.
  int64_t fast_path_attempts = 0;  // Attempts run under the certified fast
                                   // path (no ser delays, no tickets).
};

/// GTM1 (paper §2.3 / Figure 1): drives global transactions. For every
/// transaction it determines the ser_k operations from the sites' protocol
/// kinds (injecting ticket writes where needed), inserts init/ser/fin
/// operations into GTM2's QUEUE, submits all other operations directly to
/// the sites, and never submits an operation before the previous one is
/// acknowledged. Local-DBMS aborts and timeouts retire the whole attempt;
/// GTM1 retries with a fresh attempt id after a randomized backoff.
class Gtm1 {
 public:
  using ResultCallback = std::function<void(const GlobalTxnResult&)>;

  /// `loop` is the GTM's strand; every GTM1/GTM2 state transition runs on
  /// it. In threaded mode it is the strand whose serialization acts as the
  /// scheme-level lock: ser_k release order is established there. Every
  /// lifecycle transition of GTM1, GTM2 and the scheme goes to `events`,
  /// which must outlive the GTM.
  Gtm1(const Gtm1Config& config, sim::TaskRunner* loop, SiteGateway* gateway,
       uint64_t seed, const obs::EventSink& events = obs::kNoEvents);

  Gtm1(const Gtm1&) = delete;
  Gtm1& operator=(const Gtm1&) = delete;

  /// Out of line: GtmLogWriter is incomplete here.
  ~Gtm1();

  /// Submits a global transaction; `cb` fires once with the final outcome.
  void Submit(GlobalTxnSpec spec, ResultCallback cb);

  /// Number of transactions submitted but not yet finished.
  int64_t InFlight() const { return in_flight_; }

  /// Health-monitor downcall: `site` was declared down. Quarantines the
  /// site, aborts every live non-committing attempt that touches it (which
  /// retracts its GTM2 scheme state and drains its WAIT entries), and parks
  /// the affected jobs until the site is back. Attempts already in their
  /// commit phase are left alone — their outcome is decided site by site,
  /// exactly as on an attempt timeout.
  void OnSiteDown(SiteId site);

  /// Health-monitor downcall: `site` answers probes again. Lifts the
  /// quarantine and resumes parked jobs whose sites are all available.
  void OnSiteUp(SiteId site);

  bool IsQuarantined(SiteId site) const;

  /// Number of jobs currently parked on quarantined sites.
  int64_t ParkedJobs() const;

  /// Hook invoked on every Submit; the MDBS health monitor uses it to start
  /// probing lazily (so idle runs stay quiescent). Call before the first
  /// Submit.
  void SetActivityHook(std::function<void()> hook) {
    activity_hook_ = std::move(hook);
  }

  const Gtm2& gtm2() const { return *gtm2_; }
  Gtm2& mutable_gtm2() { return *gtm2_; }
  const Gtm1Stats& stats() const { return stats_; }

  /// Crashes the durable GTM (Gtm1Config::durable required): all volatile
  /// state — attempts, jobs, quarantine, GTM2's WAIT and scheme DS — is
  /// wiped as a process crash would. Clients' callbacks and specs survive
  /// in the client registry (clients hold them across the outage), and
  /// submissions arriving while down are buffered. No-op when already
  /// down.
  void Crash();

  /// Restarts the crashed GTM from its WAL: scans and analyzes the whole
  /// log, then replays it from the latest checkpoint (or the head) through
  /// ReplayIntoGtm2 — the same routine the warm standby applies — to the
  /// exact pre-crash WAIT/scheme state. It forward-rolls attempts that were
  /// mid-commit (site commits are idempotent), aborts and retries every
  /// other in-flight attempt, and re-parks parked jobs (their park timeout
  /// restarts). `down_sites` is the health monitor's *current* down set —
  /// it kept probing through the outage, so it supersedes the logged
  /// quarantine churn. After a modeled replay delay (recovery_base_time +
  /// per_record * records in the log) the GTM resumes and drains buffered
  /// submissions in arrival order. No-op unless down.
  void Recover(const std::vector<SiteId>& down_sites);

  bool IsDown() const { return down_; }

  GtmDurabilityStats durability_stats() const;

  storage::LogDevice* wal_device() const { return wal_device_.get(); }

  /// Installs the WAL shipping tap (see GtmLogWriter::Shipper). The MDBS
  /// facade wires it to re-post every appended frame to the standby over
  /// the modeled network. No-op when not durable.
  void SetWalShipper(
      std::function<void(int64_t seq, std::vector<uint8_t> frame)> shipper);

  /// Standby only: applies one shipped WAL frame. `seq` is the record's
  /// log position; frames must arrive in order (the shipping channel is a
  /// FIFO). Frames arriving after promotion are counted and dropped — they
  /// were shipped by the fenced primary.
  void ReceiveShippedFrame(int64_t seq, std::vector<uint8_t> frame);

  /// Standby only: fenced failover. Takes over from the crashed `primary`:
  /// adopts its clients and buffered submissions, applies the
  /// durable-but-unshipped log tail through the same per-record path as
  /// every shipped frame (the shipping lag — the only replay this path
  /// pays), bumps the shared fencing epoch so stale primary callbacks and
  /// recovery attempts are rejected, forward-rolls / aborts in-flight
  /// attempts exactly as Recover() does, seeds its own fresh WAL with a
  /// full checkpoint, and resumes after a modeled delay of
  /// recovery_base_time + per_record * tail records.
  void Promote(Gtm1* primary, const std::vector<SiteId>& down_sites);

  /// True until Promote() turns this standby into the active GTM.
  bool IsStandby() const { return standby_; }

  /// Shipping/failover counters; the shipped_* and fencing fields are
  /// overlaid (by the MDBS facade / from the shared token).
  GtmStandbyStats standby_stats() const;

  const std::shared_ptr<FencingToken>& fence() const { return fence_; }

  /// Test hook: fires after every logged GTM2 mutation (enqueue or abort
  /// cleanup) once the synchronous pump has quiesced. The crash-point fuzz
  /// battery captures a live GTM2 fingerprint at each firing and compares
  /// it against the state replayed from the corresponding log prefix.
  void SetGtm2MutationObserverForTest(std::function<void()> hook) {
    gtm2_observer_ = std::move(hook);
  }

 private:
  struct Step {
    enum class Kind { kBegin, kTicket, kData };
    Kind kind = Kind::kData;
    SiteId site;
    /// Index into the spec's ops for kData; unused otherwise.
    size_t spec_index = 0;
    bool is_ser = false;
  };

  struct Job;

  struct Attempt {
    GlobalTxnId id;
    Job* job = nullptr;
    std::vector<Step> steps;
    size_t next_step = 0;
    std::unordered_map<SiteId, TxnId> sub_ids;
    std::vector<SiteId> begun_sites;
    ReadContext reads;
    bool failed = false;
    bool committing = false;
    /// Next begun_sites index to commit; meaningful while committing (the
    /// durable GTM checkpoints it to forward-roll after a crash).
    size_t commit_next = 0;
  };

  struct Job {
    /// Stable across attempts; kSubmit/kTxnCommit trace events carry it so
    /// a transaction's retries can be linked back together.
    int64_t id = 0;
    GlobalTxnSpec spec;
    ResultCallback cb;
    int attempts = 0;
    sim::Time submit_time = 0;
    GlobalTxnId current_attempt;
    /// Waiting for a quarantined site to recover; no live attempt exists.
    bool parked = false;
    /// Bumped on every park/unpark so a stale park-timeout timer can tell
    /// it lost the race.
    int64_t park_epoch = 0;
  };

  /// A submission buffered while the GTM is down, admitted at recovery.
  struct PendingSubmit {
    GlobalTxnSpec spec;
    ResultCallback cb;
  };

  /// What the clients retain across a GTM outage: their specs, result
  /// callbacks and submit times. Populated at Crash() from the in-flight
  /// jobs, consumed at Recover() when the logged jobs are rebuilt (value
  /// functions and callbacks are closures — unserializable — so this
  /// models the clients re-attaching, not the log storing them).
  struct ClientEntry {
    GlobalTxnSpec spec;
    ResultCallback cb;
    sim::Time submit_time = 0;
  };

  void StartAttempt(Job* job);
  std::vector<Step> BuildSteps(const GlobalTxnSpec& spec) const;
  void AdvanceStep(GlobalTxnId attempt_id);
  void PerformStep(Attempt* attempt, const Step& step,
                   SiteGateway::OpCallback done);
  void OnSerReleased(GlobalTxnId attempt_id, SiteId site);
  void OnAckForwarded(GlobalTxnId attempt_id, SiteId site);
  void OnValidatePassed(GlobalTxnId attempt_id);
  void CommitNextSite(GlobalTxnId attempt_id, size_t index);
  void FailAttempt(GlobalTxnId attempt_id, const Status& reason,
                   bool scheme_demanded);
  void FinishJob(Job* job, GlobalTxnResult result);
  Attempt* FindAttempt(GlobalTxnId attempt_id);
  Job* FindJob(int64_t job_id);
  /// True when any of the job's sites is quarantined.
  bool TouchesQuarantine(const Job& job) const;
  /// Retries a job after its backoff: parks it if a site it needs is
  /// quarantined, otherwise starts a fresh attempt.
  void RetryJob(int64_t job_id);
  void ParkJob(Job* job);
  /// Capped exponential backoff with uniform jitter for the job's next
  /// retry.
  sim::Time RetryDelay(const Job& job);

  /// Wraps a site-operation callback so the reply emits kRoundTripEnd
  /// before it is processed.
  SiteGateway::OpCallback WrapRoundTrip(GlobalTxnId attempt_id, TxnId sub,
                                        SiteGateway::OpCallback done);
  /// Emits kStep: GTM1 sends `job` on to `step`.
  void EmitStep(const Job& job, obs::Step step);
  /// The single mute switch: a standby's shadow GTM2 and the WAL replay
  /// loop of Recover() replay transitions the live run already emitted, so
  /// GTM2 and the scheme then emit into a subscriber-less sink.
  void MuteGtm2(bool muted);

  /// Appends to the GTM WAL (no-op when not durable or during replay) and
  /// schedules a checkpoint when the interval elapsed.
  void LogRecord(const GtmLogRecord& record);
  /// The ONLY paths to gtm2_->Enqueue / AbortCleanup: log the mutation,
  /// apply it (the pump runs to quiescence inside), then fire the test
  /// observer — so live fingerprints at observer time match what replaying
  /// the log prefix up to this record reproduces.
  void EnqueueGtm2(QueueOp op);
  void AbortCleanupGtm2(GlobalTxnId txn);
  void MaybeScheduleCheckpoint();
  void TakeCheckpoint();
  std::unique_ptr<Scheme> MakeFreshScheme() const;
  /// Arms (or re-arms, after recovery) the park timeout of a parked job.
  void ArmParkTimeout(Job* job);
  void ResumeAfterRecovery(int64_t replayed_records, bool promoted);
  /// Shared by Recover() and Promote(): counts `records` / `bytes` as
  /// replayed, charges recovery_base_time + per_record * records, and
  /// resumes after that delay.
  void ChargeReplayThenResume(int64_t records, int64_t bytes, bool promoted);
  /// Standby apply of the next record (log position applied_records):
  /// feeds it to the running GTM1 analysis and replays it into the shadow
  /// GTM2. Shipped frames and the promotion tail both come through here.
  /// Returns ReplayIntoGtm2's result.
  bool ApplyStandbyRecord(const GtmLogRecord& record);
  /// Shared by Recover() and Promote() once GTM2 is rebuilt: installs the
  /// analysis-derived id counters and stats, re-attaches clients to the
  /// logged unfinished jobs, forward-rolls committing attempts' images and
  /// aborts undecided ones. Cold recovery logs a kAttemptFail and a
  /// kAbortCleanup per aborted attempt. A promotion does not: its fresh WAL
  /// never admitted those attempts, so it purges the shadow GTM2 directly
  /// and the promotion checkpoint captures the result.
  void InstallRecoveredState(const GtmLogAnalysis& analysis,
                             const std::vector<SiteId>& down_sites,
                             bool standby_promotion);

  Gtm1Config config_;
  sim::TaskRunner* loop_;
  SiteGateway* gateway_;
  const obs::EventSink& events_;
  /// What GTM2 and the scheme emit into: a copy of `events_`, or no
  /// subscribers while muted. Declared before gtm2_, which refers to it.
  obs::EventSink gtm2_events_;
  std::unique_ptr<Gtm2> gtm2_;
  Rng rng_;
  int64_t next_txn_id_ = 0;
  int64_t next_attempt_id_ = 0;
  int64_t next_job_id_ = 0;
  int64_t in_flight_ = 0;
  std::unordered_map<GlobalTxnId, std::unique_ptr<Attempt>> attempts_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::unordered_set<SiteId> quarantined_;
  std::function<void()> activity_hook_;
  Gtm1Stats stats_;

  // Durability (config_.durable only; wal_ is null otherwise).
  std::shared_ptr<storage::LogDevice> wal_device_;
  std::unique_ptr<GtmLogWriter> wal_;
  bool down_ = false;
  /// Between Recover() and the delayed resume.
  bool recovering_ = false;
  /// Suppresses logging and GTM2's callbacks while logged records are
  /// replayed through GTM2 (cold recovery, and a standby until promoted).
  bool replaying_ = false;
  bool checkpoint_scheduled_ = false;
  /// Bumped at every Crash(); scheduled lambdas and gateway callbacks
  /// capture it and drop themselves when stale, so pre-crash timers and
  /// acks cannot drive post-recovery state.
  int64_t epoch_ = 0;
  GtmDurabilityStats durability_stats_;
  std::vector<PendingSubmit> pending_submits_;
  std::map<int64_t, ClientEntry> client_registry_;
  std::function<void()> gtm2_observer_;

  // Warm standby (config_.standby; see ReceiveShippedFrame / Promote).
  bool standby_ = false;
  std::unique_ptr<GtmLogReplayer> standby_replayer_;
  GtmStandbyStats standby_stats_;
  std::shared_ptr<FencingToken> fence_;
  /// The fencing epoch this GTM is entitled to act under; once a promotion
  /// bumps the shared token past it, this instance is fenced out.
  int64_t fence_held_ = 0;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_GTM1_H_
