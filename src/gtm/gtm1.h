#ifndef MDBS_GTM_GTM1_H_
#define MDBS_GTM_GTM1_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
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
struct GtmCheckpoint;
enum class GtmFinishOutcome : uint8_t;

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

  /// Durable GTM: the MDBS builds a GtmReplica (configured by the fields
  /// from here on) that write-ahead logs every state transition to
  /// `wal_device` before it takes effect, so Crash()/Recover() can rebuild
  /// the exact pre-crash WAIT/QUEUE/ticket state. Requires a
  /// snapshot-capable scheme (Schemes 0-3 / the certified fast path; the
  /// baselines are not).
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
};

/// Why an attempt was aborted: the kAttemptAbort trace detail and the
/// reason byte of its kAttemptFail log record. The caller that aborts
/// knows it; CountRecord (gtm_log.h) counts it from that record, live and
/// at replay alike.
enum class GtmAttemptFailReason : uint8_t {
  kSite = 0,      // a site answered with an error or an abort
  kScheme = 1,    // non-conservative scheme demanded the abort
  kTimeout = 2,   // per-attempt timeout fired
  kSiteDown = 3,  // the health monitor declared a site of it down
  kGtmCrash = 4,  // in flight across a GTM crash; aborted at recovery
};

const char* GtmAttemptFailReasonName(GtmAttemptFailReason reason);

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
  /// Fencing epoch of the GTM that produced this result, stamped by the
  /// durable GTM (GtmReplica). Bumps at the standby promotion, so after a
  /// failover every response carries the new epoch — the no-split-brain
  /// acceptance check.
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

  /// Test hook: fires after every journaled GTM2 mutation (enqueue or
  /// abort cleanup) once the synchronous pump has quiesced. The crash-point
  /// fuzz battery captures a live GTM2 fingerprint at each firing and
  /// compares it against the state replayed from the corresponding log
  /// prefix.
  void SetGtm2MutationObserverForTest(std::function<void()> hook) {
    gtm2_observer_ = std::move(hook);
  }

  // The seam a durable GTM (GtmReplica) drives this GTM1 through. A plain
  // GTM1 never uses it.

  /// Receives every state transition at its logging point, before it takes
  /// effect: the records a durable GTM appends to its WAL.
  using Journal = std::function<void(const GtmLogRecord&)>;
  void SetJournal(Journal journal) { journal_ = std::move(journal); }

  /// Writes the Figure 1 state — id allocators, counters, job and attempt
  /// tables, quarantine set — and GTM2's volatile image into `out`, in
  /// deterministic order. Only at a strand-turn boundary.
  void Snapshot(GtmCheckpoint* out) const;

  /// What a client holds across a GTM outage: its spec, its result
  /// callback and its submit time, keyed by job id. The log cannot carry
  /// them (value functions and callbacks are closures).
  struct Client {
    GlobalTxnSpec spec;
    ResultCallback cb;
    sim::Time submit_time = 0;
  };
  using Clients = std::map<int64_t, Client>;

  /// A process crash: drops every job, attempt, quarantine entry and
  /// counter and resets GTM2; timers and site replies of the lost
  /// incarnation drop themselves. Returns the clients of the unfinished
  /// jobs. InFlight() keeps counting them until Install().
  Clients Crash();

  /// Installs the state a catch-up rebuilt: the id allocators, counters and
  /// tables of `analysis`, `gtm2` as GTM2 (it takes over this GTM1's
  /// callbacks and events), `clients` re-attached to the logged unfinished
  /// jobs, and `down_sites` — the health monitor's current view — as the
  /// quarantine set. Attempts mid-commit are rebuilt at their commit
  /// cursor; every other logged attempt is aborted at its sites, journaled
  /// as a kAttemptFail (kGtmCrash) and purged from GTM2. Returns the
  /// number of attempts aborted.
  int64_t Install(const GtmLogAnalysis& analysis, std::unique_ptr<Gtm2> gtm2,
                  Clients clients, const std::vector<SiteId>& down_sites);

  /// Restarts the installed jobs: forward-rolls mid-commit attempts from
  /// their cursor (site commits are idempotent), unparks jobs whose sites
  /// came back, re-arms the park timeout of the others, and retries the
  /// rest after the normal backoff. Returns the forward-rolled commits.
  int64_t Resume();

  /// Restarts the retry-jitter stream: a promoted standby's GTM1 draws
  /// from its own.
  void Reseed(uint64_t seed) { rng_ = Rng(seed); }

  /// A fresh instance of the configured scheme.
  std::unique_ptr<Scheme> MakeFreshScheme() const;

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

  Gtm2::Callbacks Gtm2Callbacks();
  void StartAttempt(Job* job);
  std::vector<Step> BuildSteps(const GlobalTxnSpec& spec) const;
  void AdvanceStep(GlobalTxnId attempt_id);
  void PerformStep(Attempt* attempt, const Step& step,
                   SiteGateway::OpCallback done);
  void OnSerReleased(GlobalTxnId attempt_id, SiteId site);
  void OnAckForwarded(GlobalTxnId attempt_id, SiteId site);
  void OnValidatePassed(GlobalTxnId attempt_id);
  void CommitNextSite(GlobalTxnId attempt_id, size_t index);
  void FailAttempt(GlobalTxnId attempt_id, const Status& status,
                   GtmAttemptFailReason reason);
  /// Every attempt's abort: traces and logs it, aborts its begun
  /// subtransactions, purges it from GTM2 and drops it.
  void RetireAttempt(Attempt* attempt, GtmAttemptFailReason reason);
  /// Every job's end: traces and logs `outcome` (a partial commit also
  /// aborts the sites `attempt` has not committed and purges it from
  /// GTM2), drops the attempt and answers the client.
  void EndJob(Job* job, GlobalTxnId attempt, GtmFinishOutcome outcome,
              GlobalTxnResult result);
  Attempt* FindAttempt(GlobalTxnId attempt_id);
  Job* FindJob(int64_t job_id);
  /// True when any of the job's sites is quarantined.
  bool TouchesQuarantine(const Job& job) const;
  /// Retries a job after its backoff: parks it if a site it needs is
  /// quarantined, otherwise starts a fresh attempt.
  void RetryJob(int64_t job_id);
  /// Enters the backoff phase and calls RetryJob `delay` later.
  void ScheduleRetry(const Job& job, sim::Time delay);
  void ParkJob(Job* job);
  /// Lifts a park: the job retries after a short jittered delay, charged
  /// to the backoff phase.
  void UnparkJob(Job* job);
  /// Capped exponential backoff with uniform jitter for the job's next
  /// retry.
  sim::Time RetryDelay(const Job& job);

  /// Wraps a site-operation callback so the reply emits kRoundTripEnd
  /// before it is processed.
  SiteGateway::OpCallback WrapRoundTrip(GlobalTxnId attempt_id, TxnId sub,
                                        SiteGateway::OpCallback done);
  /// Emits kStep: GTM1 sends `job` on to `step`.
  void EmitStep(const Job& job, obs::Step step);

  /// Counts `record` into stats_ (CountRecord) and hands it to the
  /// journal, if one is set.
  void Log(const GtmLogRecord& record);
  /// The ONLY paths to gtm2_->Enqueue / AbortCleanup: journal the
  /// mutation, apply it (the pump runs to quiescence inside), then fire
  /// the test observer — so live fingerprints at observer time match what
  /// replaying the log prefix up to this record reproduces.
  void EnqueueGtm2(QueueOp op);
  void AbortCleanupGtm2(GlobalTxnId txn);
  /// Arms (or re-arms, after recovery) the park timeout of a parked job.
  void ArmParkTimeout(Job* job);

  /// Wraps `fn` for a timer or a site reply: it does nothing once Crash()
  /// has passed, so the lost incarnation cannot drive recovered state.
  template <typename Fn>
  auto Guarded(Fn fn) {
    return [this, epoch = epoch_, fn = std::move(fn)](auto&&... args) {
      if (epoch == epoch_) fn(std::forward<decltype(args)>(args)...);
    };
  }

  Gtm1Config config_;
  sim::TaskRunner* loop_;
  SiteGateway* gateway_;
  const obs::EventSink& events_;
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
  Journal journal_;
  /// Bumped at every Crash(); see Guarded().
  int64_t epoch_ = 0;
  std::function<void()> gtm2_observer_;
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_GTM1_H_
