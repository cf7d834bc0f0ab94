#ifndef MDBS_OBS_EVENT_H_
#define MDBS_OBS_EVENT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/types.h"
#include "sim/task_runner.h"

namespace mdbs::obs {

/// Every lifecycle transition in the stack. The taxonomy mirrors the paper's
/// vocabulary: one global transaction flows submit -> attempt -> per-site
/// init/ser/ack -> validate -> fin, with WAIT dwell and scheme data-structure
/// churn (marked edges, dependencies) in between, plus the local-DBMS events
/// (lock waits, wounds, validation failures) that cause the retries. The
/// kinds after kGtmPromote feed only the metrics engine or the schedule
/// recorder and never reach the trace (see SubscribersOf).
enum class TraceEventKind : uint8_t {
  // GTM1 — transaction lifecycle. txn = attempt id unless noted.
  kSubmit,          // txn = job id (stable across attempts); sites
  kAttemptStart,    // a = job id, b = attempt number (1-based)
  kAttemptTimeout,  // the per-attempt timeout fired
  kAttemptAbort,    // a = job id, detail = "scheme" | "site" | "timeout"
  kTxnCommit,       // a = job id, b = attempts used
  kTxnFail,         // gave up / partial commit; a = job id

  // GTM2 — Basic_Scheme driver. site is invalid for init/validate/fin.
  kInit,         // act(init) ran; a = number of sites
  kSerRelease,   // act(ser) ran, operation released to its site
  kAck,          // act(ack) ran, acknowledgement forwarded to GTM1
  kValidate,     // act(validate) ran
  kFin,          // act(fin) ran, DS cleaned up
  kWaitEnter,    // cond failed, op joined WAIT; detail = op kind, a = |WAIT|
  kWaitExit,     // cond now holds, op left WAIT; detail = op kind, a = |WAIT|
  kWaitAbandon,  // op purged from WAIT by an abort; detail = op kind
  kSchemeAbort,  // the scheme demanded an abort (non-conservative only)
  kQueueDepth,   // sampled at enqueue; a = |QUEUE|, b = |WAIT|

  // Scheme data structures (paper §5-§7).
  kEdgeMark,    // Scheme 1: edge (txn, site) marked at init (on a TSG cycle)
  kEdgeUnmark,  // Scheme 1: marked edge retired (acked / txn removed)
  kDepAdd,      // Scheme 2: dependency (a, site) -> (site, b) added;
                //   detail = "executed" | "delta" | "order"
  kDepDrop,     // Scheme 2: txn removed, a = dependencies dropped with it
  kSerBefSeed,  // Scheme 3: ser_bef seeded at init; a = |ser_bef|

  // Local DBMS / LCC. txn = local TxnId value, a = global txn id or -1.
  kSiteBegin,        // subtransaction (or local txn) began at site
  kSiteCommit,       // committed at site; key = its serialization key
  kSiteAbort,        // rolled back at site
  kOpBlocked,        // operation blocked (lock conflict, TO wait, ...)
  kOpResumed,        // blocked operation woken for retry
  kLocalAbort,       // protocol demanded an abort at access time
  kValidationFail,   // commit-time certification failed (OCC / SGT)
  kLockWait,         // lock manager queued the request; b = item id
  kDeadlock,         // waits-for cycle; requester is the victim; b = item id
  kWound,            // wound-wait preemption; txn = victim, b = aggressor
  kCrash,            // site crashed (a = active txns aborted)
  kRecoveryBegin,    // durable site replayed its WAL and stays down for
                     //   the modeled replay time; ticks = that time
  kRecover,          // site recovered; durable: a = replayed records,
                     //   b = replayed log bytes

  // Failure handling — health monitor, quarantine, retry layer.
  kSiteSuspect,   // probe overdue; a = ticks since last ack
  kSiteDown,      // monitor declared the site down; a = ticks since last ack
  kSiteUp,        // monitor saw the site answer again
  kTxnParked,     // txn = job id; a = attempts so far (waiting on quarantine)
  kTxnUnparked,   // txn = job id; a = attempts so far (site back up)
  kTxnResubmit,   // driver retry layer resubmitted; txn = driver txn id,
                  //   a = resubmission number, b = attempts used so far
  kNetFault,      // injected message fault; detail = "req_lost" |
                  //   "resp_lost" | "dup" | "dup_suppressed" | "spike"
  kGtmCrash,      // durable GTM crashed; a = live attempts lost,
                  //   b = in-flight jobs carried into recovery
  kGtmRecover,    // durable GTM back up after WAL replay; a = replayed
                  //   records, b = jobs resumed

  // Engine. site = strand owner (-1 = GTM strand).
  kStrandBacklog,  // threaded mode: a = tasks queued on the strand

  // Static analysis / certified fast path (src/analysis).
  kDowngrade,  // attempt ran the certified fast path: no ser delays, no
               //   tickets; txn = attempt id, a = job id

  // Warm-standby failover (appended so earlier kinds keep their values).
  kGtmPromoteBegin,  // standby starts taking over; a = new fencing epoch,
                     //   b = unshipped WAL tail records to apply
  kGtmPromote,       // promoted standby is live; a = tail records applied,
                     //   b = jobs resumed

  // Metrics only. Each sets the typed fields of Event, never a/b/detail.
  kAdmission,    // threaded submit: ticks = client-side enqueue stamp of
                 //   the next kSubmit
  kStep,         // GTM1 sent job `job` on to `step`
  kSiteWork,     // site strand: the site finished a round trip's work;
                 //   ticks = its busy time
  kSiteReply,    // GTM strand: that reply arrived; txn = sub id,
                 //   ticks = the site's busy time
  kRoundTripEnd, // GTM1 took the reply of sub `txn` for job `job`

  // Schedule recorder only: the site strand executed a data operation.
  // txn = local TxnId value, `op` = the operation (a read carries the value
  // it observed), ticks = the time it executed.
  kSiteRead,   // b = TxnId value of the version's writer, or -1
  kSiteWrite,  // applied in place, or installed from a deferred buffer
};

const char* TraceEventKindName(TraceEventKind kind);

/// Where GTM1 sends a job next (kStep). The metrics engine decides which
/// phase each step charges.
enum class Step : uint8_t {
  kNone,
  /// A ser or validate operation routed through GTM2's QUEUE. WAIT events
  /// of such operations carry it too: they are the job's critical path.
  kGtm2,
  kBegin,    // a subtransaction begin at a site
  kTicket,   // the ticket read/write at a site
  kData,     // a data operation at a site
  kCommit,   // a subtransaction commit at a site
  kBackoff,  // the randomized delay before the next attempt
  kPark,     // waiting for a quarantined site
};

/// One lifecycle transition, emitted once into the EventSink. The first
/// fields are what the trace records; the typed fields after them carry
/// what only the metrics engine reads.
struct Event {
  TraceEventKind kind = TraceEventKind::kSubmit;
  int64_t txn = -1;
  int64_t site = -1;
  int64_t a = 0;
  int64_t b = 0;
  /// Kind-specific label. MUST be a string literal (or otherwise immortal):
  /// recorded events outlive the call site and are never deep-copied.
  const char* detail = nullptr;

  /// The job (global transaction, stable across attempts) of a GTM1
  /// lifecycle event.
  int64_t job = -1;
  Step step = Step::kNone;
  /// kSiteWork / kSiteReply: the site's busy time; kAdmission: the enqueue
  /// stamp; kRecoveryBegin: the modeled replay time.
  sim::Time ticks = 0;
  /// kSubmit: the sites the transaction touches. Read during the emit only.
  const std::vector<SiteId>* sites = nullptr;
  /// kSiteRead / kSiteWrite: the operation. Read during the emit only.
  const DataOp* op = nullptr;
  /// kSiteCommit: the local protocol's serialization key, when it has one.
  std::optional<int64_t> key = std::nullopt;
};

/// Subscribers of a kind, as a bit set.
enum Subscriber : uint8_t {
  kToTrace = 1,
  kToMetrics = 2,
  kToSchedule = 4,
};

/// Which subscribers take each kind: the trace every kind before
/// kAdmission, the metrics engine and the schedule recorder the kinds
/// listed here. Evaluated at compile time for the constant kind of every
/// emit site, so a kind a subscriber does not take costs it nothing.
constexpr uint8_t SubscribersOf(TraceEventKind kind) {
  uint8_t to = kind < TraceEventKind::kAdmission ? kToTrace : 0;
  switch (kind) {
    case TraceEventKind::kSiteBegin:
    case TraceEventKind::kSiteCommit:
    case TraceEventKind::kSiteAbort:
    case TraceEventKind::kSiteRead:
    case TraceEventKind::kSiteWrite:
      to |= kToSchedule;
      break;
    case TraceEventKind::kSubmit:
    case TraceEventKind::kAttemptStart:
    case TraceEventKind::kAttemptAbort:
    case TraceEventKind::kTxnCommit:
    case TraceEventKind::kTxnFail:
    case TraceEventKind::kTxnParked:
    case TraceEventKind::kWaitEnter:
    case TraceEventKind::kWaitExit:
    case TraceEventKind::kWaitAbandon:
    case TraceEventKind::kQueueDepth:
    case TraceEventKind::kGtmCrash:
    case TraceEventKind::kSiteDown:
    case TraceEventKind::kRecoveryBegin:
    case TraceEventKind::kAdmission:
    case TraceEventKind::kStep:
    case TraceEventKind::kSiteWork:
    case TraceEventKind::kSiteReply:
    case TraceEventKind::kRoundTripEnd:
      to |= kToMetrics;
      break;
    default:
      break;
  }
  return to;
}

}  // namespace mdbs::obs

#endif  // MDBS_OBS_EVENT_H_
