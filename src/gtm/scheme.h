#ifndef MDBS_GTM_SCHEME_H_
#define MDBS_GTM_SCHEME_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "gtm/queue_op.h"
#include "obs/event_sink.h"
#include "storage/framing.h"

namespace mdbs::gtm {

/// Verdict of a scheme's cond() on a queue operation.
enum class Verdict {
  /// cond holds: the driver executes act() now.
  kReady,
  /// cond does not hold: the operation joins WAIT (paper Figure 3).
  kWait,
  /// The scheme demands aborting the global transaction. Conservative
  /// schemes — the paper's Schemes 0-3 — never return this; only the
  /// non-conservative baselines do.
  kAbort,
};

/// Which scheme a GTM runs; used for construction and reporting.
enum class SchemeKind {
  kScheme0,           // per-site FIFO queues (conservative-TO-like), §4
  kScheme1,           // transaction-site graph, §5
  kScheme2,           // TSG with dependencies + Eliminate_Cycles, §6
  kScheme3,           // O-scheme admitting all serializable schedules, §7
  kTicketOptimistic,  // non-conservative baseline (GRS91-style), aborts
  kNone,              // no global control: ser ops released immediately
};

const char* SchemeKindName(SchemeKind kind);

/// A GTM2 concurrency control scheme in the paper's cond/act formulation
/// (§4): the driver (Gtm2) selects operations from QUEUE, evaluates Cond,
/// and on kReady executes Act. Schemes only manipulate their own data
/// structures (the paper's DS); submitting released operations to sites and
/// forwarding acks is the driver's job.
///
/// Every scheme counts the abstract "steps" its cond/act evaluations take
/// (nodes visited, set elements touched); the complexity experiments (E1)
/// read this counter to reproduce Theorems 4, 6 and 9.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual SchemeKind kind() const = 0;
  virtual const char* Name() const = 0;

  virtual Verdict CondInit(const QueueOp& op) = 0;
  virtual void ActInit(const QueueOp& op) = 0;

  virtual Verdict CondSer(GlobalTxnId txn, SiteId site) = 0;
  virtual void ActSer(GlobalTxnId txn, SiteId site) = 0;

  virtual Verdict CondAck(GlobalTxnId txn, SiteId site) = 0;
  virtual void ActAck(GlobalTxnId txn, SiteId site) = 0;

  virtual Verdict CondValidate(GlobalTxnId txn) = 0;
  virtual void ActValidate(GlobalTxnId txn) = 0;

  virtual Verdict CondFin(GlobalTxnId txn) = 0;
  virtual void ActFin(GlobalTxnId txn) = 0;

  /// Removes every trace of an aborted transaction from DS. Not part of the
  /// paper's model (conservative schemes never abort); needed because local
  /// DBMSs may abort a subtransaction (deadlock victim, validation failure)
  /// and GTM1 then retires the whole attempt.
  virtual void ActAbortCleanup(GlobalTxnId txn) = 0;

  // -------------------------------------------------------------------
  // Invariant-audit surface (src/audit). These re-derive the scheme's
  // guarantees from its data structures, independently of Cond/Act, and
  // must never call AddSteps — the complexity experiments meter only the
  // scheme's own work.
  // -------------------------------------------------------------------

  /// True for the paper's conservative schemes (Theorems 3, 5, 8): the
  /// scheme never returns kAbort and guarantees an acyclic ser(S) graph.
  /// The audit layer enforces both only when this holds; non-conservative
  /// baselines legitimately abort and legitimately create cycles.
  virtual bool IsConservative() const { return false; }

  /// Structural self-check of DS: internal cross-references consistent,
  /// graphs well-formed (TSG bipartite bookkeeping, TSGD dependency
  /// digraph acyclic, ser_bef irreflexive, ...). Run by the audited driver
  /// after every act.
  virtual Status CheckStructuralInvariants() const { return Status::OK(); }

  /// Re-verifies, at act(ser) time, that releasing ser(txn @ site) now
  /// respects the scheme's release discipline — i.e. cond genuinely holds
  /// for the operation the driver is about to release.
  virtual Status AuditSerRelease(GlobalTxnId txn, SiteId site) const {
    (void)txn;
    (void)site;
    return Status::OK();
  }

  // -------------------------------------------------------------------
  // Durability surface (src/gtm/gtm_log). A durable GTM snapshots the
  // scheme's DS into its checkpoint records and rebuilds it on recovery;
  // between checkpoints the logged enqueue sequence is replayed through a
  // fresh Gtm2, so schemes must be deterministic functions of it (the
  // paper's Schemes 0-3 are).
  // -------------------------------------------------------------------

  /// True when the scheme implements EncodeState/DecodeState. The durable
  /// GTM refuses to run — loudly, at configuration time — with a scheme
  /// that cannot be snapshotted.
  virtual bool SupportsSnapshot() const { return false; }

  /// Replaces `out` with the scheme's DS: an image struct, built in sorted
  /// (deterministic) order and written through its one field list
  /// (storage/framing.h), which DecodeState reads back. The encoding
  /// doubles as the recovery tests' structural fingerprint.
  virtual void EncodeState(std::vector<uint8_t>* out) const { out->clear(); }

  /// Rebuilds DS from an EncodeState image. Returns false on a malformed
  /// image (recovery must fail loudly, never silently diverge): one the
  /// field list does not read to its last byte, one of the other mode, or
  /// one naming a key twice. DS is unspecified after a false return.
  virtual bool DecodeState(const uint8_t* data, size_t size) {
    (void)data;
    return size == 0;
  }

  /// Abstract step counter for the complexity experiments.
  int64_t steps() const { return steps_; }
  void ResetSteps() { steps_ = 0; }
  /// Restores the step counter from a GTM checkpoint image.
  void RestoreSteps(int64_t steps) { steps_ = steps; }

  /// Points the scheme's data-structure events (marked edges,
  /// dependencies, ser_bef seeding) at `events`. GTM2 attaches its own sink
  /// at construction and after a crash reset.
  void AttachEvents(const obs::EventSink* events) { events_ = events; }

 protected:
  void AddSteps(int64_t n) { steps_ += n; }

  /// Where DS events go; never null.
  const obs::EventSink* events_ = &obs::kNoEvents;

 private:
  int64_t steps_ = 0;
};

/// The entries of an unordered id-keyed map in key order: the (key, value)
/// rows of a deterministic scheme image. A field list writes a row as the
/// key, then the value: a container value as a count and its elements.
template <typename Map>
auto SortedRows(const Map& map) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
      rows(map.begin(), map.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return rows;
}

/// Replaces `map` with `rows`; false when a key repeats.
template <typename Rows, typename Map>
bool RestoreRows(const Rows& rows, Map* map) {
  *map = Map(rows.begin(), rows.end());
  return map->size() == rows.size();
}

/// The transactions of a TSG or TSGD (tsg.h, tsgd.h) with their sites, by
/// id: the whole graph, as far as its derived maps rebuild from it.
using TxnRows = std::vector<std::pair<GlobalTxnId, std::vector<SiteId>>>;
template <typename Graph>
TxnRows SortedTxnRows(const Graph& graph) {
  TxnRows rows;
  for (GlobalTxnId txn : graph.Txns()) {
    rows.emplace_back(txn, graph.SitesOf(txn));
  }
  return rows;
}

/// Replaces `graph` with the transactions of `rows`; false when one
/// repeats.
template <typename Graph>
bool RestoreTxnRows(const TxnRows& rows, Graph* graph) {
  *graph = Graph();
  for (const auto& [txn, sites] : rows) {
    if (graph->HasTxn(txn)) return false;
    graph->InsertTxn(txn, sites);
  }
  return true;
}

/// Base with the common defaults: init/ack/validate are unconditional and
/// validation is a no-op, as in all of the paper's conservative schemes.
class ConservativeSchemeBase : public Scheme {
 public:
  Verdict CondInit(const QueueOp&) override { return Verdict::kReady; }
  Verdict CondAck(GlobalTxnId, SiteId) override { return Verdict::kReady; }
  Verdict CondValidate(GlobalTxnId) override { return Verdict::kReady; }
  void ActValidate(GlobalTxnId) override {}
};

}  // namespace mdbs::gtm

#endif  // MDBS_GTM_SCHEME_H_
