#ifndef MDBS_SCHED_SERIALIZABILITY_H_
#define MDBS_SCHED_SERIALIZABILITY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sched/graph.h"
#include "sched/schedule.h"

namespace mdbs::sched {

/// Outcome of a conflict-serializability (CSR) check.
struct SerializabilityResult {
  bool serializable = false;
  /// A witness cycle of node keys when not serializable.
  std::optional<std::vector<int64_t>> cycle;
  size_t nodes = 0;
  size_t edges = 0;

  std::string ToString() const;
};

/// Node key of a transaction in the *global* serialization graph:
/// subtransactions collapse into their parent global transaction, purely
/// local transactions stand alone. Even keys are globals, odd keys locals.
int64_t GlobalNodeKey(const TxnRecord& record);

/// Conflict graph of the committed transactions at one site, each
/// subtransaction its own node (the paper's local schedule S_k).
DirectedGraph BuildLocalConflictGraph(const ScheduleRecorder& recorder,
                                      SiteId site);

/// Checks that the local schedule at `site` is CSR — every local DBMS must
/// guarantee this on its own (paper §2.1).
SerializabilityResult CheckLocalSerializability(
    const ScheduleRecorder& recorder, SiteId site);

/// Conflict graph of the committed projection of the global schedule S:
/// union over sites of local conflict edges (MVSG edges at `mv_sites`),
/// with subtransactions mapped to their global transaction via
/// GlobalNodeKey.
DirectedGraph BuildGlobalConflictGraph(
    const ScheduleRecorder& recorder,
    const std::vector<SiteId>& mv_sites = {});

/// Checks global serializability — the property Theorems 1-2 reduce to
/// ser(S) serializability and that the GTM schemes must guarantee — over a
/// mix of single-version and multiversion sites: CSR conflict edges at
/// regular sites, MVSG edges at `mv_sites`, all mapped onto global
/// transaction nodes.
SerializabilityResult CheckGlobalSerializability(
    const ScheduleRecorder& recorder,
    const std::vector<SiteId>& mv_sites = {});

/// Verifies the serialization-function property at `site`: for every local
/// conflict edge Ti -> Tj between committed transactions that both have a
/// protocol serialization key, key(Ti) < key(Tj). Sites whose protocol
/// defines no key (SGT) trivially pass.
Status CheckSerializationKeyProperty(const ScheduleRecorder& recorder,
                                     SiteId site);

/// Multiversion serialization graph (MVSG) of the committed transactions
/// at `site`, for sites running a multiversion protocol (MVTO). Versions
/// are ordered by the writers' serialization keys (their timestamps);
/// edges are version order, reads-from, and reader-before-next-version.
/// Acyclicity is equivalent to one-copy serializability for the given
/// version order.
DirectedGraph BuildMultiversionSerializationGraph(
    const ScheduleRecorder& recorder, SiteId site);

SerializabilityResult CheckMultiversionSerializability(
    const ScheduleRecorder& recorder, SiteId site);

/// Verifies strictness (no dirty reads, no overwriting of uncommitted
/// data) of the recorded schedule at `site`: every operation on an item
/// follows the previous writer's finish unless it is the writer itself.
/// All the implemented protocols promise this — 2PL/TO/SGT via locks or
/// latches, OCC/MVTO via deferred commit-time writes (for `multiversion`
/// sites reads are checked against their recorded version instead of the
/// store order).
Status CheckStrictness(const ScheduleRecorder& recorder, SiteId site,
                       bool multiversion);

}  // namespace mdbs::sched

#endif  // MDBS_SCHED_SERIALIZABILITY_H_
