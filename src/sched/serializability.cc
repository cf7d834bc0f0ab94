#include "sched/serializability.h"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "common/logging.h"

namespace mdbs::sched {

int64_t GlobalNodeKey(const TxnRecord& record) {
  if (record.global.valid()) return record.global.value() * 2;
  return record.txn.value() * 2 + 1;
}

namespace {

struct ItemAccess {
  int64_t seq;
  TxnId txn;
  OpType type;
};

/// Committed accesses at one site grouped per item, in execution order.
std::map<int64_t, std::vector<ItemAccess>> GroupCommittedAccesses(
    const SiteSchedule& schedule) {
  std::map<int64_t, std::vector<ItemAccess>> groups;
  for (const RecordedOp& op : schedule.ops()) {
    const TxnRecord* record = schedule.FindTxn(op.txn);
    if (record == nullptr || record->outcome != TxnOutcome::kCommitted) {
      continue;
    }
    groups[op.op.item.value()].push_back(
        ItemAccess{op.seq, op.txn, op.op.type});
  }
  return groups;
}

/// Adds conflict edges within each group. Instead of all O(k^2) conflicting
/// pairs, the reduced set — last writer -> next access, readers since the
/// last write -> next writer — is emitted; it has the same reachability
/// relation as the full conflict graph (every omitted edge follows a chain
/// of emitted ones), hence the same cycles, and any per-edge monotonicity
/// over it extends to all conflict pairs by transitivity.
void AddConflictEdges(const std::map<int64_t, std::vector<ItemAccess>>& groups,
                      const std::function<int64_t(TxnId)>& node_key,
                      DirectedGraph* graph) {
  auto add_edge = [&](TxnId from_txn, TxnId to_txn) {
    if (from_txn == to_txn) return;
    int64_t from = node_key(from_txn);
    int64_t to = node_key(to_txn);
    if (from != to) graph->AddEdge(from, to);
  };
  for (const auto& [item, accesses] : groups) {
    std::optional<TxnId> last_writer;
    std::vector<TxnId> readers_since_write;
    for (const ItemAccess& access : accesses) {
      if (access.type == OpType::kRead) {
        if (last_writer.has_value()) add_edge(*last_writer, access.txn);
        readers_since_write.push_back(access.txn);
        continue;
      }
      if (last_writer.has_value()) add_edge(*last_writer, access.txn);
      for (TxnId reader : readers_since_write) add_edge(reader, access.txn);
      readers_since_write.clear();
      last_writer = access.txn;
    }
  }
}

SerializabilityResult CheckGraph(const DirectedGraph& graph) {
  SerializabilityResult result;
  result.nodes = graph.NodeCount();
  result.edges = graph.EdgeCount();
  result.cycle = graph.FindCycle();
  result.serializable = !result.cycle.has_value();
  return result;
}

/// Adds the multiversion serialization-graph edges of one site to `graph`,
/// mapping transactions through `node_key`. Version order is the writers'
/// serialization-key (timestamp) order.
void AddMvsgEdges(const SiteSchedule& schedule,
                  const std::function<int64_t(TxnId)>& node_key,
                  DirectedGraph* graph) {
  auto committed = [&schedule](TxnId txn) -> const TxnRecord* {
    const TxnRecord* record = schedule.FindTxn(txn);
    return (record != nullptr && record->outcome == TxnOutcome::kCommitted)
               ? record
               : nullptr;
  };
  auto add_edge = [&](TxnId from, TxnId to) {
    if (from == to) return;
    int64_t a = node_key(from);
    int64_t b = node_key(to);
    if (a != b) graph->AddEdge(a, b);
  };

  // Committed writers per item, ordered by serialization key.
  struct VersionInfo {
    int64_t key;
    TxnId writer;
  };
  std::map<int64_t, std::vector<VersionInfo>> versions_by_item;
  for (const RecordedOp& op : schedule.ops()) {
    if (op.op.type != OpType::kWrite) continue;
    const TxnRecord* record = committed(op.txn);
    if (record == nullptr) continue;
    MDBS_CHECK(record->serialization_key.has_value())
        << "multiversion site writer without a timestamp";
    auto& versions = versions_by_item[op.op.item.value()];
    bool seen = false;
    for (const VersionInfo& info : versions) {
      if (info.writer == op.txn) seen = true;
    }
    if (!seen) {
      versions.push_back(VersionInfo{*record->serialization_key, op.txn});
    }
  }
  for (auto& [item, versions] : versions_by_item) {
    std::sort(versions.begin(), versions.end(),
              [](const VersionInfo& a, const VersionInfo& b) {
                return a.key < b.key;
              });
    // Version-order edges.
    for (size_t i = 1; i < versions.size(); ++i) {
      add_edge(versions[i - 1].writer, versions[i].writer);
    }
  }

  // Read edges: reads-from plus reader-before-next-version.
  for (const RecordedOp& op : schedule.ops()) {
    if (op.op.type != OpType::kRead) continue;
    if (committed(op.txn) == nullptr) continue;
    auto item_it = versions_by_item.find(op.op.item.value());
    const std::vector<VersionInfo>* versions =
        item_it == versions_by_item.end() ? nullptr : &item_it->second;

    if (op.read_from.valid() && op.read_from != op.txn) {
      add_edge(op.read_from, op.txn);  // Reads-from.
    }
    if (versions == nullptr || versions->empty()) continue;
    // Successor version after the one read (initial version = before all).
    size_t successor = 0;
    if (op.read_from.valid()) {
      const TxnRecord* writer = committed(op.read_from);
      if (writer == nullptr) continue;  // Own/uncommitted: no constraint.
      int64_t read_key = writer->serialization_key.value_or(-1);
      while (successor < versions->size() &&
             (*versions)[successor].key <= read_key) {
        ++successor;
      }
    }
    if (successor < versions->size()) {
      add_edge(op.txn, (*versions)[successor].writer);
    }
  }
}

/// Graph of the committed transactions at one site, each its own node.
DirectedGraph LocalNodes(const SiteSchedule& schedule) {
  DirectedGraph graph;
  for (const auto& [txn, record] : schedule.txns()) {
    if (record.outcome == TxnOutcome::kCommitted) graph.AddNode(txn.value());
  }
  return graph;
}

int64_t LocalKey(TxnId txn) { return txn.value(); }

/// Maps the transactions of `schedule` onto global-graph nodes.
std::function<int64_t(TxnId)> GlobalKeyAt(const SiteSchedule& schedule) {
  return [&schedule](TxnId txn) {
    return GlobalNodeKey(*schedule.FindTxn(txn));
  };
}

}  // namespace

std::string SerializabilityResult::ToString() const {
  std::ostringstream os;
  os << (serializable ? "serializable" : "NOT serializable") << " (nodes="
     << nodes << " edges=" << edges;
  if (cycle.has_value()) {
    os << " cycle=[";
    for (size_t i = 0; i < cycle->size(); ++i) {
      if (i > 0) os << " ";
      os << (*cycle)[i];
    }
    os << "]";
  }
  os << ")";
  return os.str();
}

DirectedGraph BuildLocalConflictGraph(const ScheduleRecorder& recorder,
                                      SiteId site) {
  const SiteSchedule& schedule = recorder.site(site);
  DirectedGraph graph = LocalNodes(schedule);
  AddConflictEdges(GroupCommittedAccesses(schedule), LocalKey, &graph);
  return graph;
}

SerializabilityResult CheckLocalSerializability(
    const ScheduleRecorder& recorder, SiteId site) {
  return CheckGraph(BuildLocalConflictGraph(recorder, site));
}

DirectedGraph BuildGlobalConflictGraph(const ScheduleRecorder& recorder,
                                       const std::vector<SiteId>& mv_sites) {
  DirectedGraph graph;
  for (const auto& [site, schedule] : recorder.sites()) {
    for (const auto& [txn, record] : schedule.txns()) {
      if (record.outcome == TxnOutcome::kCommitted) {
        graph.AddNode(GlobalNodeKey(record));
      }
    }
  }
  for (const auto& [site, schedule] : recorder.sites()) {
    if (std::find(mv_sites.begin(), mv_sites.end(), site) != mv_sites.end()) {
      AddMvsgEdges(schedule, GlobalKeyAt(schedule), &graph);
    } else {
      AddConflictEdges(GroupCommittedAccesses(schedule),
                       GlobalKeyAt(schedule), &graph);
    }
  }
  return graph;
}

SerializabilityResult CheckGlobalSerializability(
    const ScheduleRecorder& recorder, const std::vector<SiteId>& mv_sites) {
  return CheckGraph(BuildGlobalConflictGraph(recorder, mv_sites));
}

DirectedGraph BuildMultiversionSerializationGraph(
    const ScheduleRecorder& recorder, SiteId site) {
  const SiteSchedule& schedule = recorder.site(site);
  DirectedGraph graph = LocalNodes(schedule);
  AddMvsgEdges(schedule, LocalKey, &graph);
  return graph;
}

SerializabilityResult CheckMultiversionSerializability(
    const ScheduleRecorder& recorder, SiteId site) {
  return CheckGraph(BuildMultiversionSerializationGraph(recorder, site));
}

Status CheckStrictness(const ScheduleRecorder& recorder, SiteId site,
                       bool multiversion) {
  const SiteSchedule& schedule = recorder.site(site);
  auto finished_before = [&schedule](TxnId txn, int64_t seq) {
    const TxnRecord* record = schedule.FindTxn(txn);
    return record != nullptr && record->finish_seq >= 0 &&
           record->finish_seq < seq;
  };
  auto violation = [&site](const RecordedOp& op, TxnId writer) {
    std::ostringstream os;
    os << "strictness violated at " << ToString(site) << ": "
       << op.ToString() << " touched data of unfinished "
       << ToString(writer);
    return Status::Internal(os.str());
  };

  std::unordered_map<int64_t, TxnId> last_writer;
  for (const RecordedOp& op : schedule.ops()) {
    if (op.op.type == OpType::kRead) {
      if (multiversion) {
        // The version read must come from a committed-and-finished writer
        // (or be the reader's own, or the initial version).
        if (op.read_from.valid() && op.read_from != op.txn &&
            !finished_before(op.read_from, op.seq)) {
          return violation(op, op.read_from);
        }
        continue;
      }
      auto it = last_writer.find(op.op.item.value());
      if (it != last_writer.end() && it->second != op.txn &&
          !finished_before(it->second, op.seq)) {
        return violation(op, it->second);
      }
      continue;
    }
    // Write.
    if (!multiversion) {
      auto it = last_writer.find(op.op.item.value());
      if (it != last_writer.end() && it->second != op.txn &&
          !finished_before(it->second, op.seq)) {
        return violation(op, it->second);
      }
      last_writer[op.op.item.value()] = op.txn;
    }
  }
  return Status::OK();
}

Status CheckSerializationKeyProperty(const ScheduleRecorder& recorder,
                                     SiteId site) {
  const SiteSchedule& schedule = recorder.site(site);
  DirectedGraph graph = BuildLocalConflictGraph(recorder, site);
  for (const auto& [txn, from] : schedule.txns()) {
    if (from.outcome != TxnOutcome::kCommitted ||
        !from.serialization_key.has_value()) {
      continue;
    }
    for (int64_t to_key : graph.Successors(txn.value())) {
      const TxnRecord* to = schedule.FindTxn(TxnId(to_key));
      if (to == nullptr || !to->serialization_key.has_value()) continue;
      if (*from.serialization_key >= *to->serialization_key) {
        std::ostringstream os;
        os << "serialization-key property violated at " << ToString(site)
           << ": " << ToString(txn) << " (key " << *from.serialization_key
           << ") conflicts-before "
           << ToString(to->txn) << " (key " << *to->serialization_key << ")";
        return Status::Internal(os.str());
      }
    }
  }
  return Status::OK();
}

}  // namespace mdbs::sched
