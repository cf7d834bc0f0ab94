#ifndef MDBS_LCC_SGT_H_
#define MDBS_LCC_SGT_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lcc/protocol.h"

namespace mdbs::lcc {

/// Serialization-graph testing (SGT certification). The protocol maintains
/// the conflict serialization graph over transactions; an access whose
/// conflict edges would close a cycle aborts the requester.
///
/// For recoverability the implementation adds commit-duration write latches:
/// an item with an uncommitted write blocks other accessors until the writer
/// finishes (a waits-for cycle among latch waiters aborts the requester).
/// This keeps in-place writes and before-image undo sound without cascading
/// aborts.
///
/// SGT is the paper's example of a protocol with NO serialization function
/// derivable from a fixed operation: the serialization order is any
/// topological order of the graph, fixed by neither begin nor commit order.
/// SGT sites therefore require GTM-forced conflicts (tickets, §2.2).
class SerializationGraphTesting : public ConcurrencyControl {
 public:
  explicit SerializationGraphTesting(ProtocolHost* host) : host_(host) {}

  ProtocolKind kind() const override {
    return ProtocolKind::kSerializationGraph;
  }
  const char* Name() const override { return "SGT"; }

  void OnBegin(TxnId txn) override;
  AccessDecision OnAccess(TxnId txn, const DataOp& op) override;
  void OnAccessApplied(TxnId txn, const DataOp& op) override;
  AccessDecision OnValidate(TxnId txn) override;
  void OnFinish(TxnId txn, TxnOutcome outcome) override;

  std::optional<int64_t> SerializationKey(TxnId) const override {
    return std::nullopt;  // SGT fixes no serialization point.
  }

  /// Number of transaction nodes currently retained (tests/GC).
  size_t GraphSize() const { return nodes_.size(); }

 private:
  struct TxnNode {
    TxnOutcome outcome = TxnOutcome::kActive;
    std::unordered_set<TxnId> out;
    std::unordered_set<TxnId> in;
  };
  struct ItemState {
    TxnId committed_writer;          // Last committed writer, if any.
    TxnId active_writer;             // Latch holder, if any.
    std::vector<TxnId> readers;      // Readers since last committed write.
    /// Blocked on the latch, in arrival order; a vector because an empty
    /// one allocates nothing (see TimestampOrdering::ItemMeta::waiters).
    std::vector<TxnId> latch_waiters;
  };

  /// Conflict-edge sources for `op` by `txn` (excluding txn itself and
  /// transactions no longer in the graph).
  std::vector<TxnId> EdgeSources(TxnId txn, const DataOp& op) const;

  /// True if `from` reaches `to` via out-edges.
  bool Reaches(TxnId from, TxnId to) const;

  /// True if blocking `txn` on latch-holder `writer` would close a cycle in
  /// the latch waits-for graph.
  bool LatchWaitCycle(TxnId txn, TxnId writer) const;

  void RemoveNode(TxnId txn);
  void CollectGarbage();

  ProtocolHost* host_;
  std::unordered_map<TxnId, TxnNode> nodes_;
  std::unordered_map<DataItemId, ItemState> items_;
  std::unordered_map<TxnId, std::vector<DataItemId>> written_;
  std::unordered_map<TxnId, TxnId> latch_waiting_for_;
  int64_t finishes_since_gc_ = 0;
};

}  // namespace mdbs::lcc

#endif  // MDBS_LCC_SGT_H_
