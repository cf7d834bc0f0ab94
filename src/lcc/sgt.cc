#include "lcc/sgt.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mdbs::lcc {

namespace {
constexpr int64_t kGcPeriod = 64;  // Finishes between garbage collections.
}

void SerializationGraphTesting::OnBegin(TxnId txn) {
  MDBS_CHECK(!nodes_.contains(txn)) << txn << " began twice";
  nodes_.emplace(txn, TxnNode{});
}

std::vector<TxnId> SerializationGraphTesting::EdgeSources(
    TxnId txn, const DataOp& op) const {
  std::vector<TxnId> sources;
  auto it = items_.find(op.item);
  if (it == items_.end()) return sources;
  const ItemState& state = it->second;
  auto add = [&](TxnId src) {
    if (src.valid() && src != txn && nodes_.contains(src)) {
      sources.push_back(src);
    }
  };
  // The latch guarantees at most one uncommitted writer, and accessors that
  // get here hold no conflict with an uncommitted writer other than txn.
  add(state.committed_writer);
  if (op.type == OpType::kWrite) {
    for (TxnId reader : state.readers) add(reader);
  }
  return sources;
}

bool SerializationGraphTesting::Reaches(TxnId from, TxnId to) const {
  if (from == to) return true;
  std::unordered_set<TxnId> visited;
  std::vector<TxnId> stack{from};
  while (!stack.empty()) {
    TxnId cur = stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) continue;
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) continue;
    for (TxnId next : it->second.out) {
      if (next == to) return true;
      stack.push_back(next);
    }
  }
  return false;
}

bool SerializationGraphTesting::LatchWaitCycle(TxnId txn, TxnId writer) const {
  // Each blocked transaction waits on exactly one latch holder, so the wait
  // graph is a union of chains; follow the chain from `writer`.
  std::unordered_set<TxnId> visited;
  TxnId cur = writer;
  while (cur.valid()) {
    if (cur == txn) return true;
    if (!visited.insert(cur).second) return false;
    auto it = latch_waiting_for_.find(cur);
    if (it == latch_waiting_for_.end()) return false;
    cur = it->second;
  }
  return false;
}

AccessDecision SerializationGraphTesting::OnAccess(TxnId txn,
                                                   const DataOp& op) {
  ItemState& state = items_[op.item];

  if (state.active_writer.valid() && state.active_writer != txn) {
    if (LatchWaitCycle(txn, state.active_writer)) {
      return AccessDecision::kAbort;
    }
    state.latch_waiters.push_back(txn);
    latch_waiting_for_[txn] = state.active_writer;
    return AccessDecision::kBlock;
  }

  // SGT certification: adding edges src -> txn closes a cycle iff txn
  // already reaches some src.
  std::vector<TxnId> sources = EdgeSources(txn, op);
  for (TxnId src : sources) {
    if (Reaches(txn, src)) return AccessDecision::kAbort;
  }
  TxnNode& node = nodes_.at(txn);
  for (TxnId src : sources) {
    nodes_.at(src).out.insert(txn);
    node.in.insert(src);
  }
  return AccessDecision::kProceed;
}

void SerializationGraphTesting::OnAccessApplied(TxnId txn, const DataOp& op) {
  ItemState& state = items_[op.item];
  if (op.type == OpType::kRead) {
    if (std::find(state.readers.begin(), state.readers.end(), txn) ==
        state.readers.end()) {
      state.readers.push_back(txn);
    }
    return;
  }
  if (state.active_writer != txn) {
    state.active_writer = txn;
    written_[txn].push_back(op.item);
  }
}

AccessDecision SerializationGraphTesting::OnValidate(TxnId) {
  return AccessDecision::kProceed;
}

void SerializationGraphTesting::OnFinish(TxnId txn, TxnOutcome outcome) {
  auto written_it = written_.find(txn);
  if (written_it != written_.end()) {
    for (DataItemId item : written_it->second) {
      ItemState& state = items_[item];
      if (state.active_writer != txn) continue;
      state.active_writer = TxnId();
      if (outcome == TxnOutcome::kCommitted) {
        state.committed_writer = txn;
        state.readers.clear();
      }
      for (TxnId waiter : std::exchange(state.latch_waiters, {})) {
        latch_waiting_for_.erase(waiter);
        host_->ResumeTransaction(waiter);
      }
    }
    written_.erase(written_it);
  }

  latch_waiting_for_.erase(txn);  // It may have died while latch-blocked.

  auto node_it = nodes_.find(txn);
  MDBS_CHECK(node_it != nodes_.end()) << txn << " finished but never began";
  if (outcome == TxnOutcome::kAborted) {
    RemoveNode(txn);
  } else {
    node_it->second.outcome = TxnOutcome::kCommitted;
  }

  if (++finishes_since_gc_ >= kGcPeriod) {
    finishes_since_gc_ = 0;
    CollectGarbage();
  }
}

void SerializationGraphTesting::RemoveNode(TxnId txn) {
  auto it = nodes_.find(txn);
  if (it == nodes_.end()) return;
  for (TxnId succ : it->second.out) {
    auto succ_it = nodes_.find(succ);
    if (succ_it != nodes_.end()) succ_it->second.in.erase(txn);
  }
  for (TxnId pred : it->second.in) {
    auto pred_it = nodes_.find(pred);
    if (pred_it != nodes_.end()) pred_it->second.out.erase(txn);
  }
  nodes_.erase(it);
}

void SerializationGraphTesting::CollectGarbage() {
  // A committed node with no in-edges can never join a cycle again (new
  // edges only point at the accessing — active — transaction), so it can be
  // dropped; removal may expose further droppable nodes.
  std::vector<TxnId> removable;
  for (const auto& [txn, node] : nodes_) {
    if (node.outcome == TxnOutcome::kCommitted && node.in.empty()) {
      removable.push_back(txn);
    }
  }
  while (!removable.empty()) {
    TxnId txn = removable.back();
    removable.pop_back();
    auto it = nodes_.find(txn);
    if (it == nodes_.end()) continue;
    std::vector<TxnId> successors(it->second.out.begin(),
                                  it->second.out.end());
    RemoveNode(txn);
    for (TxnId succ : successors) {
      auto succ_it = nodes_.find(succ);
      if (succ_it != nodes_.end() &&
          succ_it->second.outcome == TxnOutcome::kCommitted &&
          succ_it->second.in.empty()) {
        removable.push_back(succ);
      }
    }
  }
}

}  // namespace mdbs::lcc
