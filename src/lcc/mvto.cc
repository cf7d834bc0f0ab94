#include "lcc/mvto.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mdbs::lcc {

namespace {
constexpr int64_t kGcPeriod = 256;
}

void MultiversionTimestampOrdering::OnBegin(TxnId txn) {
  MDBS_CHECK(!ts_.contains(txn)) << txn << " began twice";
  int64_t ts = next_ts_++;
  ts_[txn] = ts;
  active_[txn] = ts;
}

int MultiversionTimestampOrdering::FindVersion(const ItemState& state,
                                               int64_t ts) {
  int best = -1;
  for (size_t i = 0; i < state.versions.size(); ++i) {
    if (state.versions[i].wts <= ts) {
      best = static_cast<int>(i);
    } else {
      break;  // Sorted ascending.
    }
  }
  return best;
}

AccessDecision MultiversionTimestampOrdering::OnAccess(TxnId txn,
                                                       const DataOp& op) {
  int64_t ts = ts_.at(txn);
  ItemState& state = items_[op.item];
  int index = FindVersion(state, ts);

  if (op.type == OpType::kRead) {
    if (index >= 0) {
      const Version& version = state.versions[static_cast<size_t>(index)];
      if (!version.committed && version.writer != txn) {
        // Wait for the (strictly older) writer to finish.
        state.waiters.push_back(txn);
        return AccessDecision::kBlock;
      }
    }
    return AccessDecision::kProceed;
  }

  // Write: rejected when a younger transaction already read the version
  // this write would follow.
  int64_t read_watermark =
      index >= 0 ? state.versions[static_cast<size_t>(index)].max_rts
                 : state.initial_max_rts;
  if (read_watermark > ts) return AccessDecision::kAbort;
  return AccessDecision::kProceed;
}

std::optional<ResolvedRead> MultiversionTimestampOrdering::ResolveRead(
    TxnId txn, DataItemId item) {
  int64_t ts = ts_.at(txn);
  const ItemState& state = items_.at(item);
  int index = FindVersion(state, ts);
  if (index < 0) return std::nullopt;  // Initial version: host reads store.
  const Version& version = state.versions[static_cast<size_t>(index)];
  return ResolvedRead{version.value, version.writer};
}

void MultiversionTimestampOrdering::OnAccessApplied(TxnId txn,
                                                    const DataOp& op) {
  int64_t ts = ts_.at(txn);
  ItemState& state = items_[op.item];
  int index = FindVersion(state, ts);

  if (op.type == OpType::kRead) {
    if (index >= 0) {
      Version& version = state.versions[static_cast<size_t>(index)];
      version.max_rts = std::max(version.max_rts, ts);
    } else {
      state.initial_max_rts = std::max(state.initial_max_rts, ts);
    }
    return;
  }

  // Install (or overwrite own) version at wts == ts, keeping order.
  if (index >= 0 &&
      state.versions[static_cast<size_t>(index)].wts == ts) {
    MDBS_CHECK(state.versions[static_cast<size_t>(index)].writer == txn)
        << "duplicate version timestamp from a different writer";
    state.versions[static_cast<size_t>(index)].value = op.value;
    return;
  }
  Version version;
  version.wts = ts;
  version.writer = txn;
  version.value = op.value;
  version.committed = false;
  state.versions.insert(
      state.versions.begin() + static_cast<ptrdiff_t>(index + 1), version);
  written_[txn].push_back(op.item);
}

AccessDecision MultiversionTimestampOrdering::OnValidate(TxnId) {
  return AccessDecision::kProceed;
}

void MultiversionTimestampOrdering::OnFinish(TxnId txn, TxnOutcome outcome) {
  auto written_it = written_.find(txn);
  if (written_it != written_.end()) {
    for (DataItemId item : written_it->second) {
      ItemState& state = items_.at(item);
      for (auto it = state.versions.begin(); it != state.versions.end();) {
        if (it->writer == txn) {
          if (outcome == TxnOutcome::kCommitted) {
            it->committed = true;
            ++it;
          } else {
            it = state.versions.erase(it);
          }
        } else {
          ++it;
        }
      }
      WakeWaiters(&state);
    }
    written_.erase(written_it);
  }
  active_.erase(txn);
  // ts_ is retained: SerializationKey answers after commit.
  if (++finishes_since_gc_ >= kGcPeriod) {
    finishes_since_gc_ = 0;
    CollectGarbage();
  }
}

void MultiversionTimestampOrdering::WakeWaiters(ItemState* state) {
  // Taken out of the table first: a resumed reader may queue again.
  for (TxnId waiter : std::exchange(state->waiters, {})) {
    host_->ResumeTransaction(waiter);
  }
}

void MultiversionTimestampOrdering::CollectGarbage() {
  // Keep, per item, the newest committed version below the oldest active
  // timestamp (the "floor" every live reader can still need) and drop
  // everything older.
  int64_t min_active = next_ts_;
  for (const auto& [txn, ts] : active_) min_active = std::min(min_active, ts);
  for (auto& [item, state] : items_) {
    int floor = -1;
    for (size_t i = 0; i < state.versions.size(); ++i) {
      if (state.versions[i].wts < min_active && state.versions[i].committed) {
        floor = static_cast<int>(i);
      }
      if (state.versions[i].wts >= min_active) break;
    }
    if (floor > 0) {
      state.versions.erase(state.versions.begin(),
                           state.versions.begin() + floor);
    }
  }
}

std::optional<int64_t> MultiversionTimestampOrdering::SerializationKey(
    TxnId txn) const {
  auto it = ts_.find(txn);
  if (it == ts_.end()) return std::nullopt;
  return it->second;
}

void MultiversionTimestampOrdering::RecoverCommittedVersion(DataItemId item,
                                                            int64_t value,
                                                            TxnId writer) {
  MDBS_CHECK(next_ts_ > 0) << "recovered a version before RecoverClock";
  ItemState& state = items_[item];
  MDBS_CHECK(state.versions.empty())
      << "item " << item << " recovered twice";
  Version version;
  // wts = next_ts_ - 1: below every post-recovery timestamp (so all new
  // readers see it) and unique per item (the only pre-recovery version).
  version.wts = next_ts_ - 1;
  version.writer = writer;
  version.value = value;
  version.committed = true;
  version.max_rts = -1;
  state.versions.push_back(version);
}

size_t MultiversionTimestampOrdering::VersionCount() const {
  size_t count = 0;
  for (const auto& [item, state] : items_) count += state.versions.size();
  return count;
}

}  // namespace mdbs::lcc
