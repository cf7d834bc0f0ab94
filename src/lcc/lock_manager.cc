#include "lcc/lock_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace mdbs::lcc {

const char* LockModeName(LockMode mode) {
  return mode == LockMode::kShared ? "S" : "X";
}

std::optional<LockMode> LockManager::HeldMode(const ItemLock& entry,
                                              TxnId txn) const {
  for (const Request& r : entry.granted) {
    if (r.txn == txn) return r.mode;
  }
  return std::nullopt;
}

std::vector<TxnId> LockManager::Blockers(const ItemLock& entry, TxnId txn,
                                         LockMode mode) const {
  std::vector<TxnId> blockers;
  for (const Request& r : entry.granted) {
    if (r.txn != txn && !Compatible(r.mode, mode)) blockers.push_back(r.txn);
  }
  // A new request queues at the back, so every already-queued conflicting
  // request is "ahead" of it. (Upgrades queue at the front but an upgrader,
  // by definition, already holds the lock, so it is covered above as a
  // holder when modes conflict.)
  for (const Request& r : entry.waiting) {
    if (r.txn != txn && !Compatible(r.mode, mode)) blockers.push_back(r.txn);
  }
  return blockers;
}

bool LockManager::WaitsForReaches(TxnId from, TxnId target,
                                  std::unordered_set<TxnId>* visited) const {
  if (from == target) return true;
  if (!visited->insert(from).second) return false;
  auto wait_it = waiting_on_.find(from);
  if (wait_it == waiting_on_.end()) return false;
  auto table_it = table_.find(wait_it->second);
  if (table_it == table_.end()) return false;
  const ItemLock& entry = table_it->second;
  // Find from's queued request to know its mode and queue position.
  LockMode mode = LockMode::kShared;
  size_t pos = entry.waiting.size();
  for (size_t i = 0; i < entry.waiting.size(); ++i) {
    if (entry.waiting[i].txn == from) {
      mode = entry.waiting[i].mode;
      pos = i;
      break;
    }
  }
  for (const Request& r : entry.granted) {
    if (r.txn != from && !Compatible(r.mode, mode) &&
        WaitsForReaches(r.txn, target, visited)) {
      return true;
    }
  }
  for (size_t i = 0; i < pos && i < entry.waiting.size(); ++i) {
    const Request& r = entry.waiting[i];
    if (r.txn != from && !Compatible(r.mode, mode) &&
        WaitsForReaches(r.txn, target, visited)) {
      return true;
    }
  }
  return false;
}

LockResult LockManager::Acquire(TxnId txn, DataItemId item, LockMode mode) {
  if (auditor_ != nullptr && released_.contains(txn)) {
    auditor_->Report(audit::AuditViolation{
        "strict-2pl-phase",
        ToString(txn) + " acquires " + LockModeName(mode) + " on " +
            ToString(item) + " after its shrink phase began",
        {txn.value()},
        txn.value()});
  }
  LockResult result = AcquireImpl(txn, item, mode);
  if (result == LockResult::kWaiting) {
    events_.Emit({.kind = obs::TraceEventKind::kLockWait, .txn = txn.value(),
                  .site = site_.value(), .b = item.value(),
                  .detail = LockModeName(mode)});
  } else if (result == LockResult::kDeadlock) {
    events_.Emit({.kind = obs::TraceEventKind::kDeadlock, .txn = txn.value(),
                  .site = site_.value(), .b = item.value(),
                  .detail = LockModeName(mode)});
  }
  AuditTable("Acquire", txn);
  return result;
}

LockResult LockManager::AcquireImpl(TxnId txn, DataItemId item,
                                    LockMode mode) {
  MDBS_CHECK(!waiting_on_.contains(txn))
      << txn << " already has an outstanding lock request";
  ItemLock& entry = table_[item];

  std::optional<LockMode> held = HeldMode(entry, txn);
  if (held.has_value()) {
    if (*held == LockMode::kExclusive || mode == LockMode::kShared) {
      return LockResult::kGranted;  // Already covered.
    }
    // Upgrade S -> X: immediate if sole holder, else wait at queue front.
    if (entry.granted.size() == 1) {
      entry.granted[0].mode = LockMode::kExclusive;
      RecordGrant(txn, item);
      return LockResult::kGranted;
    }
    // Deadlock test: would any conflicting holder (transitively) wait for us?
    for (const Request& r : entry.granted) {
      if (r.txn == txn) continue;
      std::unordered_set<TxnId> visited;
      if (WaitsForReaches(r.txn, txn, &visited)) return LockResult::kDeadlock;
    }
    entry.waiting.insert(entry.waiting.begin(),
                         Request{txn, LockMode::kExclusive, true});
    waiting_on_[txn] = item;
    return LockResult::kWaiting;
  }

  bool conflict = false;
  for (const Request& r : entry.granted) {
    if (!Compatible(r.mode, mode)) conflict = true;
  }
  if (!conflict && entry.waiting.empty()) {
    entry.granted.push_back(Request{txn, mode, false});
    RecordGrant(txn, item);
    return LockResult::kGranted;
  }
  // Must wait (either a conflicting holder, or FIFO fairness behind queued
  // requests). Deadlock test first: does any blocker reach us?
  for (TxnId blocker : Blockers(entry, txn, mode)) {
    std::unordered_set<TxnId> visited;
    if (WaitsForReaches(blocker, txn, &visited)) return LockResult::kDeadlock;
  }
  entry.waiting.push_back(Request{txn, mode, false});
  waiting_on_[txn] = item;
  return LockResult::kWaiting;
}

void LockManager::GrantFromQueue(DataItemId item, ItemLock* entry,
                                 std::vector<TxnId>* granted_out) {
  std::vector<Request>& waiting = entry->waiting;
  size_t served = 0;
  for (; served < waiting.size(); ++served) {
    const Request& front = waiting[served];
    if (front.is_upgrade) {
      // Grantable when the upgrader is the sole remaining holder.
      if (entry->granted.size() == 1 && entry->granted[0].txn == front.txn) {
        entry->granted[0].mode = LockMode::kExclusive;
      } else {
        break;
      }
    } else {
      bool compatible = true;
      for (const Request& g : entry->granted) {
        if (!Compatible(g.mode, front.mode)) compatible = false;
      }
      if (!compatible) break;
      entry->granted.push_back(front);
    }
    waiting_on_.erase(front.txn);
    RecordGrant(front.txn, item);
    granted_out->push_back(front.txn);
  }
  waiting.erase(waiting.begin(),
                waiting.begin() + static_cast<ptrdiff_t>(served));
}

std::vector<TxnId> LockManager::ReleaseAll(TxnId txn) {
  std::vector<TxnId> granted;
  if (auditor_ != nullptr) released_.insert(txn);

  // Remove a waiting request, if any (txn aborted while blocked). Its
  // removal can unblock requests queued behind it, so re-evaluate.
  auto wait_it = waiting_on_.find(txn);
  if (wait_it != waiting_on_.end()) {
    DataItemId item = wait_it->second;
    waiting_on_.erase(wait_it);
    auto table_it = table_.find(item);
    if (table_it != table_.end()) {
      auto& waiting = table_it->second.waiting;
      waiting.erase(std::remove_if(waiting.begin(), waiting.end(),
                                   [txn](const Request& r) {
                                     return r.txn == txn;
                                   }),
                    waiting.end());
      GrantFromQueue(item, &table_it->second, &granted);
      if (table_it->second.granted.empty() &&
          table_it->second.waiting.empty()) {
        table_.erase(table_it);
      }
    }
  }

  auto held_it = held_items_.find(txn);
  if (held_it != held_items_.end()) {
    for (DataItemId item : held_it->second) {
      auto table_it = table_.find(item);
      if (table_it == table_.end()) continue;
      ItemLock& entry = table_it->second;
      entry.granted.erase(std::remove_if(entry.granted.begin(),
                                         entry.granted.end(),
                                         [txn](const Request& r) {
                                           return r.txn == txn;
                                         }),
                          entry.granted.end());
      GrantFromQueue(item, &entry, &granted);
      if (entry.granted.empty() && entry.waiting.empty()) {
        table_.erase(table_it);
      }
    }
    held_items_.erase(held_it);
  }
  lock_point_.erase(txn);
  AuditTable("ReleaseAll", txn);
  return granted;
}

bool LockManager::Holds(TxnId txn, DataItemId item, LockMode mode) const {
  auto it = table_.find(item);
  if (it == table_.end()) return false;
  std::optional<LockMode> held = HeldMode(it->second, txn);
  if (!held.has_value()) return false;
  return *held == LockMode::kExclusive || mode == LockMode::kShared;
}

std::optional<int64_t> LockManager::LockPoint(TxnId txn) const {
  auto it = lock_point_.find(txn);
  if (it == lock_point_.end()) return std::nullopt;
  return it->second;
}

std::vector<TxnId> LockManager::BlockersOf(TxnId txn, DataItemId item,
                                           LockMode mode) const {
  auto it = table_.find(item);
  if (it == table_.end()) return {};
  // A held exclusive (or covering) lock has no blockers for re-requests.
  std::optional<LockMode> held = HeldMode(it->second, txn);
  if (held.has_value() &&
      (*held == LockMode::kExclusive || mode == LockMode::kShared)) {
    return {};
  }
  return Blockers(it->second, txn, mode);
}

std::optional<DataItemId> LockManager::WaitingOn(TxnId txn) const {
  auto it = waiting_on_.find(txn);
  if (it == waiting_on_.end()) return std::nullopt;
  return it->second;
}

void LockManager::RecordGrant(TxnId txn, DataItemId item) {
  held_items_[txn].insert(item);
  lock_point_[txn] = next_grant_seq_++;
}

Status LockManager::CheckTableInvariants() const {
  size_t granted_total = 0;
  for (const auto& [item, entry] : table_) {
    if (entry.granted.empty() && entry.waiting.empty()) {
      return Status::Internal("lock table: empty entry retained for " +
                              ToString(item));
    }
    bool exclusive = false;
    std::unordered_set<TxnId> holders;
    for (const Request& r : entry.granted) {
      ++granted_total;
      if (!holders.insert(r.txn).second) {
        return Status::Internal("lock table: " + ToString(r.txn) +
                                " granted twice on " + ToString(item));
      }
      if (r.mode == LockMode::kExclusive) exclusive = true;
      auto held_it = held_items_.find(r.txn);
      if (held_it == held_items_.end() || !held_it->second.contains(item)) {
        return Status::Internal("lock table: grant of " + ToString(item) +
                                " to " + ToString(r.txn) +
                                " missing from held_items");
      }
      if (!lock_point_.contains(r.txn)) {
        return Status::Internal("lock table: holder " + ToString(r.txn) +
                                " has no lock point");
      }
    }
    if (exclusive && entry.granted.size() > 1) {
      return Status::Internal("lock table: S/X co-grant on " +
                              ToString(item));
    }
    for (size_t i = 0; i < entry.waiting.size(); ++i) {
      const Request& r = entry.waiting[i];
      auto wait_it = waiting_on_.find(r.txn);
      if (wait_it == waiting_on_.end() || wait_it->second != item) {
        return Status::Internal("lock table: queued request of " +
                                ToString(r.txn) + " on " + ToString(item) +
                                " not registered in waiting_on");
      }
      if (r.is_upgrade) {
        if (i != 0) {
          return Status::Internal("lock table: upgrade request of " +
                                  ToString(r.txn) + " on " + ToString(item) +
                                  " not at the queue front");
        }
        if (!holders.contains(r.txn)) {
          return Status::Internal("lock table: upgrader " + ToString(r.txn) +
                                  " no longer holds " + ToString(item));
        }
      } else if (holders.contains(r.txn)) {
        return Status::Internal("lock table: holder " + ToString(r.txn) +
                                " queued non-upgrade on " + ToString(item));
      }
    }
  }
  // held_items_ and lock_point_ mirror the granted lists.
  size_t held_total = 0;
  for (const auto& [txn, items] : held_items_) {
    if (items.empty()) {
      return Status::Internal("lock table: empty held set retained for " +
                              ToString(txn));
    }
    held_total += items.size();
    for (DataItemId item : items) {
      auto table_it = table_.find(item);
      if (table_it == table_.end() ||
          !HeldMode(table_it->second, txn).has_value()) {
        return Status::Internal("lock table: held_items claims " +
                                ToString(txn) + " holds " + ToString(item) +
                                " but the table disagrees");
      }
    }
    if (!lock_point_.contains(txn)) {
      return Status::Internal("lock table: " + ToString(txn) +
                              " holds locks but has no lock point");
    }
  }
  if (held_total != granted_total) {
    return Status::Internal(
        "lock table: granted count " + std::to_string(granted_total) +
        " != held_items count " + std::to_string(held_total));
  }
  for (const auto& [txn, point] : lock_point_) {
    (void)point;
    if (!held_items_.contains(txn)) {
      return Status::Internal("lock table: lock point retained for " +
                              ToString(txn) + " which holds nothing");
    }
  }
  // waiting_on_ side of the mirror + waits-for acyclicity.
  for (const auto& [txn, item] : waiting_on_) {
    auto table_it = table_.find(item);
    bool queued = false;
    if (table_it != table_.end()) {
      for (const Request& r : table_it->second.waiting) {
        if (r.txn == txn) queued = true;
      }
    }
    if (!queued) {
      return Status::Internal("lock table: waiting_on claims " +
                              ToString(txn) + " waits on " + ToString(item) +
                              " but no queued request exists");
    }
    std::unordered_set<TxnId> visited{txn};
    if (table_it != table_.end()) {
      const ItemLock& entry = table_it->second;
      LockMode mode = LockMode::kShared;
      size_t pos = entry.waiting.size();
      for (size_t i = 0; i < entry.waiting.size(); ++i) {
        if (entry.waiting[i].txn == txn) {
          mode = entry.waiting[i].mode;
          pos = i;
          break;
        }
      }
      for (const Request& r : entry.granted) {
        if (r.txn != txn && !Compatible(r.mode, mode) &&
            WaitsForReaches(r.txn, txn, &visited)) {
          return Status::Internal("lock table: waits-for cycle through " +
                                  ToString(txn) + " on " + ToString(item));
        }
      }
      for (size_t i = 0; i < pos; ++i) {
        const Request& r = entry.waiting[i];
        if (r.txn != txn && !Compatible(r.mode, mode) &&
            WaitsForReaches(r.txn, txn, &visited)) {
          return Status::Internal("lock table: waits-for cycle through " +
                                  ToString(txn) + " on " + ToString(item));
        }
      }
    }
  }
  return Status::OK();
}

void LockManager::EnableAudit(audit::Auditor* auditor) {
  if (!audit::kAuditCompiledIn) return;
  auditor_ = auditor != nullptr ? auditor : audit::Auditor::Default();
}

void LockManager::TestOnlyCorruptGrant(TxnId txn, DataItemId item,
                                       LockMode mode) {
  table_[item].granted.push_back(Request{txn, mode, false});
}

void LockManager::AuditTable(const char* after, TxnId txn) {
  if (auditor_ == nullptr) return;
  Status status = CheckTableInvariants();
  if (!status.ok()) {
    auditor_->Report(audit::AuditViolation{
        "lock-table",
        status.message() + " (after " + std::string(after) + " by " +
            ToString(txn) + ")",
        {},
        txn.value()});
  }
}

}  // namespace mdbs::lcc
