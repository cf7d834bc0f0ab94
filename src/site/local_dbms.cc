#include "site/local_dbms.h"

#include <algorithm>
#include <optional>
#include <string>

#include "audit/audit.h"
#include "common/logging.h"
#include "lcc/mvto.h"
#include "lcc/occ.h"
#include "lcc/sgt.h"
#include "lcc/timestamp_ordering.h"
#include "lcc/two_phase_locking.h"

namespace mdbs::site {

std::unique_ptr<lcc::ConcurrencyControl> MakeProtocol(
    lcc::ProtocolKind kind, lcc::ProtocolHost* host,
    const obs::EventSink& events, SiteId site) {
  switch (kind) {
    case lcc::ProtocolKind::kTwoPhaseLocking:
      return std::make_unique<lcc::TwoPhaseLocking>(
          host, lcc::DeadlockPolicy::kDetect, events, site);
    case lcc::ProtocolKind::kTimestampOrdering:
      return std::make_unique<lcc::TimestampOrdering>(host);
    case lcc::ProtocolKind::kSerializationGraph:
      return std::make_unique<lcc::SerializationGraphTesting>(host);
    case lcc::ProtocolKind::kOptimistic:
      return std::make_unique<lcc::OptimisticConcurrencyControl>(events,
                                                                 site);
    case lcc::ProtocolKind::kMultiversionTO:
      return std::make_unique<lcc::MultiversionTimestampOrdering>(host);
    case lcc::ProtocolKind::kTwoPhaseLockingWoundWait:
      return std::make_unique<lcc::TwoPhaseLocking>(
          host, lcc::DeadlockPolicy::kWoundWait, events, site);
    case lcc::ProtocolKind::kTwoPhaseLockingWaitDie:
      return std::make_unique<lcc::TwoPhaseLocking>(
          host, lcc::DeadlockPolicy::kWaitDie, events, site);
  }
  return nullptr;
}

LocalDbms::LocalDbms(const SiteConfig& config, sim::TaskRunner* loop,
                     const obs::EventSink& events)
    : config_(config), loop_(loop), events_(events) {
  protocol_ = MakeProtocol(config.protocol, this, events_, config_.id);
  MDBS_CHECK(protocol_ != nullptr);
  if (config_.durable) {
    wal_device_ = config_.wal_device != nullptr
                      ? config_.wal_device
                      : std::make_shared<storage::MemLogDevice>();
    wal_ = std::make_unique<storage::WalWriter>(wal_device_.get());
    wal_->SetSyncConfig(config_.wal_sync);
    if (wal_device_->Size() > 0) {
      // A pre-existing log (process restart over --wal_dir, or a test
      // seeding a crash image): recover before serving anything.
      ReplayAndInstall();
    }
  }
}

Status LocalDbms::Begin(TxnId txn, GlobalTxnId global) {
  if (down_) {
    return Status::TransactionAborted(ToString(config_.id) + " is down");
  }
  if (txns_.contains(txn)) {
    return Status::FailedPrecondition(ToString(txn) + " already active");
  }
  txns_[txn].global = global;
  protocol_->OnBegin(txn);
  if (wal_ != nullptr) {
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kBegin;
    rec.txn = txn.value();
    rec.global = global.value();
    rec.clock = protocol_->DurableClock();
    wal_->Append(rec);
    MaybeCheckpoint();
  }
  events_.Emit({.kind = obs::TraceEventKind::kSiteBegin, .txn = txn.value(),
                .site = config_.id.value(), .a = global.value()});
  return Status::OK();
}

void LocalDbms::Submit(TxnId txn, const DataOp& op, OpCallback cb) {
  loop_->Schedule(config_.op_service_time,
                  [this, txn, op, cb = std::move(cb)]() mutable {
                    ProcessOp(txn, op, std::move(cb));
                  });
}

void LocalDbms::ProcessOp(TxnId txn, const DataOp& op, OpCallback cb) {
  if (down_) {
    cb(Status::TransactionAborted(ToString(config_.id) + " is down"), 0);
    return;
  }
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    // The transaction died (deadlock victim / client abort) while this
    // operation was queued or blocked.
    cb(Status::TransactionAborted(ToString(txn) + " is not active"), 0);
    return;
  }
  TxnState& state = it->second;
  switch (protocol_->OnAccess(txn, op)) {
    case lcc::AccessDecision::kProceed: {
      int64_t value = ApplyOp(txn, &state, op);
      protocol_->OnAccessApplied(txn, op);
      cb(Status::OK(), value);
      return;
    }
    case lcc::AccessDecision::kBlock: {
      ++blocked_count_;
      MDBS_CHECK(!state.pending_op.has_value())
          << ToString(txn) << " blocked with an operation already pending";
      events_.Emit({.kind = obs::TraceEventKind::kOpBlocked,
                    .txn = txn.value(), .site = config_.id.value(),
                    .a = state.global.value(), .b = op.item.value()});
      state.pending_op = op;
      state.pending_cb = std::move(cb);
      return;
    }
    case lcc::AccessDecision::kAbort: {
      ++abort_count_;
      events_.Emit({.kind = obs::TraceEventKind::kLocalAbort,
                    .txn = txn.value(), .site = config_.id.value(),
                    .a = state.global.value(), .b = op.item.value()});
      DoAbort(txn, &state);
      txns_.erase(txn);
      cb(Status::TransactionAborted("local protocol abort at " +
                                    ToString(config_.id)),
         0);
      return;
    }
  }
}

int64_t LocalDbms::ApplyOp(TxnId txn, TxnState* state, const DataOp& op) {
  if (op.type == OpType::kRead) {
    int64_t value;
    TxnId read_from;
    if (std::optional<lcc::ResolvedRead> versioned =
            protocol_->ResolveRead(txn, op.item);
        versioned.has_value()) {
      value = versioned->value;  // Multiversion protocols answer directly.
      read_from = versioned->writer;
    } else if (!protocol_->WritesInPlace() &&
               state->write_buffer.contains(op.item)) {
      value = state->write_buffer.at(op.item);  // Read-your-own-writes.
      read_from = txn;
    } else if (protocol_->IsMultiversion() &&
               mv_initial_images_.contains(op.item)) {
      // Initial-version read after newer versions committed to the store.
      value = mv_initial_images_.at(op.item);
    } else {
      value = store_.Get(op.item);
    }
    const DataOp observed{OpType::kRead, op.item, value};
    events_.Emit({.kind = obs::TraceEventKind::kSiteRead, .txn = txn.value(),
                  .site = config_.id.value(), .b = read_from.value(),
                  .ticks = loop_->now(), .op = &observed});
    return value;
  }
  // Write.
  if (protocol_->WritesInPlace()) {
    int64_t before = store_.Put(op.item, op.value);
    TouchImage(op.item);
    state->undo_log.emplace_back(op.item, before);
    if (wal_ != nullptr) {
      storage::WalRecord rec;
      rec.type = storage::WalRecordType::kWrite;
      rec.txn = txn.value();
      rec.item = op.item.value();
      rec.before = before;
      rec.value = op.value;
      wal_->Append(rec);
      MaybeCheckpoint();
    }
    events_.Emit({.kind = obs::TraceEventKind::kSiteWrite, .txn = txn.value(),
                  .site = config_.id.value(), .ticks = loop_->now(),
                  .op = &op});
  } else {
    auto [buf_it, inserted] = state->write_buffer.try_emplace(op.item);
    buf_it->second = op.value;
    if (inserted) state->write_order.push_back(op.item);
    // Deferred writes are recorded when applied at commit, which is when
    // they become visible and conflict-ordered.
  }
  return op.value;
}

void LocalDbms::Commit(TxnId txn, TxnCallback cb) {
  loop_->Schedule(config_.commit_service_time,
                  [this, txn, cb = std::move(cb)]() mutable {
                    ProcessCommit(txn, std::move(cb));
                  });
}

void LocalDbms::ProcessCommit(TxnId txn, TxnCallback cb) {
  if (down_) {
    cb(Status::TransactionAborted(ToString(config_.id) + " is down"));
    return;
  }
  if (committed_txns_.count(txn) > 0) {
    // Duplicate Commit — the durable GTM re-drives its fan-out from the
    // logged cursor after a crash. Acknowledge without re-recording.
    cb(Status::OK());
    return;
  }
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    cb(Status::TransactionAborted(ToString(txn) + " is not active"));
    return;
  }
  TxnState& state = it->second;
  MDBS_CHECK(!state.pending_op.has_value())
      << ToString(txn) << " committing with a blocked operation";
  if (protocol_->OnValidate(txn) == lcc::AccessDecision::kAbort) {
    ++abort_count_;
    DoAbort(txn, &state);
    txns_.erase(txn);
    cb(Status::TransactionAborted("validation failed at " +
                                  ToString(config_.id)));
    return;
  }
  // Install deferred writes in submission order; they become visible (and
  // conflict-ordered) here. Multiversion installs carry the writer's
  // timestamp: version order can trail commit order, and both the WAL and
  // the mv-latest table must know which version is newest for readers.
  int64_t writer_ts = 0;
  if (protocol_->IsMultiversion()) {
    writer_ts = protocol_->SerializationKey(txn).value_or(0);
  }
  for (DataItemId item : state.write_order) {
    int64_t before = store_.Put(item, state.write_buffer.at(item));
    TouchImage(item);
    if (protocol_->IsMultiversion()) {
      mv_initial_images_.try_emplace(item, before);
      MvLatest candidate{writer_ts, txn, state.write_buffer.at(item)};
      auto [latest, inserted] = mv_latest_.try_emplace(item, candidate);
      if (!inserted && writer_ts >= latest->second.wts) {
        latest->second = candidate;
      }
    }
    if (wal_ != nullptr) {
      storage::WalRecord rec;
      rec.type = storage::WalRecordType::kWrite;
      rec.txn = txn.value();
      rec.item = item.value();
      rec.before = before;
      rec.value = state.write_buffer.at(item);
      rec.clock = writer_ts;
      wal_->Append(rec);
    }
    const DataOp installed = DataOp::Write(item, state.write_buffer.at(item));
    events_.Emit({.kind = obs::TraceEventKind::kSiteWrite, .txn = txn.value(),
                  .site = config_.id.value(), .ticks = loop_->now(),
                  .op = &installed});
  }
  protocol_->OnFinish(txn, TxnOutcome::kCommitted);
  if (wal_ != nullptr) {
    // The commit record hits the log before the ack callback fires — a
    // crash can only lose unacknowledged commits.
    for (const auto& [item, before] : state.undo_log) {
      last_writer_[item] = txn;
      TouchImage(item);
    }
    for (DataItemId item : state.write_order) {
      last_writer_[item] = txn;
      TouchImage(item);
    }
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kCommit;
    rec.txn = txn.value();
    rec.clock = protocol_->DurableClock();
    wal_->Append(rec);
  }
  events_.Emit({.kind = obs::TraceEventKind::kSiteCommit, .txn = txn.value(),
                .site = config_.id.value(), .a = state.global.value(),
                .key = protocol_->SerializationKey(txn)});
  committed_txns_.insert(txn);
  if (KeepsImage()) new_committed_.push_back(txn.value());
  txns_.erase(txn);
  // Checkpoint only after the committed transaction is fully retired: a
  // snapshot taken earlier would list it as active (with undo entries)
  // behind a commit record already in the log, and recovery would roll
  // back a committed write.
  MaybeCheckpoint();
  cb(Status::OK());
}

void LocalDbms::Abort(TxnId txn, TxnCallback cb) {
  loop_->Schedule(config_.commit_service_time,
                  [this, txn, cb = std::move(cb)]() mutable {
                    auto it = txns_.find(txn);
                    if (it == txns_.end()) {
                      cb(Status::OK());  // Already gone; abort is idempotent.
                      return;
                    }
                    DoAbort(txn, &it->second);
                    txns_.erase(it);
                    cb(Status::OK());
                  });
}

void LocalDbms::DoAbort(TxnId txn, TxnState* state) {
  // Undo in-place writes in reverse order, logging each restore as a
  // compensation record so replay repeats the rollback.
  for (auto undo_it = state->undo_log.rbegin();
       undo_it != state->undo_log.rend(); ++undo_it) {
    store_.Restore(undo_it->first, undo_it->second);
    TouchImage(undo_it->first);
    if (wal_ != nullptr) {
      storage::WalRecord rec;
      rec.type = storage::WalRecordType::kClr;
      rec.txn = txn.value();
      rec.item = undo_it->first.value();
      rec.value = undo_it->second;
      wal_->Append(rec);
    }
  }
  if (wal_ != nullptr) {
    // No checkpoint here: the aborting transaction is still in txns_, and
    // a snapshot listing it as active would be stale. The counter still
    // advances; the next begin/write/commit triggers the checkpoint.
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kAbort;
    rec.txn = txn.value();
    wal_->Append(rec);
  }
  protocol_->OnFinish(txn, TxnOutcome::kAborted);
  events_.Emit({.kind = obs::TraceEventKind::kSiteAbort, .txn = txn.value(),
                .site = config_.id.value(), .a = state->global.value()});
  // Fail the blocked operation's caller, if any.
  if (state->pending_op.has_value()) {
    OpCallback cb = std::move(state->pending_cb);
    state->pending_op.reset();
    loop_->Schedule(0, [cb = std::move(cb), txn]() {
      cb(Status::TransactionAborted(ToString(txn) + " aborted while blocked"),
         0);
    });
  }
}

void LocalDbms::AbortTransaction(TxnId txn, const std::string& reason) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;  // Already gone.
  (void)reason;
  ++abort_count_;
  DoAbort(txn, &it->second);
  txns_.erase(it);
}

void LocalDbms::Crash() {
  down_ = true;
  ++crash_count_;
  ++abort_count_;
  events_.Emit({.kind = obs::TraceEventKind::kCrash,
                .site = config_.id.value(),
                .a = static_cast<int64_t>(txns_.size())});
  std::vector<TxnId> active;
  active.reserve(txns_.size());
  for (const auto& [txn, state] : txns_) active.push_back(txn);
  if (!config_.durable) {
    // Legacy model: abort every active transaction — uncommitted in-place
    // writes roll back, committed data stands (the store is our "stable
    // storage").
    for (TxnId txn : active) {
      auto it = txns_.find(txn);
      if (it == txns_.end()) continue;
      DoAbort(txn, &it->second);
      txns_.erase(it);
    }
    return;
  }
  // Durable model: ALL volatile state vanishes — store, protocol state,
  // transaction table. Nothing is logged (the crash is the log ending
  // abruptly); active transactions are losers for the replay to undo.
  // Their outcome is still recorded and their blocked callers still fail,
  // exactly as a rollback-abort would report them.
  for (TxnId txn : active) {
    auto it = txns_.find(txn);
    if (it == txns_.end()) continue;
    TxnState& state = it->second;
    events_.Emit({.kind = obs::TraceEventKind::kSiteAbort, .txn = txn.value(),
                  .site = config_.id.value(), .a = state.global.value()});
    if (state.pending_op.has_value()) {
      OpCallback cb = std::move(state.pending_cb);
      state.pending_op.reset();
      loop_->Schedule(0, [cb = std::move(cb), txn]() {
        cb(Status::TransactionAborted(ToString(txn) +
                                      " aborted while blocked"),
           0);
      });
    }
    txns_.erase(it);
  }
  store_.Clear();
  mv_initial_images_.clear();
  last_writer_.clear();
  mv_latest_.clear();
  committed_txns_.clear();
  MarkImageStale();
  // The stale protocol instance stays (nothing touches it while down_);
  // Recover() builds the replacement.
}

void LocalDbms::Recover() {
  if (!config_.durable) {
    down_ = false;
    events_.Emit({.kind = obs::TraceEventKind::kRecover,
                  .site = config_.id.value()});
    return;
  }
  storage::RecoveredState recovered = ReplayAndInstall();
  // The site stays down for the modeled replay time; with the default of
  // zero it resumes at the tick Recover() ran, exactly like a non-durable
  // site (which is what makes crash-free-reference differentials exact).
  sim::Time replay_time =
      config_.recovery_base_time +
      config_.recovery_time_per_record * recovered.scanned_records;
  durability_stats_.recovery_ticks += replay_time;
  events_.Emit({.kind = obs::TraceEventKind::kRecoveryBegin,
                .site = config_.id.value(), .ticks = replay_time});
  auto finish = [this, records = recovered.scanned_records,
                 bytes = recovered.scanned_bytes]() {
    down_ = false;
    events_.Emit({.kind = obs::TraceEventKind::kRecover,
                  .site = config_.id.value(), .a = records, .b = bytes});
  };
  if (replay_time == 0) {
    finish();
  } else {
    loop_->Schedule(replay_time, std::move(finish));
  }
}

storage::RecoveredState LocalDbms::ReplayAndInstall() {
  // A fresh protocol instance: the old one's volatile state died with the
  // site. Rebuild before replay so its multiversion-ness drives it.
  protocol_ = MakeProtocol(config_.protocol, this, events_, config_.id);
  MDBS_CHECK(protocol_ != nullptr);
  if (auditor_ != nullptr) protocol_->EnableAudit(auditor_);

  storage::RecoveredState recovered;
  Status replayed = storage::RecoverWal(
      *wal_device_, protocol_->IsMultiversion(), &recovered);
  MDBS_CHECK(replayed.ok()) << ToString(config_.id)
                            << " WAL replay failed: " << replayed.message();
  if (recovered.torn_tail) {
    // Drop the torn frame so future appends start at a record boundary.
    wal_device_->Truncate(recovered.scanned_bytes);
  }

  store_.Clear();
  mv_initial_images_.clear();
  last_writer_.clear();
  mv_latest_.clear();
  for (const auto& [item, value] : recovered.store) {
    store_.Put(DataItemId(item), value);
  }
  for (const auto& [item, value] : recovered.mv_initial) {
    mv_initial_images_[DataItemId(item)] = value;
  }
  for (const auto& [item, writer] : recovered.last_writer) {
    last_writer_[DataItemId(item)] = TxnId(writer);
  }
  for (const auto& [item, v] : recovered.mv_latest) {
    mv_latest_[DataItemId(item)] = MvLatest{v.wts, TxnId(v.writer), v.value};
  }
  committed_txns_.clear();
  for (int64_t txn : recovered.committed_set) {
    committed_txns_.insert(TxnId(txn));
  }
  MarkImageStale();

  protocol_->RecoverClock(recovered.clock);
  if (protocol_->IsMultiversion()) {
    // Reseed the latest committed version per item, in sorted order for
    // reproducibility. The mv-latest table (timestamp order) decides which
    // value readers observe — the commit-order store value can belong to a
    // lower-timestamped writer that committed later, and serving it would
    // break serializability. Items the table does not cover (test pokes)
    // seed an anonymous version readers treat like the initial version.
    std::vector<std::pair<int64_t, int64_t>> items(recovered.store.begin(),
                                                   recovered.store.end());
    std::sort(items.begin(), items.end());
    for (const auto& [item, value] : items) {
      auto latest = recovered.mv_latest.find(item);
      if (latest != recovered.mv_latest.end()) {
        protocol_->RecoverCommittedVersion(DataItemId(item),
                                           latest->second.value,
                                           TxnId(latest->second.writer));
        continue;
      }
      auto writer = recovered.last_writer.find(item);
      protocol_->RecoverCommittedVersion(
          DataItemId(item), value,
          writer != recovered.last_writer.end() ? TxnId(writer->second)
                                                : TxnId());
    }
  }

  ++durability_stats_.recoveries;
  durability_stats_.replay_records += recovered.scanned_records;
  durability_stats_.replay_bytes += recovered.scanned_bytes;
  durability_stats_.redo_writes += recovered.redo_writes;
  durability_stats_.undone_writes += recovered.undone_writes;
  return recovered;
}

namespace {

int64_t EntryItem(const storage::CheckpointImage::Item& entry) {
  return entry.item;
}
int64_t EntryItem(const storage::CheckpointImage::MvInitial& entry) {
  return entry.item;
}
int64_t EntryItem(const storage::CheckpointImage::MvVersion& entry) {
  return entry.item;
}

/// Brings the entries of `table` (sorted by item) up to date for the
/// sorted, unique `dirty` items: each becomes `fresh(item)`, or is dropped
/// when that is empty. Entries that stay are overwritten in place. When
/// entries come or go, the table is edited in place, never rebuilt: those
/// that go are squeezed out front to back, then those that come are merged
/// in from the back, so only the entries after the first change move.
template <typename Entry, typename Fresh>
void RefreshSorted(std::vector<Entry>* table,
                   const std::vector<int64_t>& dirty, Fresh fresh) {
  auto before = [](const Entry& entry, int64_t item) {
    return EntryItem(entry) < item;
  };
  std::vector<size_t> gone;  // Positions in `table`, ascending.
  std::vector<Entry> added;  // Sorted by item.
  auto at = table->begin();
  for (int64_t item : dirty) {
    at = std::lower_bound(at, table->end(), item, before);
    const bool present = at != table->end() && EntryItem(*at) == item;
    std::optional<Entry> entry = fresh(item);
    if (present && entry.has_value()) {
      *at = *entry;
    } else if (present) {
      gone.push_back(static_cast<size_t>(at - table->begin()));
    } else if (entry.has_value()) {
      added.push_back(*entry);
    }
  }
  if (!gone.empty()) {
    auto out = table->begin() + gone.front();
    for (size_t k = 0; k < gone.size(); ++k) {
      auto next_gone = k + 1 < gone.size() ? table->begin() + gone[k + 1]
                                           : table->end();
      out = std::move(table->begin() + gone[k] + 1, next_gone, out);
    }
    table->erase(out, table->end());
  }
  if (added.empty()) return;
  const size_t kept = table->size();
  table->resize(kept + added.size());
  auto kept_end = table->begin() + kept;
  auto out = table->end();
  for (auto entry = added.rbegin(); entry != added.rend(); ++entry) {
    auto after = std::lower_bound(table->begin(), kept_end,
                                  EntryItem(*entry), before);
    out = std::move_backward(after, kept_end, out);
    kept_end = after;
    *--out = *entry;
  }
}

}  // namespace

void LocalDbms::MarkImageStale() {
  image_ = storage::CheckpointImage{};
  dirty_items_.clear();
  new_committed_.clear();
  if (!KeepsImage()) return;
  for (const auto& [item, value] : store_.items()) {
    dirty_items_.push_back(item.value());
  }
  for (const auto& [item, value] : mv_initial_images_) {
    dirty_items_.push_back(item.value());
  }
  for (const auto& [item, latest] : mv_latest_) {
    dirty_items_.push_back(item.value());
  }
  for (TxnId txn : committed_txns_) new_committed_.push_back(txn.value());
}

void LocalDbms::RefreshImage() {
  std::sort(dirty_items_.begin(), dirty_items_.end());
  dirty_items_.erase(std::unique(dirty_items_.begin(), dirty_items_.end()),
                     dirty_items_.end());
  using Image = storage::CheckpointImage;
  auto item_entry = [this](int64_t item) -> std::optional<Image::Item> {
    auto stored = store_.items().find(DataItemId(item));
    if (stored == store_.items().end()) return std::nullopt;
    auto writer = last_writer_.find(DataItemId(item));
    return Image::Item{
        item, stored->second,
        writer != last_writer_.end() ? writer->second.value() : -1};
  };
  auto initial_entry =
      [this](int64_t item) -> std::optional<Image::MvInitial> {
    auto initial = mv_initial_images_.find(DataItemId(item));
    if (initial == mv_initial_images_.end()) return std::nullopt;
    return Image::MvInitial{item, initial->second};
  };
  auto latest_entry = [this](int64_t item) -> std::optional<Image::MvVersion> {
    auto latest = mv_latest_.find(DataItemId(item));
    if (latest == mv_latest_.end()) return std::nullopt;
    return Image::MvVersion{item, latest->second.wts,
                            latest->second.writer.value(),
                            latest->second.value};
  };
  RefreshSorted(&image_.items, dirty_items_, item_entry);
  RefreshSorted(&image_.mv_initial, dirty_items_, initial_entry);
  RefreshSorted(&image_.mv_latest, dirty_items_, latest_entry);
  dirty_items_.clear();
  std::sort(new_committed_.begin(), new_committed_.end());
  size_t merged = image_.committed.size();
  image_.committed.insert(image_.committed.end(), new_committed_.begin(),
                          new_committed_.end());
  std::inplace_merge(image_.committed.begin(),
                     image_.committed.begin() + merged,
                     image_.committed.end());
  new_committed_.clear();
}

storage::CheckpointImage LocalDbms::BuildImageFromScratch() const {
  storage::CheckpointImage image;
  for (TxnId txn : committed_txns_) image.committed.push_back(txn.value());
  std::sort(image.committed.begin(), image.committed.end());
  for (const auto& [item, value] : store_.items()) {
    storage::CheckpointImage::Item entry;
    entry.item = item.value();
    entry.value = value;
    auto writer = last_writer_.find(item);
    entry.last_committed_writer =
        writer != last_writer_.end() ? writer->second.value() : -1;
    image.items.push_back(entry);
  }
  std::sort(image.items.begin(), image.items.end(),
            [](const auto& a, const auto& b) { return a.item < b.item; });
  for (const auto& [item, value] : mv_initial_images_) {
    image.mv_initial.push_back({item.value(), value});
  }
  std::sort(image.mv_initial.begin(), image.mv_initial.end(),
            [](const auto& a, const auto& b) { return a.item < b.item; });
  for (const auto& [item, latest] : mv_latest_) {
    storage::CheckpointImage::MvVersion v;
    v.item = item.value();
    v.wts = latest.wts;
    v.writer = latest.writer.value();
    v.value = latest.value;
    image.mv_latest.push_back(v);
  }
  std::sort(image.mv_latest.begin(), image.mv_latest.end(),
            [](const auto& a, const auto& b) { return a.item < b.item; });
  return image;
}

void LocalDbms::AuditCheckpointImage(const storage::CheckpointImage& image) {
  storage::CheckpointImage oracle = BuildImageFromScratch();
  std::string diff;
  auto compare = [&diff](const char* table, const auto& kept,
                         const auto& built) {
    if (kept == built) return;
    diff.append(diff.empty() ? "" : ", ")
        .append(table)
        .append(" (kept ")
        .append(std::to_string(kept.size()))
        .append(" entries, built ")
        .append(std::to_string(built.size()))
        .append(")");
  };
  compare("committed", image.committed, oracle.committed);
  compare("items", image.items, oracle.items);
  compare("mv_initial", image.mv_initial, oracle.mv_initial);
  compare("mv_latest", image.mv_latest, oracle.mv_latest);
  if (diff.empty()) return;
  auditor_->Report(audit::AuditViolation{
      "checkpoint-image",
      ToString(config_.id) +
          " checkpoint image differs from the live tables: " + diff,
      {}});
}

void LocalDbms::MaybeCheckpoint() {
  if (!KeepsImage() ||
      wal_->records_since_checkpoint() < config_.checkpoint_interval) {
    return;
  }
  RefreshImage();
  if (audit::kAuditCompiledIn && auditor_ != nullptr) {
    AuditCheckpointImage(image_);
  }
  storage::WalRecord rec;
  rec.type = storage::WalRecordType::kCheckpoint;
  // Lend the kept tables to the record instead of copying them.
  rec.checkpoint = std::move(image_);
  storage::CheckpointImage& image = rec.checkpoint;
  image.clock = protocol_->DurableClock();
  image.active.clear();
  for (const auto& [txn, state] : txns_) {
    storage::CheckpointImage::ActiveTxn active;
    active.txn = txn.value();
    active.global = state.global.value();
    for (const auto& [item, before] : state.undo_log) {
      active.undo.emplace_back(item.value(), before);
    }
    image.active.push_back(std::move(active));
  }
  std::sort(image.active.begin(), image.active.end(),
            [](const auto& a, const auto& b) { return a.txn < b.txn; });
  wal_->Append(rec);
  image_ = std::move(rec.checkpoint);
  ++durability_stats_.checkpoints;
}

void LocalDbms::ResumeTransaction(TxnId txn) {
  auto it = txns_.find(txn);
  if (it == txns_.end()) return;  // Woken after finishing: ignore.
  TxnState& state = it->second;
  if (!state.pending_op.has_value() || state.resume_scheduled) return;
  state.resume_scheduled = true;
  loop_->Schedule(0, [this, txn]() {
    auto resume_it = txns_.find(txn);
    if (resume_it == txns_.end()) return;
    TxnState& resume_state = resume_it->second;
    resume_state.resume_scheduled = false;
    if (!resume_state.pending_op.has_value()) return;
    DataOp op = *resume_state.pending_op;
    OpCallback cb = std::move(resume_state.pending_cb);
    resume_state.pending_op.reset();
    events_.Emit({.kind = obs::TraceEventKind::kOpResumed, .txn = txn.value(),
                  .site = config_.id.value(), .a = resume_state.global.value(),
                  .b = op.item.value()});
    ProcessOp(txn, op, std::move(cb));
  });
}

}  // namespace mdbs::site
