#include "obs/trace.h"

#include <algorithm>

namespace mdbs::obs {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSubmit:
      return "submit";
    case TraceEventKind::kAttemptStart:
      return "attempt_start";
    case TraceEventKind::kAttemptTimeout:
      return "attempt_timeout";
    case TraceEventKind::kAttemptAbort:
      return "attempt_abort";
    case TraceEventKind::kTxnCommit:
      return "txn_commit";
    case TraceEventKind::kTxnFail:
      return "txn_fail";
    case TraceEventKind::kInit:
      return "init";
    case TraceEventKind::kSerRelease:
      return "ser_release";
    case TraceEventKind::kAck:
      return "ack";
    case TraceEventKind::kValidate:
      return "validate";
    case TraceEventKind::kFin:
      return "fin";
    case TraceEventKind::kWaitEnter:
      return "wait_enter";
    case TraceEventKind::kWaitExit:
      return "wait_exit";
    case TraceEventKind::kWaitAbandon:
      return "wait_abandon";
    case TraceEventKind::kSchemeAbort:
      return "scheme_abort";
    case TraceEventKind::kQueueDepth:
      return "queue_depth";
    case TraceEventKind::kEdgeMark:
      return "edge_mark";
    case TraceEventKind::kEdgeUnmark:
      return "edge_unmark";
    case TraceEventKind::kDepAdd:
      return "dep_add";
    case TraceEventKind::kDepDrop:
      return "dep_drop";
    case TraceEventKind::kSerBefSeed:
      return "ser_bef_seed";
    case TraceEventKind::kSiteBegin:
      return "site_begin";
    case TraceEventKind::kSiteCommit:
      return "site_commit";
    case TraceEventKind::kSiteAbort:
      return "site_abort";
    case TraceEventKind::kOpBlocked:
      return "op_blocked";
    case TraceEventKind::kOpResumed:
      return "op_resumed";
    case TraceEventKind::kLocalAbort:
      return "local_abort";
    case TraceEventKind::kValidationFail:
      return "validation_fail";
    case TraceEventKind::kLockWait:
      return "lock_wait";
    case TraceEventKind::kDeadlock:
      return "deadlock";
    case TraceEventKind::kWound:
      return "wound";
    case TraceEventKind::kCrash:
      return "crash";
    case TraceEventKind::kRecoveryBegin:
      return "recovery_begin";
    case TraceEventKind::kRecover:
      return "recover";
    case TraceEventKind::kSiteSuspect:
      return "site_suspect";
    case TraceEventKind::kSiteDown:
      return "site_down";
    case TraceEventKind::kSiteUp:
      return "site_up";
    case TraceEventKind::kTxnParked:
      return "txn_parked";
    case TraceEventKind::kTxnUnparked:
      return "txn_unparked";
    case TraceEventKind::kTxnResubmit:
      return "txn_resubmit";
    case TraceEventKind::kNetFault:
      return "net_fault";
    case TraceEventKind::kGtmCrash:
      return "gtm_crash";
    case TraceEventKind::kGtmRecover:
      return "gtm_recover";
    case TraceEventKind::kStrandBacklog:
      return "strand_backlog";
    case TraceEventKind::kDowngrade:
      return "downgrade";
    case TraceEventKind::kGtmPromoteBegin:
      return "gtm_promote_begin";
    case TraceEventKind::kGtmPromote:
      return "gtm_promote";
    case TraceEventKind::kAdmission:
      return "admission";
    case TraceEventKind::kStep:
      return "step";
    case TraceEventKind::kSiteWork:
      return "site_work";
    case TraceEventKind::kSiteReply:
      return "site_reply";
    case TraceEventKind::kRoundTripEnd:
      return "round_trip_end";
    case TraceEventKind::kSiteRead:
      return "site_read";
    case TraceEventKind::kSiteWrite:
      return "site_write";
  }
  return "?";
}

namespace {
std::atomic<uint64_t> g_next_sink_id{1};
}  // namespace

TraceSink::TraceSink(const TraceConfig& config, Clock clock)
    : config_(config),
      clock_(std::move(clock)),
      id_(g_next_sink_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceSink::Buffer* TraceSink::LocalBuffer() {
  // Cache the (sink id -> buffer) mapping per thread; the id — never reused
  // across sink instances — guards against a stale pointer into a sink that
  // died at this address and was replaced by another.
  thread_local uint64_t cached_id = 0;
  thread_local Buffer* cached_buffer = nullptr;
  if (cached_id == id_) return cached_buffer;
  auto owned = std::make_unique<Buffer>();
  owned->events.reserve(std::min<size_t>(config_.buffer_capacity, 4096));
  Buffer* buffer = owned.get();
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffers_.push_back(std::move(owned));
  }
  cached_id = id_;
  cached_buffer = buffer;
  return buffer;
}

void TraceSink::Record(TraceEventKind kind, int64_t txn, int64_t site,
                       int64_t a, int64_t b, const char* detail) {
  if (!enabled()) return;
  TraceEvent event;
  event.kind = kind;
  event.time = clock_();
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.txn = txn;
  event.site = site;
  event.a = a;
  event.b = b;
  event.detail = detail;
  Buffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->events.size() >= config_.buffer_capacity) {
    ++buffer->dropped;
    return;
  }
  buffer->events.push_back(event);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceSink::Drain() {
  std::vector<TraceEvent> merged;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    merged.insert(merged.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
  }
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              if (x.time != y.time) return x.time < y.time;
              return x.seq < y.seq;
            });
  return merged;
}

int64_t TraceSink::dropped() const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += buffer->dropped;
  }
  return total;
}

int64_t TraceSink::recorded() const {
  return recorded_.load(std::memory_order_relaxed);
}

}  // namespace mdbs::obs
