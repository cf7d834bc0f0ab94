#include "obs/trace_export.h"

#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace mdbs::obs {
namespace {

/// tid 0 is the GTM track; site k renders as tid k + 1.
int64_t TidFor(const TraceEvent& e) { return e.site >= 0 ? e.site + 2 : 1; }

constexpr int64_t kPid = 1;

/// Emits one event header (common fields); the caller finishes the object.
void BeginEvent(JsonWriter& w, const char* ph, const char* name, int64_t tid,
                sim::Time ts) {
  w.BeginObject();
  w.Key("name").String(name);
  w.Key("ph").String(ph);
  w.Key("pid").Int(kPid);
  w.Key("tid").Int(tid);
  w.Key("ts").Int(ts);
}

struct OpenSpan {
  std::string name;
  const char* cat;
  int64_t tid;
  sim::Time begin;
};

/// Async-span bookkeeping: Chrome's "b"/"e" events pair up by (cat, id), and
/// async is the right phase here because many spans of one category overlap
/// on one track at a time (e.g. dozens of ops in WAIT at once).
class SpanTable {
 public:
  explicit SpanTable(JsonWriter& w) : w_(w) {}

  void Open(const std::string& id, std::string name, const char* cat,
            int64_t tid, sim::Time ts) {
    // Re-opening an id (e.g. a retried local txn reusing its key) force-ends
    // the stale span so begins and ends stay balanced.
    Close(id, ts);
    Emit("b", name, cat, id, tid, ts);
    open_.emplace(id, OpenSpan{std::move(name), cat, tid, ts});
  }

  bool Close(const std::string& id, sim::Time ts) {
    auto it = open_.find(id);
    if (it == open_.end()) return false;
    Emit("e", it->second.name, it->second.cat, id, it->second.tid, ts);
    open_.erase(it);
    return true;
  }

  /// Ends every span still open (a run can finish with ops parked in WAIT).
  void CloseAll(sim::Time ts) {
    // Deterministic order: open_ is an ordered map keyed by span id.
    for (const auto& [id, span] : open_) {
      Emit("e", span.name, span.cat, id, span.tid, ts);
    }
    open_.clear();
  }

 private:
  void Emit(const char* ph, const std::string& name, const char* cat,
            const std::string& id, int64_t tid, sim::Time ts) {
    BeginEvent(w_, ph, name.c_str(), tid, ts);
    w_.Key("cat").String(cat);
    w_.Key("id").String(id);
    w_.EndObject();
  }

  JsonWriter& w_;
  std::map<std::string, OpenSpan> open_;
};

void EmitThreadName(JsonWriter& w, int64_t tid, const std::string& name) {
  w.BeginObject();
  w.Key("name").String("thread_name");
  w.Key("ph").String("M");
  w.Key("pid").Int(kPid);
  w.Key("tid").Int(tid);
  w.Key("args").BeginObject();
  w.Key("name").String(name);
  w.EndObject();
  w.EndObject();
}

void EmitCounter(JsonWriter& w, const char* name, sim::Time ts,
                 std::initializer_list<std::pair<const char*, int64_t>> args) {
  BeginEvent(w, "C", name, 1, ts);
  w.Key("args").BeginObject();
  for (const auto& [key, value] : args) w.Key(key).Int(value);
  w.EndObject();
  w.EndObject();
}

void EmitInstant(JsonWriter& w, const TraceEvent& e) {
  BeginEvent(w, "i", TraceEventKindName(e.kind), TidFor(e), e.time);
  w.Key("s").String("t");  // thread-scoped instant
  w.Key("args").BeginObject();
  w.Key("txn").Int(e.txn);
  if (e.site >= 0) w.Key("site").Int(e.site);
  w.Key("a").Int(e.a);
  w.Key("b").Int(e.b);
  if (e.detail != nullptr) w.Key("detail").String(e.detail);
  w.EndObject();
  w.EndObject();
}

/// `prefix` followed by `n`. Built with append: GCC 12 at -O3 reports a
/// false -Wrestrict on `const char* + std::string&&`.
std::string Tagged(const char* prefix, int64_t n) {
  std::string out(prefix);
  out.append(std::to_string(n));
  return out;
}

std::string AttemptKey(int64_t attempt) { return Tagged("a", attempt); }

std::string WaitKey(const TraceEvent& e) {
  std::string key = Tagged("w", e.txn);
  key.append(":").append(std::to_string(e.site)).append(":");
  key.append(e.detail != nullptr ? e.detail : "?");
  return key;
}

std::string SubtxnKey(int64_t site, int64_t txn) {
  std::string key = Tagged("t", site);
  key.append(":").append(std::to_string(txn));
  return key;
}

std::string BlockKey(int64_t site, int64_t txn) {
  std::string key = Tagged("blk", site);
  key.append(":").append(std::to_string(txn));
  return key;
}

std::string CrashKey(int64_t site) { return Tagged("crash", site); }

std::string RecoveryKey(int64_t site) { return Tagged("rcv", site); }

}  // namespace

void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events,
                      const ChromeTraceOptions& options) {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray(/*one_per_line=*/true);

  EmitThreadName(w, 1, "GTM");
  std::map<int64_t, std::string> site_names(options.site_names.begin(),
                                            options.site_names.end());
  for (const TraceEvent& e : events) {
    if (e.site >= 0 && !site_names.count(e.site)) {
      site_names.emplace(e.site, Tagged("site-", e.site));
    }
  }
  for (const auto& [site, name] : site_names) {
    EmitThreadName(w, site + 2, name);
  }

  sim::Time end_ts = 0;
  for (const TraceEvent& e : events) end_ts = std::max(end_ts, e.time);

  SpanTable spans(w);
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kAttemptStart: {
        std::string name = Tagged("G", e.a);
        name.append(" attempt ").append(std::to_string(e.b));
        spans.Open(AttemptKey(e.txn), std::move(name), "attempt", 1, e.time);
        break;
      }
      case TraceEventKind::kTxnCommit:
      case TraceEventKind::kAttemptAbort:
        spans.Close(AttemptKey(e.txn), e.time);
        EmitInstant(w, e);
        break;

      case TraceEventKind::kWaitEnter:
        spans.Open(
            WaitKey(e),
            std::string("WAIT ") + (e.detail != nullptr ? e.detail : "?"),
            "wait", 1, e.time);
        break;
      case TraceEventKind::kWaitExit:
      case TraceEventKind::kWaitAbandon:
        spans.Close(WaitKey(e), e.time);
        if (e.kind == TraceEventKind::kWaitAbandon) EmitInstant(w, e);
        break;

      case TraceEventKind::kSiteBegin:
        spans.Open(SubtxnKey(e.site, e.txn),
                   e.a >= 0 ? Tagged("G", e.a) : Tagged("local T", e.txn),
                   "subtxn", TidFor(e), e.time);
        break;
      case TraceEventKind::kSiteCommit:
      case TraceEventKind::kSiteAbort:
        // An abort (or commit) also retires any still-blocked operation.
        spans.Close(BlockKey(e.site, e.txn), e.time);
        spans.Close(SubtxnKey(e.site, e.txn), e.time);
        if (e.kind == TraceEventKind::kSiteAbort) EmitInstant(w, e);
        break;

      case TraceEventKind::kOpBlocked:
        spans.Open(BlockKey(e.site, e.txn), "blocked", "block", TidFor(e),
                   e.time);
        break;
      case TraceEventKind::kOpResumed:
        spans.Close(BlockKey(e.site, e.txn), e.time);
        break;

      case TraceEventKind::kCrash:
        // The outage window renders as a span on the crashed site's own
        // track, so the lock waits and aborts it causes line up under it.
        spans.Open(CrashKey(e.site), "DOWN", "crash", TidFor(e), e.time);
        EmitInstant(w, e);
        break;
      case TraceEventKind::kRecoveryBegin:
        // WAL replay renders as a RECOVERY span nested inside the DOWN
        // window on the same site track.
        spans.Open(RecoveryKey(e.site), "RECOVERY", "recovery", TidFor(e),
                   e.time);
        EmitInstant(w, e);
        break;
      case TraceEventKind::kRecover:
        spans.Close(RecoveryKey(e.site), e.time);
        spans.Close(CrashKey(e.site), e.time);
        EmitInstant(w, e);
        break;

      case TraceEventKind::kGtmCrash:
        // The GTM outage renders as a span on the GTM track; WAL replay
        // and the resumed/aborted attempts it causes line up under it.
        spans.Open("gtmdown", "GTM DOWN", "gtm_crash", 1, e.time);
        EmitInstant(w, e);
        break;
      case TraceEventKind::kGtmRecover:
        spans.Close("gtmdown", e.time);
        EmitInstant(w, e);
        break;
      case TraceEventKind::kGtmPromoteBegin:
        // Failover renders as its own span on the GTM track, nested under
        // the GTM DOWN span the primary's crash opened: the visible gap
        // between them is the detection delay, and the FAILOVER span's
        // width is the tail-bounded takeover work.
        spans.Open("failover", "FAILOVER", "gtm_failover", 1, e.time);
        EmitInstant(w, e);
        break;
      case TraceEventKind::kGtmPromote:
        spans.Close("failover", e.time);
        spans.Close("gtmdown", e.time);
        EmitInstant(w, e);
        break;

      case TraceEventKind::kQueueDepth:
        EmitCounter(w, "gtm2 depth", e.time,
                    {{"queue", e.a}, {"wait", e.b}});
        break;
      case TraceEventKind::kStrandBacklog:
        EmitCounter(w,
                    e.site >= 0
                        ? ("backlog s" + std::to_string(e.site)).c_str()
                        : "backlog gtm",
                    e.time, {{"tasks", e.a}});
        break;

      default:
        EmitInstant(w, e);
        break;
    }
  }
  spans.CloseAll(end_ts);

  w.EndArray();
  w.EndObject();
  os << "\n";
}

Status WriteChromeTraceFile(const std::string& path,
                            const std::vector<TraceEvent>& events,
                            const ChromeTraceOptions& options) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open trace output file: " + path);
  }
  WriteChromeTrace(out, events, options);
  out.flush();
  if (!out) return Status::Internal("short write to trace file: " + path);
  return Status::OK();
}

}  // namespace mdbs::obs
