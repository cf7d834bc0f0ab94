// Benchmark-side timing for the traced sub-runs. Nothing here is compiled
// into the program: spans are recorded around calls the benchmark makes or
// intercepts through seams the program already has —
//   * Gtm1Config::scheme_factory -> TimedScheme wraps the real Scheme 3;
//   * SiteConfig::wal_device / Gtm1Config::wal_device -> TimedLogDevice;
//   * the benchmark's own SubmitGlobal calls and completion callbacks.
#ifndef WALLBENCH_SEAMS_H_
#define WALLBENCH_SEAMS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gtm/scheme.h"
#include "storage/log_device.h"

namespace wallbench {

enum class SpanName : uint8_t {
  kSchemeCond,     // Scheme::Cond* (gtm)
  kSchemeAct,      // Scheme::Act* (gtm)
  kSchemeCleanup,  // Scheme::ActAbortCleanup (gtm)
  kSchemeState,    // Scheme snapshot encode/decode (gtm, durable only)
  kSiteWalAppend,  // LogDevice::Append on a site WAL (storage)
  kSiteWalSync,    // LogDevice::Sync on a site WAL (storage)
  kGtmWalAppend,   // LogDevice::Append on the GTM WAL (storage)
  kGtmWalSync,     // LogDevice::Sync on the GTM WAL (storage)
  kSubmit,         // Mdbs::SubmitGlobal call on the generator thread (mdbs)
  kCallback,       // the benchmark's completion callback (GTM strand)
};
inline constexpr int kSpanNameCount = 10;
const char* SpanNameString(SpanName name);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (the mean of the middle two for an even count); 0 for
/// none.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// In-memory span store shared by every thread of a traced run. Per-name
/// totals are exact; individual spans are kept up to a fixed capacity (the
/// rest are counted as dropped) and written out once the run has ended.
class SpanLog {
 public:
  struct Span {
    SpanName name = SpanName::kSchemeCond;
    /// The GlobalTxnId attempt for scheme spans, the benchmark's own
    /// transaction sequence number for submit/callback spans, -1 for WAL
    /// spans (the device does not know which transaction appends).
    int64_t txn = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Duration minus the part covered by child spans on the same thread.
    int64_t self_ns = 0;
  };
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit SpanLog(size_t capacity) : spans_(capacity), epoch_ns_(NowNs()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void Record(SpanName name, int64_t txn, int64_t start_ns, int64_t end_ns,
              int64_t self_ns) {
    Agg& agg = aggs_[static_cast<size_t>(name)];
    agg.count.fetch_add(1, std::memory_order_relaxed);
    agg.total_ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
    agg.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
    const size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot < spans_.size()) {
      spans_[slot] = Span{name, txn, start_ns - epoch_ns_, end_ns - epoch_ns_,
                          self_ns};
    }
  }

  /// Read only after every recording thread has been joined.
  Totals totals(SpanName name) const {
    const Agg& agg = aggs_[static_cast<size_t>(name)];
    return Totals{agg.count.load(), agg.total_ns.load(), agg.self_ns.load()};
  }
  int64_t kept() const {
    return static_cast<int64_t>(std::min(next_.load(), spans_.size()));
  }
  int64_t dropped() const {
    return static_cast<int64_t>(next_.load()) - kept();
  }

  /// Writes the kept spans as CSV. Read only after the run has ended.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Agg {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> total_ns{0};
    std::atomic<int64_t> self_ns{0};
  };
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::array<Agg, kSpanNameCount> aggs_;
  int64_t epoch_ns_;
};

/// Times one call. A null log makes it a no-op, so plain runs pay nothing.
/// Spans nest per thread: a span's self time excludes its children.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, int64_t txn)
      : log_(log), name_(name), txn_(txn) {
    if (log_ == nullptr) return;
    parent_ = top_;
    top_ = this;
    start_ns_ = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    const int64_t end_ns = NowNs();
    top_ = parent_;
    const int64_t duration = end_ns - start_ns_;
    if (parent_ != nullptr) parent_->child_ns_ += duration;
    log_->Record(name_, txn_, start_ns_, end_ns, duration - child_ns_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static thread_local ScopedSpan* top_;
  SpanLog* log_;
  SpanName name_;
  int64_t txn_;
  ScopedSpan* parent_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
};

/// Decorates the real scheme: forwards every virtual (the snapshot surface
/// included, so a durable GTM checkpoints through it) and mirrors the inner
/// step counter, so Gtm2Stats::failed_rescan_steps match a plain run.
class TimedScheme final : public mdbs::gtm::Scheme {
 public:
  TimedScheme(std::unique_ptr<mdbs::gtm::Scheme> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  mdbs::gtm::SchemeKind kind() const override { return inner_->kind(); }
  const char* Name() const override { return inner_->Name(); }

  mdbs::gtm::Verdict CondInit(const mdbs::gtm::QueueOp& op) override {
    Call call(this, SpanName::kSchemeCond, op.txn);
    return inner_->CondInit(op);
  }
  void ActInit(const mdbs::gtm::QueueOp& op) override {
    Call call(this, SpanName::kSchemeAct, op.txn);
    inner_->ActInit(op);
  }
  mdbs::gtm::Verdict CondSer(mdbs::GlobalTxnId txn,
                             mdbs::SiteId site) override {
    Call call(this, SpanName::kSchemeCond, txn);
    return inner_->CondSer(txn, site);
  }
  void ActSer(mdbs::GlobalTxnId txn, mdbs::SiteId site) override {
    Call call(this, SpanName::kSchemeAct, txn);
    inner_->ActSer(txn, site);
  }
  mdbs::gtm::Verdict CondAck(mdbs::GlobalTxnId txn,
                             mdbs::SiteId site) override {
    Call call(this, SpanName::kSchemeCond, txn);
    return inner_->CondAck(txn, site);
  }
  void ActAck(mdbs::GlobalTxnId txn, mdbs::SiteId site) override {
    Call call(this, SpanName::kSchemeAct, txn);
    inner_->ActAck(txn, site);
  }
  mdbs::gtm::Verdict CondValidate(mdbs::GlobalTxnId txn) override {
    Call call(this, SpanName::kSchemeCond, txn);
    return inner_->CondValidate(txn);
  }
  void ActValidate(mdbs::GlobalTxnId txn) override {
    Call call(this, SpanName::kSchemeAct, txn);
    inner_->ActValidate(txn);
  }
  mdbs::gtm::Verdict CondFin(mdbs::GlobalTxnId txn) override {
    Call call(this, SpanName::kSchemeCond, txn);
    return inner_->CondFin(txn);
  }
  void ActFin(mdbs::GlobalTxnId txn) override {
    Call call(this, SpanName::kSchemeAct, txn);
    inner_->ActFin(txn);
  }
  void ActAbortCleanup(mdbs::GlobalTxnId txn) override {
    Call call(this, SpanName::kSchemeCleanup, txn);
    inner_->ActAbortCleanup(txn);
  }

  bool IsConservative() const override { return inner_->IsConservative(); }
  mdbs::Status CheckStructuralInvariants() const override {
    return inner_->CheckStructuralInvariants();
  }
  mdbs::Status AuditSerRelease(mdbs::GlobalTxnId txn,
                               mdbs::SiteId site) const override {
    return inner_->AuditSerRelease(txn, site);
  }
  bool SupportsSnapshot() const override { return inner_->SupportsSnapshot(); }
  void EncodeState(std::vector<uint8_t>* out) const override {
    ScopedSpan span(log_, SpanName::kSchemeState, -1);
    inner_->EncodeState(out);
  }
  bool DecodeState(const uint8_t* data, size_t size) override {
    ScopedSpan span(log_, SpanName::kSchemeState, -1);
    return inner_->DecodeState(data, size);
  }

 private:
  // Span plus step mirroring around one forwarded cond/act call. The step
  // delta is added after the inner call returns (destruction order).
  class Call {
   public:
    Call(TimedScheme* self, SpanName name, mdbs::GlobalTxnId txn)
        : span_(self->log_, name, txn.value()),
          self_(self),
          steps_before_(self->inner_->steps()) {}
    ~Call() { self_->AddSteps(self_->inner_->steps() - steps_before_); }

    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    ScopedSpan span_;
    TimedScheme* self_;
    int64_t steps_before_;
  };

  std::unique_ptr<mdbs::gtm::Scheme> inner_;
  SpanLog* log_;
};

/// An in-memory log device that times Append/Sync and counts bytes. Each
/// device is used by one strand; read the counters after the run.
class TimedLogDevice final : public mdbs::storage::LogDevice {
 public:
  TimedLogDevice(SpanLog* log, SpanName append, SpanName sync)
      : log_(log), append_(append), sync_(sync) {}

  mdbs::Status Append(const void* data, size_t size) override {
    ScopedSpan span(log_, append_, -1);
    ++appends_;
    bytes_ += static_cast<int64_t>(size);
    return inner_.Append(data, size);
  }
  mdbs::Status Sync() override {
    ScopedSpan span(log_, sync_, -1);
    ++syncs_;
    return inner_.Sync();
  }
  int64_t Size() const override { return inner_.Size(); }
  mdbs::Status ReadAll(std::vector<uint8_t>* out) const override {
    return inner_.ReadAll(out);
  }
  void Truncate(int64_t size) override { inner_.Truncate(size); }

  int64_t appends() const { return appends_; }
  int64_t bytes() const { return bytes_; }
  int64_t syncs() const { return syncs_; }

 private:
  mdbs::storage::MemLogDevice inner_;
  SpanLog* log_;
  SpanName append_;
  SpanName sync_;
  int64_t appends_ = 0;
  int64_t bytes_ = 0;
  int64_t syncs_ = 0;
};

}  // namespace wallbench

#endif  // WALLBENCH_SEAMS_H_
