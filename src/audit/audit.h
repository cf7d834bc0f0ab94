#ifndef MDBS_AUDIT_AUDIT_H_
#define MDBS_AUDIT_AUDIT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mdbs::audit {

/// Compile-time master switch. `-DMDBS_AUDIT=OFF` at configure time compiles
/// every audit hook down to a constant-false branch; with the default ON the
/// hooks exist and are toggled per component at runtime via AuditConfig.
#ifdef MDBS_AUDIT_ENABLED
inline constexpr bool kAuditCompiledIn = true;
#else
inline constexpr bool kAuditCompiledIn = false;
#endif

/// Runtime toggles of the invariant auditor. One instance travels from the
/// top-level configuration (MdbsConfig::audit) into every hooked component;
/// an enabled auditor runs every check: the scheme's release discipline,
/// the abstract ser(S) graph, the scheme's structural self-check after
/// every act, the lock tables, and the end-of-run oracle.
struct AuditConfig {
  /// Master runtime switch; defaults to on whenever the hooks are compiled
  /// in. Benchmarks turn it off — auditing is for correctness runs.
  bool enabled = kAuditCompiledIn;
  /// Abort the process on the first violation (the behavior tests want:
  /// fail at the faulty act, with the witness in the log, not thousands of
  /// events later). Mutation tests collect instead.
  bool fail_fast = true;
};

/// One detected invariant violation: which invariant, a human-readable
/// account, and (when the invariant is a graph property) the witness cycle
/// as a sequence of node keys.
struct AuditViolation {
  /// Stable invariant identifier, e.g. "conservative-discipline",
  /// "ser-graph-acyclic", "scheme-structure", "lock-table".
  std::string invariant;
  std::string message;
  std::vector<int64_t> witness;
  /// Transaction on whose behalf the violating event executed — under
  /// threaded execution, the transaction the reporting thread was serving.
  /// Makes concurrent stress failures attributable without decoding the
  /// witness; -1 when no single transaction owns the event (end-of-run
  /// oracle findings).
  int64_t offending_txn = -1;

  std::string ToString() const;
};

/// Collects violations, logs each through common/logging, and — in
/// fail-fast mode — aborts the process so tests fail at the faulty event.
/// Report and the read accessors are serialized by an internal mutex: one
/// auditor is shared by the GTM strand and every site strand (lock-table
/// audits) under threaded execution.
class Auditor {
 public:
  Auditor() = default;
  explicit Auditor(AuditConfig config) : config_(config) {}

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Records `violation`. Logs at Error level; aborts when fail_fast.
  void Report(AuditViolation violation);

  bool clean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_reported_ == 0;
  }
  int64_t total_reported() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_reported_;
  }
  /// Only safe once no thread is reporting (post-run) — the reference
  /// outlives the lock.
  const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  /// Violations recorded for `invariant`.
  int64_t CountFor(const std::string& invariant) const;

  void Clear();

  const AuditConfig& config() const { return config_; }
  AuditConfig& mutable_config() { return config_; }

  /// Process-wide fail-fast instance, used by components whose owner did
  /// not supply an auditor of its own.
  static Auditor* Default();

  /// Violations reported beyond this count are counted but not stored.
  static constexpr size_t kMaxStoredViolations = 64;

 private:
  mutable std::mutex mu_;
  AuditConfig config_;
  std::vector<AuditViolation> violations_;
  int64_t total_reported_ = 0;
};

}  // namespace mdbs::audit

#endif  // MDBS_AUDIT_AUDIT_H_
