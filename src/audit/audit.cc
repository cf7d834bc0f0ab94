#include "audit/audit.h"

#include <sstream>

#include "common/logging.h"

namespace mdbs::audit {

std::string AuditViolation::ToString() const {
  std::ostringstream os;
  os << "[" << invariant << "]";
  if (offending_txn >= 0) os << " txn=" << offending_txn;
  os << " " << message;
  if (!witness.empty()) {
    os << " witness:";
    for (int64_t node : witness) os << " " << node;
  }
  return os.str();
}

void Auditor::Report(AuditViolation violation) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_reported_;
  MDBS_LOG(Error) << "audit violation: " << violation.ToString();
  MDBS_CHECK(!config_.fail_fast)
      << "audit fail-fast: " << violation.ToString();
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(std::move(violation));
  }
}

int64_t Auditor::CountFor(const std::string& invariant) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t count = 0;
  for (const AuditViolation& v : violations_) {
    if (v.invariant == invariant) ++count;
  }
  return count;
}

void Auditor::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  violations_.clear();
  total_reported_ = 0;
}

Auditor* Auditor::Default() {
  static Auditor* instance = new Auditor();
  return instance;
}

}  // namespace mdbs::audit
