#ifndef MDBS_COMMON_TYPES_H_
#define MDBS_COMMON_TYPES_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/ids.h"

namespace mdbs {

/// Kind of a data operation executed at a local DBMS.
enum class OpType { kRead, kWrite };

inline const char* OpTypeName(OpType type) {
  return type == OpType::kRead ? "r" : "w";
}

/// A single read or write on a data item. Values are opaque 64-bit payloads;
/// reads carry the value observed, writes the value installed.
struct DataOp {
  OpType type = OpType::kRead;
  DataItemId item;
  int64_t value = 0;  // Ignored for reads at submission time.

  static DataOp Read(DataItemId item) {
    return DataOp{OpType::kRead, item, 0};
  }
  static DataOp Write(DataItemId item, int64_t value) {
    return DataOp{OpType::kWrite, item, value};
  }

  bool ConflictsWith(const DataOp& other) const {
    return item == other.item &&
           (type == OpType::kWrite || other.type == OpType::kWrite);
  }

  std::string ToString() const {
    std::string s = OpTypeName(type);
    // Appends, not `"[" + ...`: see mdbs::ToString(Id).
    s.append("[").append(mdbs::ToString(item));
    if (type == OpType::kWrite) s.append("=").append(std::to_string(value));
    s.append("]");
    return s;
  }
};

inline std::ostream& operator<<(std::ostream& os, const DataOp& op) {
  return os << op.ToString();
}

/// How a transaction finished at a local DBMS.
enum class TxnOutcome { kActive, kCommitted, kAborted };

inline const char* TxnOutcomeName(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kActive:
      return "active";
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kAborted:
      return "aborted";
  }
  return "?";
}

}  // namespace mdbs

#endif  // MDBS_COMMON_TYPES_H_
