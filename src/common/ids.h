#ifndef MDBS_COMMON_IDS_H_
#define MDBS_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace mdbs {

/// Strongly-typed integral identifier. `Tag` only distinguishes types;
/// it is never instantiated.
template <typename Tag>
class Id {
 public:
  constexpr Id() : value_(kInvalidValue) {}
  constexpr explicit Id(int64_t value) : value_(value) {}

  constexpr bool valid() const { return value_ != kInvalidValue; }
  constexpr int64_t value() const { return value_; }

  friend constexpr bool operator==(Id a, Id b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(Id a, Id b) { return a.value_ < b.value_; }

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    if (!id.valid()) return os << Tag::Prefix() << "<invalid>";
    return os << Tag::Prefix() << id.value_;
  }

 private:
  static constexpr int64_t kInvalidValue = -1;
  int64_t value_;
};

struct SiteTag {
  static constexpr const char* Prefix() { return "s"; }
};
struct TxnTag {
  static constexpr const char* Prefix() { return "T"; }
};
struct GlobalTxnTag {
  static constexpr const char* Prefix() { return "G"; }
};
struct DataItemTag {
  static constexpr const char* Prefix() { return "x"; }
};

/// Identifies a local DBMS site (the paper's s_k).
using SiteId = Id<SiteTag>;
/// Identifies a transaction as seen by one local DBMS (a local transaction or
/// one global subtransaction).
using TxnId = Id<TxnTag>;
/// Identifies a global transaction across the whole MDBS (the paper's G_i).
using GlobalTxnId = Id<GlobalTxnTag>;
/// Identifies a data item within a site.
using DataItemId = Id<DataItemTag>;

// Built with append: GCC 12 at -O3 reports a false -Wrestrict on
// `operator+` string concatenation here.
template <typename Tag>
std::string ToString(Id<Tag> id) {
  std::string out(Tag::Prefix());
  out.append(id.valid() ? std::to_string(id.value()) : "<invalid>");
  return out;
}

}  // namespace mdbs

namespace std {
template <typename Tag>
struct hash<mdbs::Id<Tag>> {
  size_t operator()(mdbs::Id<Tag> id) const noexcept {
    return std::hash<int64_t>()(id.value());
  }
};
}  // namespace std

#endif  // MDBS_COMMON_IDS_H_
