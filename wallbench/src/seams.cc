#include "seams.h"

namespace wallbench {

thread_local ScopedSpan* ScopedSpan::top_ = nullptr;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSchemeCond:
      return "gtm.scheme.cond";
    case SpanName::kSchemeAct:
      return "gtm.scheme.act";
    case SpanName::kSchemeCleanup:
      return "gtm.scheme.cleanup";
    case SpanName::kSchemeState:
      return "gtm.scheme.state";
    case SpanName::kSiteWalAppend:
      return "storage.wal.append";
    case SpanName::kSiteWalSync:
      return "storage.wal.sync";
    case SpanName::kGtmWalAppend:
      return "storage.gtm_wal.append";
    case SpanName::kGtmWalSync:
      return "storage.gtm_wal.sync";
    case SpanName::kSubmit:
      return "mdbs.submit";
    case SpanName::kCallback:
      return "bench.callback";
  }
  return "?";
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name,txn,start_ns,end_ns,self_ns\n");
  for (int64_t i = 0; i < kept(); ++i) {
    const Span& span = spans_[static_cast<size_t>(i)];
    std::fprintf(file, "%s,%lld,%lld,%lld,%lld\n", SpanNameString(span.name),
                 static_cast<long long>(span.txn),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.self_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace wallbench
