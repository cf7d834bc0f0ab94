// AnalyzeGtmLog: a whole record sequence through one GtmLogReplayer, for
// tests that analyze a log, or every prefix of one, in a single call.
#ifndef MDBS_TESTS_GTM_LOG_ANALYSIS_H_
#define MDBS_TESTS_GTM_LOG_ANALYSIS_H_

#include <vector>

#include "common/status.h"
#include "gtm/gtm_log.h"

namespace mdbs::gtm {

/// The analysis of `records`, or the first record's corruption status.
inline Status AnalyzeGtmLog(const std::vector<GtmLogRecord>& records,
                            GtmLogAnalysis* out) {
  GtmLogReplayer replayer;
  for (const GtmLogRecord& record : records) {
    MDBS_RETURN_IF_ERROR(replayer.Apply(record));
  }
  *out = replayer.analysis();
  return Status::OK();
}

}  // namespace mdbs::gtm

#endif  // MDBS_TESTS_GTM_LOG_ANALYSIS_H_
