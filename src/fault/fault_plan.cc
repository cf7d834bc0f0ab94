#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mdbs::fault {

namespace {

/// Splits on any of ';' and '\n', trimming surrounding whitespace and
/// dropping empty tokens and '#'-comments (file specs may be commented).
std::vector<std::string> SplitDirectives(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  auto flush = [&]() {
    size_t begin = current.find_first_not_of(" \t\r");
    size_t end = current.find_last_not_of(" \t\r");
    if (begin != std::string::npos && current[begin] != '#') {
      out.push_back(current.substr(begin, end - begin + 1));
    }
    current.clear();
  };
  for (char c : text) {
    if (c == ';' || c == '\n') {
      flush();
    } else {
      current.push_back(c);
    }
  }
  flush();
  return out;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool ParseTicks(const std::string& s, sim::Time* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end == s.c_str() + s.size() && *out >= 0;
}

std::vector<std::string> SplitColons(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = s.find(':', start);
    parts.push_back(s.substr(start, colon == std::string::npos
                                        ? colon
                                        : colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  return parts;
}

Status ParseOneDirective(const std::string& token, FaultPlan* plan) {
  auto malformed = [&token]() {
    return Status::InvalidArgument("malformed fault directive '" + token +
                                   "'");
  };
  if (token.rfind("crash@", 0) == 0) {
    // crash@T:sN:D
    std::vector<std::string> parts = SplitColons(token.substr(6));
    sim::Time at = 0;
    sim::Time duration = 0;
    if (parts.size() != 3 || !ParseTicks(parts[0], &at) ||
        parts[1].size() < 2 || parts[1][0] != 's' ||
        !ParseTicks(parts[2], &duration) || duration <= 0) {
      return malformed();
    }
    sim::Time site = 0;
    if (!ParseTicks(parts[1].substr(1), &site)) return malformed();
    plan->crashes.push_back(CrashEvent{SiteId(site), at, duration});
    return Status::OK();
  }
  if (token.rfind("gtm_crash@", 0) == 0) {
    // gtm_crash@T:D
    std::vector<std::string> parts = SplitColons(token.substr(10));
    GtmCrashEvent event;
    if (parts.size() != 2 || !ParseTicks(parts[0], &event.at) ||
        !ParseTicks(parts[1], &event.duration) || event.duration <= 0) {
      return malformed();
    }
    plan->gtm_crashes.push_back(event);
    return Status::OK();
  }
  if (token.rfind("gtm_failover@", 0) == 0) {
    // gtm_failover@T:D
    std::vector<std::string> parts = SplitColons(token.substr(13));
    GtmFailoverEvent event;
    if (parts.size() != 2 || !ParseTicks(parts[0], &event.at) ||
        !ParseTicks(parts[1], &event.duration) || event.duration <= 0) {
      return malformed();
    }
    plan->gtm_failovers.push_back(event);
    return Status::OK();
  }
  if (token.rfind("periodic@", 0) == 0) {
    // periodic@I:D
    std::vector<std::string> parts = SplitColons(token.substr(9));
    PeriodicCrashes periodic;
    if (plan->periodic.has_value() || parts.size() != 2 ||
        !ParseTicks(parts[0], &periodic.interval) || periodic.interval <= 0 ||
        !ParseTicks(parts[1], &periodic.duration) || periodic.duration <= 0) {
      return malformed();
    }
    plan->periodic = periodic;
    return Status::OK();
  }
  if (token.rfind("sweep@", 0) == 0) {
    // sweep@T:G:D
    std::vector<std::string> parts = SplitColons(token.substr(6));
    SweepEvent sweep;
    if (parts.size() != 3 || !ParseTicks(parts[0], &sweep.first_at) ||
        !ParseTicks(parts[1], &sweep.gap) ||
        !ParseTicks(parts[2], &sweep.duration) || sweep.duration <= 0) {
      return malformed();
    }
    plan->sweeps.push_back(sweep);
    return Status::OK();
  }
  size_t eq = token.find('=');
  if (eq == std::string::npos) return malformed();
  std::string key = token.substr(0, eq);
  std::string value = token.substr(eq + 1);
  double p = 0;
  if (key == "req_loss" || key == "resp_loss" || key == "dup") {
    if (!ParseDouble(value, &p) || p < 0 || p > 1) return malformed();
    if (key == "req_loss") plan->request_loss = p;
    if (key == "resp_loss") plan->response_loss = p;
    if (key == "dup") plan->duplicate = p;
    return Status::OK();
  }
  if (key == "spike") {
    // spike=P:D
    size_t colon = value.find(':');
    if (colon == std::string::npos) return malformed();
    sim::Time ticks = 0;
    if (!ParseDouble(value.substr(0, colon), &p) || p < 0 || p > 1 ||
        !ParseTicks(value.substr(colon + 1), &ticks) || ticks <= 0) {
      return malformed();
    }
    plan->delay_spike = p;
    plan->spike_ticks = ticks;
    return Status::OK();
  }
  if (key == "seed") {
    char* end = nullptr;
    plan->seed = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size()) {
      return malformed();
    }
    return Status::OK();
  }
  return malformed();
}

}  // namespace

bool FaultPlan::Empty() const {
  return crashes.empty() && sweeps.empty() && gtm_crashes.empty() &&
         gtm_failovers.empty() && !periodic.has_value() &&
         !HasMessageFaults();
}

bool FaultPlan::HasMessageFaults() const {
  return request_loss > 0 || response_loss > 0 || duplicate > 0 ||
         delay_spike > 0;
}

std::string FaultPlan::ToSpec() const {
  std::ostringstream os;
  const char* sep = "";
  for (const CrashEvent& c : crashes) {
    os << sep << "crash@" << c.at << ":s" << c.site.value() << ":"
       << c.duration;
    sep = ";";
  }
  for (const SweepEvent& s : sweeps) {
    os << sep << "sweep@" << s.first_at << ":" << s.gap << ":" << s.duration;
    sep = ";";
  }
  for (const GtmCrashEvent& g : gtm_crashes) {
    os << sep << "gtm_crash@" << g.at << ":" << g.duration;
    sep = ";";
  }
  for (const GtmFailoverEvent& f : gtm_failovers) {
    os << sep << "gtm_failover@" << f.at << ":" << f.duration;
    sep = ";";
  }
  if (periodic.has_value()) {
    os << sep << "periodic@" << periodic->interval << ":"
       << periodic->duration;
    sep = ";";
  }
  if (request_loss > 0) {
    os << sep << "req_loss=" << request_loss;
    sep = ";";
  }
  if (response_loss > 0) {
    os << sep << "resp_loss=" << response_loss;
    sep = ";";
  }
  if (duplicate > 0) {
    os << sep << "dup=" << duplicate;
    sep = ";";
  }
  if (delay_spike > 0) {
    os << sep << "spike=" << delay_spike << ":" << spike_ticks;
    sep = ";";
  }
  if (seed != 0) os << sep << "seed=" << seed;
  return os.str();
}

FaultPlan FaultPlan::CrashSweep(int num_sites, sim::Time first_at,
                                sim::Time gap, sim::Time duration) {
  FaultPlan plan;
  for (int i = 0; i < num_sites; ++i) {
    plan.crashes.push_back(
        CrashEvent{SiteId(i), first_at + i * gap, duration});
  }
  return plan;
}

StatusOr<FaultPlan> ParseFaultPlan(const std::string& text) {
  // A spec that names a readable file is read from the file; directives
  // never contain '/' or look like paths, so the probe is unambiguous
  // enough for a CLI.
  std::string spec = text;
  {
    std::ifstream file(text);
    if (file) {
      std::ostringstream content;
      content << file.rdbuf();
      spec = content.str();
    }
  }
  FaultPlan plan;
  for (const std::string& token : SplitDirectives(spec)) {
    MDBS_RETURN_IF_ERROR(ParseOneDirective(token, &plan));
  }
  return plan;
}

FaultPlan ResolveSweeps(const FaultPlan& plan, int num_sites) {
  FaultPlan resolved = plan;
  resolved.sweeps.clear();
  for (const SweepEvent& sweep : plan.sweeps) {
    for (int i = 0; i < num_sites; ++i) {
      resolved.crashes.push_back(CrashEvent{
          SiteId(i), sweep.first_at + i * sweep.gap, sweep.duration});
    }
  }
  std::sort(resolved.crashes.begin(), resolved.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.site.value() < b.site.value();
            });
  return resolved;
}

Status ValidatePlanForConfig(const FaultPlan& plan, bool gtm_durable,
                             bool gtm_standby) {
  if (!plan.gtm_crashes.empty() && !gtm_durable) {
    return Status::InvalidArgument(
        "fault plan schedules a gtm_crash but the GTM is not durable: a "
        "non-durable GTM cannot replay its state, so recovery would drop "
        "every in-flight global transaction; enable GTM durability "
        "(--gtm_durable) or remove the gtm_crash directive");
  }
  for (const GtmCrashEvent& event : plan.gtm_crashes) {
    if (event.duration <= 0) {
      return Status::InvalidArgument("gtm_crash outage must be positive");
    }
  }
  if (!plan.gtm_failovers.empty()) {
    if (!gtm_durable) {
      return Status::InvalidArgument(
          "fault plan schedules a gtm_failover but the GTM is not durable: "
          "warm-standby promotion replays the primary's WAL tail, so there "
          "must be a WAL; enable GTM durability (--gtm_durable)");
    }
    if (!gtm_standby) {
      return Status::InvalidArgument(
          "fault plan schedules a gtm_failover but no warm standby is "
          "configured; enable it (--gtm_standby) or remove the directive");
    }
    if (plan.gtm_failovers.size() > 1) {
      return Status::InvalidArgument(
          "fault plan schedules more than one gtm_failover, but there is "
          "exactly one standby to promote");
    }
    if (!plan.gtm_crashes.empty()) {
      return Status::InvalidArgument(
          "fault plan mixes gtm_failover with gtm_crash: after a failover "
          "the fenced old primary must stay dead, so a scheduled "
          "crash-and-recover of 'the GTM' is ambiguous at best and split "
          "brain at worst; use one or the other");
    }
  }
  for (const GtmFailoverEvent& event : plan.gtm_failovers) {
    if (event.duration <= 0) {
      return Status::InvalidArgument(
          "gtm_failover detection delay must be positive");
    }
  }
  return Status::OK();
}

}  // namespace mdbs::fault
