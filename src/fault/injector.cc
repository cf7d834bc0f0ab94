#include "fault/injector.h"

#include <sstream>

namespace mdbs::fault {

std::string FaultStats::ToString() const {
  std::ostringstream os;
  os << "req_lost=" << requests_lost << " resp_lost=" << responses_lost
     << " dups=" << duplicates_injected
     << " dups_suppressed=" << duplicates_suppressed
     << " spikes=" << delay_spikes << " plan_crashes=" << plan_crashes;
  return os.str();
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t fallback_seed)
    : plan_(plan),
      rng_((plan.seed != 0 ? plan.seed : fallback_seed) ^
           0xd1b54a32d192ed03ULL) {}

MessageFate FaultInjector::DrawFate(double loss_probability, bool request,
                                    bool allow_duplicate) {
  MessageFate fate;
  if (loss_probability <= 0 && plan_.duplicate <= 0 &&
      plan_.delay_spike <= 0) {
    return fate;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Draw every coin unconditionally so the stream consumed per message is
  // fixed — replays stay aligned even if one probability is zero.
  bool lose = rng_.NextBernoulli(loss_probability);
  bool dup = rng_.NextBernoulli(plan_.duplicate);
  bool spike = rng_.NextBernoulli(plan_.delay_spike);
  sim::Time spike_ticks =
      plan_.spike_ticks > 0
          ? static_cast<sim::Time>(
                1 + rng_.NextBelow(static_cast<uint64_t>(plan_.spike_ticks)))
          : 0;
  if (lose) {
    fate.lost = true;
    ++(request ? stats_.requests_lost : stats_.responses_lost);
    return fate;
  }
  if (dup && allow_duplicate) {
    fate.duplicated = true;
    fate.duplicate_lag = 1 + spike_ticks;
    ++stats_.duplicates_injected;
  }
  if (spike) {
    fate.extra_delay = spike_ticks;
    ++stats_.delay_spikes;
  }
  return fate;
}

MessageFate FaultInjector::ProbeFate(bool request) {
  return DrawFate(request ? plan_.request_loss : plan_.response_loss, request,
                  /*allow_duplicate=*/false);
}

void FaultInjector::CountSuppressedDuplicate() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.duplicates_suppressed;
}

void FaultInjector::CountPlanCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.plan_crashes;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mdbs::fault
