// Differential soundness battery for the static robustness analyzer: over
// 120 seeded random template mixes and federations, every robust verdict is
// put on trial — the mix actually runs with the certified fast path (no
// ser-op delays, no tickets) in BOTH execution engines and must pass the
// full end-of-run serializability battery (local CSR, ser-key property,
// global ser(S)/MVSG, strictness, runtime auditor). Every non-robust
// verdict must instead carry a witness cycle that checks out against the
// interference graph. An unsound analyzer fails here loudly.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/capability.h"
#include "analysis/robustness.h"
#include "analysis/template.h"
#include "common/rng.h"
#include "gtm/robust_fast_path.h"
#include "gtm/scheme.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

const ProtocolKind kAllProtocols[] = {
    ProtocolKind::kTwoPhaseLocking,
    ProtocolKind::kTimestampOrdering,
    ProtocolKind::kSerializationGraph,
    ProtocolKind::kOptimistic,
    ProtocolKind::kMultiversionTO,
    ProtocolKind::kTwoPhaseLockingWoundWait,
    ProtocolKind::kTwoPhaseLockingWaitDie,
};

const SchemeKind kConservativeSchemes[] = {
    SchemeKind::kScheme0,
    SchemeKind::kScheme1,
    SchemeKind::kScheme2,
    SchemeKind::kScheme3,
};

struct FuzzCase {
  std::vector<ProtocolKind> protocols;
  analysis::TemplateMix mix;
  SchemeKind scheme = SchemeKind::kScheme3;
};

/// Draws a random federation plus template mix. Half the draws confine all
/// writes to one designated site (reads roam) — the shape the certificate
/// exists for — so the battery exercises both verdicts in quantity instead
/// of drowning in easy non-robust mixes.
FuzzCase MakeCase(uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  FuzzCase result;
  int site_count = static_cast<int>(rng.NextInRange(2, 4));
  for (int i = 0; i < site_count; ++i) {
    result.protocols.push_back(kAllProtocols[rng.NextBelow(7)]);
  }
  result.scheme = kConservativeSchemes[rng.NextBelow(4)];

  result.mix.keys_per_class = rng.NextInRange(4, 16);
  result.mix.local_txns = rng.NextBernoulli(0.15);
  bool siloed = rng.NextBernoulli(0.5);
  int write_site = static_cast<int>(rng.NextBelow(
      static_cast<uint64_t>(site_count)));
  int template_count = static_cast<int>(rng.NextInRange(2, 4));
  int64_t class_pool = rng.NextInRange(2, 6);
  for (int t = 0; t < template_count; ++t) {
    analysis::TxnTemplate tmpl;
    tmpl.name = "t";
    tmpl.name.append(std::to_string(t));
    tmpl.weight = 1.0 + static_cast<double>(rng.NextBelow(3));
    int op_count = static_cast<int>(rng.NextInRange(1, 4));
    for (int o = 0; o < op_count; ++o) {
      analysis::TemplateOp op;
      bool write = rng.NextBernoulli(0.4);
      int site = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(site_count)));
      if (siloed && write) site = write_site;
      op.site = SiteId(site);
      op.key_class = static_cast<int64_t>(rng.NextBelow(
          static_cast<uint64_t>(class_pool)));
      op.type = write ? OpType::kWrite : OpType::kRead;
      tmpl.ops.push_back(op);
    }
    result.mix.templates.push_back(tmpl);
  }
  return result;
}

/// Runs `fuzz_case` delay-free (certified fast path) on one engine and
/// asserts the full correctness battery. The analyzer promised this cannot
/// go wrong; hold it to that.
void RunCertified(const FuzzCase& fuzz_case, bool threaded, uint64_t seed) {
  MdbsConfig config = MdbsConfig::Mixed(fuzz_case.protocols, fuzz_case.scheme);
  config.seed = seed;
  config.threaded = threaded;
  config.gtm.attempt_timeout = threaded ? 2'000'000 : 200'000;
  config.gtm.certified_fast_path = true;
  config.gtm.scheme_factory = [scheme = fuzz_case.scheme]() {
    return gtm::MakeRobustFastPath(scheme);
  };
  Mdbs system(config);

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = fuzz_case.mix.local_txns ? 1 : 0;
  driver.target_global_commits = threaded ? 20 : 40;
  driver.templates = fuzz_case.mix;
  DriverReport report = RunDriver(&system, driver, seed);

  SCOPED_TRACE(std::string(threaded ? "threaded" : "sim") + " engine");
  EXPECT_GT(report.global_committed, 0);
  // The fast path really ran: every attempt took it, and not one ser
  // operation was delayed in GTM2.
  EXPECT_EQ(report.gtm1.fast_path_attempts, report.gtm1.attempts);
  EXPECT_EQ(report.gtm2.ser_wait_additions, 0);
  // The full battery the verdict certified.
  EXPECT_TRUE(system.CheckLocallySerializable().ok());
  EXPECT_TRUE(system.CheckSerializationKeyProperty().ok());
  Status strict = system.CheckStrictness();
  EXPECT_TRUE(strict.ok()) << strict;
  EXPECT_TRUE(system.CheckGloballySerializable().ok())
      << system.GlobalSerializabilityResult().ToString();
  if (system.audit_enabled()) {
    EXPECT_TRUE(system.auditor().clean());
  }
}

TEST(AnalysisFuzzTest, RobustVerdictsSurviveDelayFreeRunsWitnessesCheckOut) {
  int robust_cases = 0;
  int witness_cases = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    FuzzCase fuzz_case = MakeCase(seed);
    std::vector<site::SiteConfig> sites;
    for (size_t i = 0; i < fuzz_case.protocols.size(); ++i) {
      site::SiteConfig site;
      site.id = SiteId(static_cast<int64_t>(i));
      site.protocol = fuzz_case.protocols[i];
      sites.push_back(site);
    }
    analysis::AnalysisReport report = analysis::Analyze(
        fuzz_case.mix, analysis::BuildCapabilityMatrix(sites));

    SCOPED_TRACE("seed=" + std::to_string(seed) + " mix:\n" +
                 fuzz_case.mix.ToString());
    if (report.fast_path_robust) {
      ++robust_cases;
      EXPECT_FALSE(report.certificate.empty());
      EXPECT_FALSE(report.witness.has_value());
      RunCertified(fuzz_case, /*threaded=*/false, seed);
      // The threaded engine is real time on one core; spot-check every
      // third robust mix there rather than all of them.
      if (robust_cases % 3 == 1) {
        RunCertified(fuzz_case, /*threaded=*/true, seed);
      }
    } else {
      ++witness_cases;
      // Every non-robust verdict must be explainable: a concrete cycle,
      // checkable against the interference graph, spanning >= 2 sites.
      ASSERT_TRUE(report.witness.has_value());
      EXPECT_TRUE(analysis::CheckWitness(*report.witness, report.graph));
      EXPECT_GE(report.witness->Sites().size(), 2u);
    }
    // Per-scheme verdicts carry the same witness obligation.
    for (const analysis::SchemeVerdict& verdict : report.per_scheme) {
      if (!verdict.robust) {
        ASSERT_TRUE(verdict.witness.has_value())
            << gtm::SchemeKindName(verdict.scheme);
        EXPECT_TRUE(analysis::CheckWitness(*verdict.witness, report.graph));
      }
    }
  }
  // The battery only means something if both verdicts showed up in force.
  EXPECT_GE(robust_cases, 20);
  EXPECT_GE(witness_cases, 20);
}

}  // namespace
}  // namespace mdbs
