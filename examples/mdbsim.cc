// mdbsim — command-line MDBS simulator. Assemble a federation from the
// command line, run a mixed workload, verify serializability, and print
// the full report. Useful for exploring the scheme/protocol/contention
// space without writing code.
//
// Usage:
//   mdbsim [--sites=2pl,to,sgt,occ,mvto,2plww,2plwd]
//          [--scheme=0|1|2|3|ticket|none]
//          [--global-clients=8] [--local-clients=1] [--commits=200]
//          [--items=100] [--dav=2-3] [--read-ratio=0.5] [--zipf=0.0]
//          [--seed=42] [--loss=0] [--timeout=200000]
//          [--fault_plan=SPEC|FILE] [--retry=MAX,BACKOFF]
//          [--dump-schedule=0]
//
// Example:
//   ./build/examples/mdbsim --sites=2pl,mvto,sgt --scheme=3
//       --global-clients=12 --commits=500 --items=20 --zipf=0.9

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/capability.h"
#include "analysis/robustness.h"
#include "analysis/template.h"
#include "gtm/robust_fast_path.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "obs/report.h"
#include "obs/trace_export.h"
#include "sched/stats.h"
#include "storage/framing.h"
#include "storage/log_device.h"

namespace {

using mdbs::gtm::SchemeKind;
using mdbs::lcc::ProtocolKind;

struct Options {
  static constexpr mdbs::sim::Time kDefaultTimeout = 200'000;

  std::vector<ProtocolKind> sites = {ProtocolKind::kTwoPhaseLocking,
                                     ProtocolKind::kTimestampOrdering,
                                     ProtocolKind::kSerializationGraph};
  SchemeKind scheme = SchemeKind::kScheme3;
  int global_clients = 8;
  int local_clients = 1;
  int64_t commits = 200;
  int64_t items = 100;
  int dav_min = 2;
  int dav_max = 3;
  double read_ratio = 0.5;
  double zipf = 0.0;
  uint64_t seed = 42;
  double loss = 0.0;
  mdbs::sim::Time timeout = kDefaultTimeout;
  int dump_schedule = 0;
  bool threaded = false;
  std::string fault_plan;
  int retry_max = 0;
  mdbs::sim::Time retry_backoff = 1000;
  std::string trace_out;
  std::string metrics_out;
  bool metrics = true;
  mdbs::sim::Time metrics_window = 5000;
  bool phase_breakdown = false;
  int64_t trace_buffer = 0;
  std::string templates_file;
  bool analyze = false;
  bool auto_downgrade = false;
  bool durable = false;
  int64_t checkpoint_interval = 256;
  mdbs::sim::Time recovery_cost = 0;
  std::string wal_dir;
  bool gtm_durable = false;
  int64_t gtm_checkpoint_interval = 256;
  mdbs::sim::Time gtm_recovery_cost = 0;
  std::string gtm_wal_dir;
  bool gtm_standby = false;
  mdbs::sim::Time standby_lag = 10;
  std::string wal_fsync;
};

bool ParseProtocol(const std::string& name, ProtocolKind* out) {
  if (name == "2pl") *out = ProtocolKind::kTwoPhaseLocking;
  else if (name == "2plww") *out = ProtocolKind::kTwoPhaseLockingWoundWait;
  else if (name == "2plwd") *out = ProtocolKind::kTwoPhaseLockingWaitDie;
  else if (name == "to") *out = ProtocolKind::kTimestampOrdering;
  else if (name == "sgt") *out = ProtocolKind::kSerializationGraph;
  else if (name == "occ") *out = ProtocolKind::kOptimistic;
  else if (name == "mvto") *out = ProtocolKind::kMultiversionTO;
  else return false;
  return true;
}

bool ParseScheme(const std::string& name, SchemeKind* out) {
  if (name == "0") *out = SchemeKind::kScheme0;
  else if (name == "1") *out = SchemeKind::kScheme1;
  else if (name == "2") *out = SchemeKind::kScheme2;
  else if (name == "3") *out = SchemeKind::kScheme3;
  else if (name == "ticket") *out = SchemeKind::kTicketOptimistic;
  else if (name == "none") *out = SchemeKind::kNone;
  else return false;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--sites=", 0) == 0) {
      options->sites.clear();
      std::string list = value_of("--sites=");
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string token = list.substr(
            start, comma == std::string::npos ? comma : comma - start);
        ProtocolKind kind;
        if (!ParseProtocol(token, &kind)) {
          std::fprintf(stderr, "unknown protocol '%s'\n", token.c_str());
          return false;
        }
        options->sites.push_back(kind);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg.rfind("--scheme=", 0) == 0) {
      if (!ParseScheme(value_of("--scheme="), &options->scheme)) {
        std::fprintf(stderr, "unknown scheme\n");
        return false;
      }
    } else if (arg.rfind("--global-clients=", 0) == 0) {
      options->global_clients =
          std::atoi(value_of("--global-clients=").c_str());
    } else if (arg.rfind("--local-clients=", 0) == 0) {
      options->local_clients = std::atoi(value_of("--local-clients=").c_str());
    } else if (arg.rfind("--commits=", 0) == 0) {
      options->commits = std::atoll(value_of("--commits=").c_str());
    } else if (arg.rfind("--items=", 0) == 0) {
      options->items = std::atoll(value_of("--items=").c_str());
    } else if (arg.rfind("--dav=", 0) == 0) {
      std::string range = value_of("--dav=");
      size_t dash = range.find('-');
      if (dash == std::string::npos) {
        options->dav_min = options->dav_max = std::atoi(range.c_str());
      } else {
        options->dav_min = std::atoi(range.substr(0, dash).c_str());
        options->dav_max = std::atoi(range.substr(dash + 1).c_str());
      }
    } else if (arg.rfind("--read-ratio=", 0) == 0) {
      options->read_ratio = std::atof(value_of("--read-ratio=").c_str());
    } else if (arg.rfind("--zipf=", 0) == 0) {
      options->zipf = std::atof(value_of("--zipf=").c_str());
    } else if (arg.rfind("--seed=", 0) == 0) {
      options->seed = std::strtoull(value_of("--seed=").c_str(), nullptr, 10);
    } else if (arg.rfind("--loss=", 0) == 0) {
      options->loss = std::atof(value_of("--loss=").c_str());
    } else if (arg.rfind("--timeout=", 0) == 0) {
      options->timeout = std::atoll(value_of("--timeout=").c_str());
    } else if (arg.rfind("--dump-schedule=", 0) == 0) {
      options->dump_schedule = std::atoi(value_of("--dump-schedule=").c_str());
    } else if (arg.rfind("--threaded=", 0) == 0) {
      options->threaded = std::atoi(value_of("--threaded=").c_str()) != 0;
    } else if (arg.rfind("--fault_plan=", 0) == 0) {
      options->fault_plan = value_of("--fault_plan=");
    } else if (arg.rfind("--retry=", 0) == 0) {
      // --retry=MAX[,BASE_BACKOFF]
      std::string spec = value_of("--retry=");
      size_t comma = spec.find(',');
      options->retry_max = std::atoi(spec.substr(0, comma).c_str());
      if (comma != std::string::npos) {
        options->retry_backoff = std::atoll(spec.substr(comma + 1).c_str());
      }
      if (options->retry_max < 0 || options->retry_backoff <= 0) {
        std::fprintf(stderr, "bad --retry spec '%s'\n", spec.c_str());
        return false;
      }
    } else if (arg.rfind("--trace_out=", 0) == 0) {
      options->trace_out = value_of("--trace_out=");
    } else if (arg.rfind("--metrics_out=", 0) == 0) {
      options->metrics_out = value_of("--metrics_out=");
    } else if (arg.rfind("--metrics=", 0) == 0) {
      options->metrics = std::atoi(value_of("--metrics=").c_str()) != 0;
    } else if (arg.rfind("--metrics_window=", 0) == 0) {
      options->metrics_window =
          std::atoll(value_of("--metrics_window=").c_str());
      if (options->metrics_window <= 0) {
        std::fprintf(stderr, "--metrics_window must be positive\n");
        return false;
      }
    } else if (arg == "--phase_breakdown") {
      options->phase_breakdown = true;
    } else if (arg.rfind("--trace_buffer=", 0) == 0) {
      options->trace_buffer = std::atoll(value_of("--trace_buffer=").c_str());
      if (options->trace_buffer <= 0) {
        std::fprintf(stderr, "--trace_buffer must be positive\n");
        return false;
      }
    } else if (arg.rfind("--templates=", 0) == 0) {
      options->templates_file = value_of("--templates=");
    } else if (arg == "--analyze") {
      options->analyze = true;
    } else if (arg == "--auto_downgrade") {
      options->auto_downgrade = true;
    } else if (arg == "--durable") {
      options->durable = true;
    } else if (arg.rfind("--checkpoint_interval=", 0) == 0) {
      options->checkpoint_interval =
          std::atoll(value_of("--checkpoint_interval=").c_str());
      options->durable = true;
    } else if (arg.rfind("--recovery_cost=", 0) == 0) {
      options->recovery_cost =
          std::atoll(value_of("--recovery_cost=").c_str());
      options->durable = true;
    } else if (arg.rfind("--wal_dir=", 0) == 0) {
      options->wal_dir = value_of("--wal_dir=");
      options->durable = true;
    } else if (arg == "--gtm_durable") {
      options->gtm_durable = true;
    } else if (arg.rfind("--gtm_checkpoint_interval=", 0) == 0) {
      options->gtm_checkpoint_interval =
          std::atoll(value_of("--gtm_checkpoint_interval=").c_str());
      options->gtm_durable = true;
    } else if (arg.rfind("--gtm_recovery_cost=", 0) == 0) {
      options->gtm_recovery_cost =
          std::atoll(value_of("--gtm_recovery_cost=").c_str());
      options->gtm_durable = true;
    } else if (arg.rfind("--gtm_wal_dir=", 0) == 0) {
      options->gtm_wal_dir = value_of("--gtm_wal_dir=");
      options->gtm_durable = true;
    } else if (arg == "--gtm_standby") {
      options->gtm_standby = true;
      options->gtm_durable = true;
    } else if (arg.rfind("--standby_lag=", 0) == 0) {
      options->standby_lag = std::atoll(value_of("--standby_lag=").c_str());
      options->gtm_standby = true;
      options->gtm_durable = true;
      if (options->standby_lag < 0) {
        std::fprintf(stderr, "--standby_lag must be >= 0\n");
        return false;
      }
    } else if (arg.rfind("--wal_fsync=", 0) == 0) {
      options->wal_fsync = value_of("--wal_fsync=");
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "mdbsim — multidatabase concurrency control simulator\n"
      "  --sites=2pl,to,sgt,occ,mvto,2plww,2plwd\n"
      "                                site protocols (comma list)\n"
      "  --scheme=0|1|2|3|ticket|none  GTM2 scheme\n"
      "  --global-clients=N            closed-loop global clients\n"
      "  --local-clients=N             local clients per site\n"
      "  --commits=N                   stop after N finished global txns\n"
      "  --items=N                     items per site\n"
      "  --dav=LO-HI                   sites per global txn\n"
      "  --read-ratio=R --zipf=THETA   access mix and skew\n"
      "  --seed=S                      RNG seed (runs are deterministic)\n"
      "  --loss=P                      drop op responses with prob P (the\n"
      "                                plan's resp_loss, if it sets none)\n"
      "  --fault_plan=SPEC|FILE        deterministic fault plan, e.g.\n"
      "                                'sweep@2000:3000:1500;req_loss=0.02;\n"
      "                                dup=0.01;spike=0.05:200', or\n"
      "                                'periodic@15000:2000' for a site\n"
      "                                crash every 15000 ticks (see\n"
      "                                src/fault/fault_plan.h)\n"
      "  --retry=MAX[,BACKOFF]         client-level resubmissions of failed\n"
      "                                retry-safe global txns\n"
      "  --timeout=T                   per-attempt timeout (ticks)\n"
      "  --dump-schedule=N             print the first N recorded ops of\n"
      "                                each site\n"
      "  --threaded=0|1                engine: simulator (0) or real\n"
      "                                threads, ticks = microseconds (1)\n"
      "  --trace_out=PATH              write a Chrome/Perfetto trace JSON\n"
      "  --trace_buffer=N              per-thread trace buffer capacity\n"
      "                                (events beyond it are dropped and\n"
      "                                counted, never silently)\n"
      "  --metrics_out=PATH            write the structured JSON run report\n"
      "  --metrics=0|1                 always-on metrics engine (default 1;\n"
      "                                0 for overhead A/B runs, see\n"
      "                                EXPERIMENTS E14)\n"
      "  --metrics_window=T            timeline window width in ticks\n"
      "                                (default 5000)\n"
      "  --phase_breakdown             print the per-phase latency\n"
      "                                decomposition table after the run\n"
      "  --templates=FILE              drive global clients from declared\n"
      "                                transaction templates (src/analysis\n"
      "                                mix language)\n"
      "  --durable                     sites keep a per-site WAL + fuzzy\n"
      "                                checkpoints; crashes wipe volatile\n"
      "                                state and recovery replays the log\n"
      "  --checkpoint_interval=N       log records between fuzzy\n"
      "                                checkpoints (0 = never; implies\n"
      "                                --durable)\n"
      "  --recovery_cost=T             modeled replay ticks per scanned log\n"
      "                                record during recovery (implies\n"
      "                                --durable; see EXPERIMENTS E13)\n"
      "  --wal_dir=PATH                back each site's WAL with a file\n"
      "                                PATH/s<k>.wal that survives process\n"
      "                                restarts (implies --durable)\n"
      "  --gtm_durable                 the GTM write-ahead logs every state\n"
      "                                transition; gtm_crash@T:D fault-plan\n"
      "                                directives crash it at T and replay\n"
      "                                the log D ticks later (DESIGN §12)\n"
      "  --gtm_checkpoint_interval=N   GTM log records between checkpoints\n"
      "                                (0 = replay from the log head;\n"
      "                                implies --gtm_durable)\n"
      "  --gtm_recovery_cost=T         modeled replay ticks per scanned GTM\n"
      "                                log record (implies --gtm_durable;\n"
      "                                see EXPERIMENTS E15)\n"
      "  --gtm_wal_dir=PATH            back the GTM WAL with PATH/gtm.wal\n"
      "                                (implies --gtm_durable)\n"
      "  --gtm_standby                 warm-standby GTM pair: the primary\n"
      "                                ships every WAL frame to a passive\n"
      "                                twin; gtm_failover@T:D fault-plan\n"
      "                                directives crash the primary at T and\n"
      "                                promote the standby (fenced) D ticks\n"
      "                                later (implies --gtm_durable)\n"
      "  --standby_lag=T               one-way WAL-frame shipping delay to\n"
      "                                the standby (default 10; implies\n"
      "                                --gtm_standby)\n"
      "  --wal_fsync=POLICY            WAL flush/sync policy for sites and\n"
      "                                the GTM: every_commit (default),\n"
      "                                interval:N, or off; forced barriers\n"
      "                                are reported as wal.syncs. A file\n"
      "                                WAL is flushed to the OS cache, never\n"
      "                                fsync'd: it survives a process crash,\n"
      "                                not a power cut\n"
      "  --analyze                     run the static conflict-robustness\n"
      "                                analyzer on the mix and print the\n"
      "                                verdict (certificate or witness)\n"
      "  --auto_downgrade              when the analyzer certifies the mix,\n"
      "                                run the GTM's certified fast path:\n"
      "                                no ser delays, no tickets (the audit\n"
      "                                oracle stays on as cross-check)\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }

  mdbs::MdbsConfig config =
      mdbs::MdbsConfig::Mixed(options.sites, options.scheme);
  config.seed = options.seed;
  config.gtm.attempt_timeout = options.timeout;
  config.threaded = options.threaded;
  if (!options.fault_plan.empty()) {
    mdbs::StatusOr<mdbs::fault::FaultPlan> plan =
        mdbs::fault::ParseFaultPlan(options.fault_plan);
    if (!plan.ok()) {
      std::fprintf(stderr, "--fault_plan: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    config.fault_plan = *plan;
  }
  if (options.loss > 0 && config.fault_plan.response_loss <= 0) {
    config.fault_plan.response_loss = options.loss;
  }
  mdbs::storage::WalSyncConfig wal_sync;
  if (!options.wal_fsync.empty()) {
    mdbs::StatusOr<mdbs::storage::WalSyncConfig> parsed =
        mdbs::storage::ParseWalSyncSpec(options.wal_fsync);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--wal_fsync: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    wal_sync = *parsed;
  }
  if (options.durable) {
    for (size_t i = 0; i < config.sites.size(); ++i) {
      mdbs::site::SiteConfig& site = config.sites[i];
      site.durable = true;
      site.checkpoint_interval = options.checkpoint_interval;
      site.recovery_time_per_record = options.recovery_cost;
      site.wal_sync = wal_sync;
      if (!options.wal_dir.empty()) {
        site.wal_device = std::make_shared<mdbs::storage::FileLogDevice>(
            options.wal_dir + "/s" + std::to_string(i) + ".wal");
      }
    }
  }
  if (options.gtm_durable) {
    config.gtm.durable = true;
    config.gtm.checkpoint_interval = options.gtm_checkpoint_interval;
    config.gtm.recovery_time_per_record = options.gtm_recovery_cost;
    config.gtm.wal_sync = wal_sync;
    if (!options.gtm_wal_dir.empty()) {
      config.gtm.wal_device = std::make_shared<mdbs::storage::FileLogDevice>(
          options.gtm_wal_dir + "/gtm.wal");
    }
  }
  if (options.gtm_standby) {
    config.gtm_standby = true;
    config.standby_lag = options.standby_lag;
    if (!options.gtm_wal_dir.empty() &&
        config.gtm.wal_device->Size() != 0) {
      std::fprintf(stderr,
                   "--gtm_standby: %s/gtm.wal is non-empty; warm standby "
                   "needs a fresh GTM WAL (shipped frame sequence numbers "
                   "are log positions from zero)\n",
                   options.gtm_wal_dir.c_str());
      return 2;
    }
  }
  // A gtm_crash/gtm_failover the configuration can't honor is rejected here
  // (exit 2) rather than tripping the same check fatally inside the Mdbs
  // constructor.
  mdbs::Status plan_ok = mdbs::fault::ValidatePlanForConfig(
      config.fault_plan, config.gtm.durable, config.gtm_standby);
  if (!plan_ok.ok()) {
    std::fprintf(stderr, "--fault_plan: %s\n", plan_ok.ToString().c_str());
    return 2;
  }
  if ((config.fault_plan.request_loss > 0 ||
       config.fault_plan.response_loss > 0) &&
      options.timeout == Options::kDefaultTimeout) {
    std::fprintf(stderr,
                 "note: messages are lost and --timeout is the default %lld "
                 "ticks; each lost message holds its attempt for the full "
                 "timeout (try --timeout=10000)\n",
                 static_cast<long long>(Options::kDefaultTimeout));
  }
  config.trace.enabled = !options.trace_out.empty();
  if (options.trace_buffer > 0) {
    config.trace.buffer_capacity = static_cast<size_t>(options.trace_buffer);
  }
  config.metrics.enabled = options.metrics;
  config.metrics.timeline_window = options.metrics_window;

  // Template mix + static robustness analysis (src/analysis). The analyzer
  // must run before the system is assembled: a certified downgrade changes
  // the GTM configuration.
  std::optional<mdbs::analysis::TemplateMix> mix;
  std::optional<mdbs::analysis::AnalysisReport> analysis;
  bool downgraded = false;
  if ((options.analyze || options.auto_downgrade) &&
      options.templates_file.empty()) {
    std::fprintf(stderr,
                 "--analyze/--auto_downgrade require --templates=FILE\n");
    return 2;
  }
  if (!options.templates_file.empty()) {
    mdbs::StatusOr<mdbs::analysis::TemplateMix> loaded =
        mdbs::analysis::LoadTemplateMixFile(options.templates_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--templates: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    mix = std::move(loaded).value();
    // The verdict certifies the declared mix; undeclared local clients
    // would void it, so their presence is folded into the declaration.
    if (options.local_clients > 0) mix->local_txns = true;
    for (const auto& tmpl : mix->templates) {
      for (const mdbs::analysis::TemplateOp& op : tmpl.ops) {
        if (op.site.value() >= static_cast<int64_t>(options.sites.size())) {
          std::fprintf(stderr, "--templates: %s refers to undeclared site\n",
                       op.ToString().c_str());
          return 2;
        }
      }
    }
  }
  if (options.analyze || options.auto_downgrade) {
    analysis = mdbs::analysis::Analyze(
        *mix, mdbs::analysis::BuildCapabilityMatrix(config.sites));
    if (options.analyze) {
      std::printf("-- static robustness analysis --\n%s%s\n",
                  mix->ToString().c_str(),
                  analysis->ToString(*mix).c_str());
    }
    if (options.auto_downgrade && analysis->fast_path_robust) {
      downgraded = true;
      config.gtm.certified_fast_path = true;
      config.gtm.scheme_factory = [scheme = options.scheme]() {
        return mdbs::gtm::MakeRobustFastPath(scheme);
      };
      std::printf(
          "auto_downgrade: mix certified robust; running the GTM fast path "
          "(no ser delays, no tickets)\n");
    } else if (options.auto_downgrade) {
      std::printf(
          "auto_downgrade: mix NOT robust; keeping scheme %s\n",
          mdbs::gtm::SchemeKindName(options.scheme));
    }
  }

  mdbs::Mdbs system(config);

  std::printf("mdbsim: %zu sites [", options.sites.size());
  for (size_t i = 0; i < options.sites.size(); ++i) {
    std::printf("%s%s", i ? "," : "",
                mdbs::lcc::ProtocolKindName(options.sites[i]));
  }
  std::printf("], scheme %s, engine %s, seed %llu\n\n",
              mdbs::gtm::SchemeKindName(options.scheme),
              options.threaded ? "threaded" : "sim",
              static_cast<unsigned long long>(options.seed));

  mdbs::DriverConfig driver;
  driver.global_clients = options.global_clients;
  driver.local_clients_per_site = options.local_clients;
  driver.target_global_commits = options.commits;
  driver.global_workload.items_per_site = options.items;
  driver.global_workload.dav_min = options.dav_min;
  driver.global_workload.dav_max = options.dav_max;
  driver.global_workload.read_ratio = options.read_ratio;
  driver.global_workload.zipf_theta = options.zipf;
  driver.local_workload.items_per_site = options.items;
  driver.local_workload.read_ratio = options.read_ratio;
  driver.local_workload.zipf_theta = options.zipf;
  driver.retry.max_resubmissions = options.retry_max;
  driver.retry.backoff = options.retry_backoff;
  driver.templates = mix;

  mdbs::DriverReport report = RunDriver(&system, driver, options.seed);
  std::printf("%s", report.ToString().c_str());

  if (system.trace_sink() != nullptr) {
    std::vector<mdbs::obs::TraceEvent> events = system.trace_sink()->Drain();
    if (system.trace_sink()->dropped() > 0) {
      std::fprintf(
          stderr,
          "WARNING: trace buffer overflow — %lld events DROPPED "
          "(%lld recorded); the trace file is incomplete, raise "
          "--trace_buffer\n",
          static_cast<long long>(system.trace_sink()->dropped()),
          static_cast<long long>(system.trace_sink()->recorded()));
    }
    mdbs::obs::ChromeTraceOptions trace_options;
    for (size_t i = 0; i < options.sites.size(); ++i) {
      std::string name = "s";
      name.append(std::to_string(i)).append(" (");
      name.append(mdbs::lcc::ProtocolKindName(options.sites[i])).append(")");
      trace_options.site_names.emplace_back(static_cast<int64_t>(i),
                                            std::move(name));
    }
    mdbs::Status written = mdbs::obs::WriteChromeTraceFile(
        options.trace_out, events, trace_options);
    std::printf("trace: %zu events -> %s (%s)\n", events.size(),
                options.trace_out.c_str(), written.ToString().c_str());
  }

  // The run report reads no trace: every number in it comes from the
  // driver's stats counters or the metrics engine's snapshot, so the
  // breakdown table and the JSON report need no --trace_out.
  std::optional<mdbs::obs::MetricsSnapshot> snapshot;
  if (system.metrics() != nullptr) snapshot = system.metrics()->Snapshot();
  if (options.phase_breakdown) {
    if (snapshot.has_value()) {
      std::printf("\n-- phase breakdown --\n%s",
                  snapshot->BreakdownTable().c_str());
    } else {
      std::printf("\n--phase_breakdown requested but metrics are disabled "
                  "(--metrics=0)\n");
    }
  }
  if (!options.metrics_out.empty()) {
    mdbs::sim::MetricsRegistry registry;
    report.AddToRegistry(&registry);
    if (snapshot.has_value()) {
      mdbs::obs::AddSnapshotToRegistry(*snapshot, &registry);
    }
    mdbs::obs::ReportInfo info;
    info.emplace_back("tool", "mdbsim");
    info.emplace_back("scheme",
                      mdbs::gtm::SchemeKindName(options.scheme));
    info.emplace_back("engine", options.threaded ? "threaded" : "sim");
    info.emplace_back("seed", std::to_string(options.seed));
    info.emplace_back("sites", std::to_string(options.sites.size()));
    info.emplace_back("commits", std::to_string(options.commits));
    info.emplace_back("metrics_window",
                      std::to_string(options.metrics_window));
    if (options.durable) info.emplace_back("durable", "1");
    if (options.gtm_durable) info.emplace_back("gtm_durable", "1");
    if (options.gtm_standby) {
      info.emplace_back("gtm_standby", "1");
      info.emplace_back("standby_lag", std::to_string(options.standby_lag));
    }
    if (!options.wal_fsync.empty()) {
      info.emplace_back("wal_fsync", options.wal_fsync);
    }
    if (!system.resolved_fault_plan().Empty()) {
      info.emplace_back("fault_plan", system.resolved_fault_plan().ToSpec());
    }
    if (analysis.has_value()) {
      info.emplace_back("analysis.verdict", analysis->fast_path_robust
                                                ? "robust"
                                                : "not_robust");
      if (analysis->fast_path_robust) {
        info.emplace_back("analysis.certificate", analysis->certificate);
      } else if (analysis->witness.has_value()) {
        info.emplace_back("analysis.witness",
                          analysis->witness->ToString(*mix));
      }
      info.emplace_back("analysis.downgraded", downgraded ? "1" : "0");
    }
    mdbs::obs::ReportExtras extras;
    if (snapshot.has_value()) extras.metrics = &*snapshot;
    if (system.trace_sink() != nullptr) {
      extras.trace_recorded = system.trace_sink()->recorded();
      extras.trace_dropped = system.trace_sink()->dropped();
    }
    mdbs::Status written = mdbs::obs::WriteJsonReportFile(
        options.metrics_out, info, registry, extras);
    std::printf("metrics: -> %s (%s)\n", options.metrics_out.c_str(),
                written.ToString().c_str());
  }
  if (report.crashes > 0) {
    std::printf("crashes injected: %lld\n",
                static_cast<long long>(report.crashes));
  }

  std::printf("\n%s",
              mdbs::sched::ComputeScheduleStats(system.recorder())
                  .ToString()
                  .c_str());

  if (options.dump_schedule > 0) {
    std::printf("\n-- schedule (first %d ops per site) --\n%s",
                options.dump_schedule,
                system.recorder()
                    .Dump(static_cast<size_t>(options.dump_schedule))
                    .c_str());
  }

  std::printf("\nverification:\n");
  std::printf("  local serializability:  %s\n",
              system.CheckLocallySerializable().ToString().c_str());
  std::printf("  ser-key property:       %s\n",
              system.CheckSerializationKeyProperty().ToString().c_str());
  mdbs::Status global = system.CheckGloballySerializable();
  std::printf("  global serializability: %s\n", global.ToString().c_str());
  return global.ok() ? 0 : 1;
}
