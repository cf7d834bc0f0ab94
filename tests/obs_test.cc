#include <atomic>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "obs/event_sink.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sim/metrics.h"

namespace mdbs {
namespace {

using obs::TraceConfig;
using obs::TraceEvent;
using obs::TraceEventKind;
using obs::TraceSink;

// --------------------------------------------------------------------------
// TraceSink
// --------------------------------------------------------------------------

TraceConfig EnabledConfig(size_t capacity = 1 << 12) {
  TraceConfig config;
  config.enabled = true;
  config.buffer_capacity = capacity;
  return config;
}

TEST(TraceSinkTest, RecordsAndDrainsInTimeSeqOrder) {
  sim::Time now = 0;
  TraceSink sink(EnabledConfig(), [&now]() { return now; });
  ASSERT_TRUE(sink.enabled());
  now = 30;
  sink.Record(TraceEventKind::kSubmit, 1, -1);
  now = 10;
  sink.Record(TraceEventKind::kInit, 2, -1);
  now = 10;
  sink.Record(TraceEventKind::kFin, 3, -1);
  EXPECT_EQ(sink.recorded(), 3);

  std::vector<TraceEvent> events = sink.Drain();
  ASSERT_EQ(events.size(), 3u);
  // Time-sorted; equal times break by recording sequence.
  EXPECT_EQ(events[0].txn, 2);
  EXPECT_EQ(events[1].txn, 3);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(events[2].txn, 1);
  EXPECT_EQ(events[2].time, 30);
  // Drain clears.
  EXPECT_TRUE(sink.Drain().empty());
}

TEST(TraceSinkTest, DisabledSinkRecordsNothing) {
  TraceConfig config;  // enabled = false
  TraceSink sink(config, []() { return sim::Time{0}; });
  EXPECT_FALSE(sink.enabled());
  sink.Record(TraceEventKind::kSubmit, 1, -1);
  EXPECT_EQ(sink.recorded(), 0);
  EXPECT_TRUE(sink.Drain().empty());
}

TEST(TraceSinkTest, FullBufferDropsAndCounts) {
  TraceSink sink(EnabledConfig(/*capacity=*/4), []() { return sim::Time{0}; });
  for (int i = 0; i < 10; ++i) {
    sink.Record(TraceEventKind::kSubmit, i, -1);
  }
  EXPECT_EQ(sink.recorded(), 4);
  EXPECT_EQ(sink.dropped(), 6);
  EXPECT_EQ(sink.Drain().size(), 4u);
}

TEST(TraceSinkTest, ConcurrentRecordersKeepEveryEventWithUniqueSeq) {
  TraceSink sink(EnabledConfig(1 << 14), []() { return sim::Time{7}; });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        sink.Record(TraceEventKind::kSiteBegin, t * kPerThread + i, t);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<TraceEvent> events = sink.Drain();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  std::unordered_set<int64_t> seqs;
  std::unordered_set<int64_t> txns;
  for (const TraceEvent& event : events) {
    seqs.insert(event.seq);
    txns.insert(event.txn);
  }
  EXPECT_EQ(seqs.size(), events.size());  // Process-wide unique sequence.
  EXPECT_EQ(txns.size(), events.size());  // No event lost or duplicated.
}

// --------------------------------------------------------------------------
// EventSink
// --------------------------------------------------------------------------

static_assert(obs::SubscribersOf(TraceEventKind::kStep) == obs::kToMetrics);
static_assert(obs::SubscribersOf(TraceEventKind::kEdgeMark) == obs::kToTrace);
static_assert(obs::SubscribersOf(TraceEventKind::kSubmit) ==
              (obs::kToTrace | obs::kToMetrics));
static_assert(obs::SubscribersOf(TraceEventKind::kWaitAbandon) ==
              (obs::kToTrace | obs::kToMetrics));

int64_t Phase(const obs::MetricsSnapshot& snapshot, obs::TxnPhase phase) {
  return snapshot.phase_ticks[static_cast<size_t>(phase)];
}

TEST(EventSinkTest, RoutesEachKindOnlyToItsSubscribers) {
  sim::Time now = 100;
  TraceSink trace(EnabledConfig(), [&now]() { return now; });
  obs::MetricsEngine metrics(obs::MetricsConfig{}, [&now]() { return now; },
                             {SiteId(0)});
  const obs::EventSink events(&trace, &metrics);
  const std::vector<SiteId> sites = {SiteId(0)};

  // A metrics-only kind never reaches the trace...
  events.Emit({.kind = TraceEventKind::kAdmission, .ticks = 90});
  EXPECT_EQ(trace.recorded(), 0);
  // ...a shared kind reaches both...
  events.Emit({.kind = TraceEventKind::kSubmit, .txn = 7, .a = 1, .job = 7,
               .sites = &sites});
  EXPECT_EQ(trace.recorded(), 1);
  // ...and a trace-only kind the trace alone.
  events.Emit({.kind = TraceEventKind::kTxnUnparked, .txn = 7});
  now = 130;
  events.Emit({.kind = TraceEventKind::kTxnCommit, .txn = 3, .a = 7, .b = 1,
               .job = 7});
  EXPECT_EQ(trace.recorded(), 3);

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.committed, 1);
  // The staged admission stamp started the lifetime at 90, not 100.
  EXPECT_EQ(snapshot.lifetime_ticks, 40);
  EXPECT_EQ(Phase(snapshot, obs::TxnPhase::kAdmission), 40);
}

TEST(EventSinkTest, WantsOnlyWhatASubscriberTakes) {
  sim::Time now = 0;
  TraceSink trace(EnabledConfig(), [&now]() { return now; });
  obs::MetricsEngine metrics(obs::MetricsConfig{}, [&now]() { return now; },
                             {SiteId(0)});
  EXPECT_FALSE(obs::kNoEvents.Wants(TraceEventKind::kSubmit));
  // Harmless: nobody listens, so not even the missing site list is read.
  obs::kNoEvents.Emit({.kind = TraceEventKind::kSubmit, .job = 1});

  const obs::EventSink trace_only(&trace, nullptr);
  EXPECT_TRUE(trace_only.Wants(TraceEventKind::kDepDrop));
  EXPECT_FALSE(trace_only.Wants(TraceEventKind::kStep));
  const obs::EventSink metrics_only(nullptr, &metrics);
  EXPECT_TRUE(metrics_only.Wants(TraceEventKind::kStep));
  EXPECT_FALSE(metrics_only.Wants(TraceEventKind::kDepDrop));
}

// The engine, not GTM1, decides which phase each step charges: walk one
// transaction through begin, ticket, a ser wait and a commit and check
// every tick lands where the phase model says.
TEST(EventSinkTest, EngineChargesEachStepToItsPhase) {
  sim::Time now = 0;
  obs::MetricsEngine metrics(obs::MetricsConfig{}, [&now]() { return now; },
                             {SiteId(0)});
  const obs::EventSink events(nullptr, &metrics);
  const std::vector<SiteId> sites = {SiteId(0)};
  auto step = [&](sim::Time at, obs::Step to) {
    now = at;
    events.Emit({.kind = TraceEventKind::kStep, .job = 1, .step = to});
  };
  auto reply = [&](sim::Time at, int64_t sub, sim::Time busy) {
    now = at;
    events.Emit({.kind = TraceEventKind::kSiteReply, .txn = sub,
                 .ticks = busy});
    events.Emit({.kind = TraceEventKind::kRoundTripEnd, .txn = sub, .job = 1});
  };

  events.Emit({.kind = TraceEventKind::kSubmit, .job = 1, .sites = &sites});
  events.Emit({.kind = TraceEventKind::kAttemptStart, .txn = 5, .job = 1});
  step(10, obs::Step::kBegin);   // scheme 10
  step(30, obs::Step::kTicket);  // network 20
  reply(50, 9, 15);              // ticket 15, network 5
  step(60, obs::Step::kGtm2);    // ticket 10
  // An init waiting beside the ser operation is not the critical path.
  events.Emit({.kind = TraceEventKind::kWaitEnter, .txn = 5});
  events.Emit({.kind = TraceEventKind::kWaitEnter, .txn = 5,
               .step = obs::Step::kGtm2});
  now = 80;
  events.Emit({.kind = TraceEventKind::kWaitExit, .txn = 5,
               .step = obs::Step::kGtm2});  // ser_wait 20
  step(90, obs::Step::kCommit);             // scheme 10
  reply(100, 9, 4);                         // site_exec 4, network 6
  events.Emit({.kind = TraceEventKind::kTxnCommit, .txn = 5, .job = 1});

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.balance_violations, 0);
  EXPECT_EQ(snapshot.lifetime_ticks, 100);
  EXPECT_EQ(Phase(snapshot, obs::TxnPhase::kScheme), 20);
  EXPECT_EQ(Phase(snapshot, obs::TxnPhase::kNetwork), 31);
  EXPECT_EQ(Phase(snapshot, obs::TxnPhase::kTicket), 25);
  EXPECT_EQ(Phase(snapshot, obs::TxnPhase::kSerWait), 20);
  EXPECT_EQ(Phase(snapshot, obs::TxnPhase::kSiteExec), 4);
}

// The engine owns the WAIT dwell, GTM2 depth and recovery-time series of
// the run report. A wait is keyed by (attempt, site, op kind): a re-enter
// restarts it, a GTM crash leaves it open, and an exit or abandon with no
// open wait records nothing.
TEST(EventSinkTest, EngineTimesWaitDwellDepthsAndRecovery) {
  sim::Time now = 0;
  obs::MetricsEngine metrics(obs::MetricsConfig{}, [&now]() { return now; },
                             {SiteId(0), SiteId(1)});
  const obs::EventSink events(nullptr, &metrics);
  auto wait = [&](sim::Time at, TraceEventKind kind, int64_t txn,
                  int64_t site, const char* op) {
    now = at;
    events.Emit({.kind = kind, .txn = txn, .site = site, .detail = op});
  };
  wait(0, TraceEventKind::kWaitEnter, 5, 0, "ser");
  wait(10, TraceEventKind::kWaitExit, 5, 0, "ser");     // ser 10
  wait(10, TraceEventKind::kWaitEnter, 5, 1, "ser");
  wait(15, TraceEventKind::kWaitEnter, 5, 1, "ser");    // restarts at 15
  wait(40, TraceEventKind::kWaitExit, 5, 1, "ser");     // ser 25
  wait(40, TraceEventKind::kWaitEnter, 6, -1, "fin");
  wait(41, TraceEventKind::kWaitEnter, 6, 0, "ser");
  now = 50;
  events.Emit({.kind = TraceEventKind::kGtmCrash});
  wait(70, TraceEventKind::kWaitExit, 6, -1, "fin");    // fin 30
  wait(90, TraceEventKind::kWaitAbandon, 6, 0, "ser");  // abandoned ser 49
  wait(95, TraceEventKind::kWaitExit, 6, 0, "ser");     // already closed
  wait(96, TraceEventKind::kWaitExit, 7, 0, "validate");
  events.Emit({.kind = TraceEventKind::kQueueDepth, .a = 3, .b = 1});
  events.Emit({.kind = TraceEventKind::kQueueDepth, .a = 1, .b = 2});
  events.Emit({.kind = TraceEventKind::kRecoveryBegin, .site = 1,
               .ticks = 76});
  events.Emit({.kind = TraceEventKind::kRecoveryBegin, .site = 0,
               .ticks = 0});

  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.queue_depth.count(), 2);
  EXPECT_EQ(snapshot.queue_depth.max(), 3.0);
  EXPECT_EQ(snapshot.wait_depth.max(), 2.0);
  EXPECT_EQ(snapshot.recovery_time.count(), 2);
  EXPECT_EQ(snapshot.recovery_time.sum(), 76.0);

  sim::MetricsRegistry registry;
  obs::AddSnapshotToRegistry(snapshot, &registry);
  auto summary = [&registry](const char* name) {
    const sim::Summary* found = registry.GetSummary(name);
    return found != nullptr ? *found : sim::Summary();
  };
  EXPECT_EQ(summary("wait.dwell.ser").count(), 2);
  EXPECT_EQ(summary("wait.dwell.ser").min(), 10.0);
  EXPECT_EQ(summary("wait.dwell.ser").max(), 25.0);
  EXPECT_EQ(summary("wait.dwell.abandoned.ser").count(), 1);
  EXPECT_EQ(summary("wait.dwell.abandoned.ser").max(), 49.0);
  EXPECT_EQ(summary("wait.dwell.fin").count(), 1);
  EXPECT_EQ(summary("wait.dwell.fin").max(), 30.0);
  // Kinds with no finished wait are left out of the report.
  EXPECT_EQ(registry.GetSummary("wait.dwell.abandoned.fin"), nullptr);
  EXPECT_EQ(registry.GetSummary("wait.dwell.validate"), nullptr);
  EXPECT_EQ(summary("gtm2.queue_depth").count(), 2);
  EXPECT_EQ(summary("recovery.time").max(), 76.0);
  // The snapshot's totals live in the report's "metrics" section only.
  EXPECT_TRUE(registry.counters().empty());
}

// --------------------------------------------------------------------------
// JSON well-formedness (no parser available; check balance and structure)
// --------------------------------------------------------------------------

/// True when every brace/bracket outside string literals balances and the
/// document is one value. Catches the classic exporter bugs (trailing
/// commas are not caught, but unbalanced nesting and unterminated strings
/// are).
bool JsonNestingBalanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ChromeTraceExportTest, EmitsBalancedJsonWithTracks) {
  std::vector<TraceEvent> events;
  auto add = [&events](TraceEventKind kind, sim::Time time, int64_t txn,
                       int64_t site, int64_t a = 0, int64_t b = 0,
                       const char* detail = nullptr) {
    TraceEvent event;
    event.kind = kind;
    event.time = time;
    event.seq = static_cast<int64_t>(events.size());
    event.txn = txn;
    event.site = site;
    event.a = a;
    event.b = b;
    event.detail = detail;
    events.push_back(event);
  };
  add(TraceEventKind::kSubmit, 0, 1, -1, 2);
  add(TraceEventKind::kAttemptStart, 1, 10, -1, 1, 1);
  add(TraceEventKind::kInit, 2, 10, -1, 2);
  add(TraceEventKind::kWaitEnter, 3, 10, 0, 1, 0, "ser");
  add(TraceEventKind::kWaitExit, 5, 10, 0, 0, 0, "ser");
  add(TraceEventKind::kSiteBegin, 6, 100, 0, 10);
  add(TraceEventKind::kOpBlocked, 7, 100, 0, 10, 42);
  add(TraceEventKind::kOpResumed, 8, 100, 0, 10, 42);
  add(TraceEventKind::kSiteCommit, 9, 100, 0, 10);
  add(TraceEventKind::kQueueDepth, 9, 10, -1, 3, 1);
  add(TraceEventKind::kTxnCommit, 10, 10, -1, 1, 1);
  // A span left open at the end must be force-closed by the exporter.
  add(TraceEventKind::kSiteBegin, 11, 101, 1, 11);

  obs::ChromeTraceOptions options;
  options.site_names = {{0, "s0 (2PL)"}, {1, "s1 (TO)"}};
  std::ostringstream os;
  obs::WriteChromeTrace(os, events, options);
  std::string text = os.str();

  EXPECT_TRUE(JsonNestingBalanced(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_NE(text.find("s0 (2PL)"), std::string::npos);
  // Async span begin/end pairs balance (the trailing open span got closed).
  size_t begins = 0;
  size_t ends = 0;
  for (size_t pos = 0; (pos = text.find("\"ph\":\"b\"", pos)) !=
                       std::string::npos;
       pos += 8) {
    ++begins;
  }
  for (size_t pos = 0; (pos = text.find("\"ph\":\"e\"", pos)) !=
                       std::string::npos;
       pos += 8) {
    ++ends;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

TEST(JsonReportTest, EmitsBalancedJsonWithSummaries) {
  sim::MetricsRegistry registry;
  registry.Increment("driver.global_committed", 12);
  for (int i = 1; i <= 100; ++i) {
    registry.Observe("txn.lifetime", i * 10.0);
  }
  obs::ReportInfo info = {{"scheme", "Scheme3"}, {"engine", "sim"}};
  std::ostringstream os;
  obs::WriteJsonReport(os, info, registry);
  std::string text = os.str();

  EXPECT_TRUE(JsonNestingBalanced(text)) << text;
  EXPECT_NE(text.find("\"info\""), std::string::npos);
  EXPECT_NE(text.find("\"Scheme3\""), std::string::npos);
  EXPECT_NE(text.find("\"driver.global_committed\":12"), std::string::npos);
  EXPECT_NE(text.find("\"quantiles\""), std::string::npos);
  EXPECT_NE(text.find("\"histogram\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Lifecycle span schema: submit < attempt < init <= ser <= ack <= fin for
// every committed attempt, in both engines. Ordering is positional over the
// drained (time, seq)-sorted stream.
// --------------------------------------------------------------------------

struct AttemptSpan {
  int64_t job = -1;
  size_t start = 0;
  size_t init = 0;
  size_t first_ser = SIZE_MAX;
  size_t last_ack = 0;
  size_t fin = 0;
  bool has_start = false;
  bool has_init = false;
  bool has_ack = false;
  bool has_fin = false;
  bool committed = false;
};

void CheckLifecycleSchema(const std::vector<TraceEvent>& events) {
  std::unordered_map<int64_t, size_t> submit_pos;  // job id -> position
  std::map<int64_t, AttemptSpan> attempts;         // attempt id -> span
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    switch (event.kind) {
      case TraceEventKind::kSubmit:
        submit_pos[event.txn] = i;
        break;
      case TraceEventKind::kAttemptStart: {
        AttemptSpan& span = attempts[event.txn];
        span.job = event.a;
        span.start = i;
        span.has_start = true;
        break;
      }
      case TraceEventKind::kInit: {
        AttemptSpan& span = attempts[event.txn];
        span.init = i;
        span.has_init = true;
        break;
      }
      case TraceEventKind::kSerRelease: {
        AttemptSpan& span = attempts[event.txn];
        if (span.first_ser == SIZE_MAX) span.first_ser = i;
        break;
      }
      case TraceEventKind::kAck: {
        AttemptSpan& span = attempts[event.txn];
        span.last_ack = i;
        span.has_ack = true;
        break;
      }
      case TraceEventKind::kFin: {
        AttemptSpan& span = attempts[event.txn];
        span.fin = i;
        span.has_fin = true;
        break;
      }
      case TraceEventKind::kTxnCommit:
        attempts[event.txn].committed = true;
        break;
      default:
        break;
    }
  }

  int checked = 0;
  for (const auto& [attempt, span] : attempts) {
    if (!span.committed) continue;
    ++checked;
    ASSERT_TRUE(span.has_start) << "attempt " << attempt;
    ASSERT_TRUE(span.has_init) << "attempt " << attempt;
    ASSERT_TRUE(span.has_fin) << "attempt " << attempt;
    ASSERT_TRUE(submit_pos.contains(span.job)) << "attempt " << attempt;
    EXPECT_LT(submit_pos.at(span.job), span.start) << "attempt " << attempt;
    EXPECT_LT(span.start, span.init) << "attempt " << attempt;
    if (span.first_ser != SIZE_MAX) {
      EXPECT_LE(span.init, span.first_ser) << "attempt " << attempt;
      if (span.has_ack) {
        EXPECT_LE(span.first_ser, span.last_ack) << "attempt " << attempt;
      }
    }
    if (span.has_ack) {
      EXPECT_LT(span.last_ack, span.fin) << "attempt " << attempt;
    }
  }
  EXPECT_GT(checked, 0) << "no committed attempts traced";
}

DriverConfig SmallDriver(int64_t commits) {
  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = commits;
  return driver;
}

TEST(LifecycleSchemaTest, SimEngineAllSchemes) {
  for (gtm::SchemeKind scheme :
       {gtm::SchemeKind::kScheme0, gtm::SchemeKind::kScheme1,
        gtm::SchemeKind::kScheme2, gtm::SchemeKind::kScheme3}) {
    SCOPED_TRACE(gtm::SchemeKindName(scheme));
    MdbsConfig config = MdbsConfig::Mixed(
        {lcc::ProtocolKind::kTwoPhaseLocking,
         lcc::ProtocolKind::kTimestampOrdering,
         lcc::ProtocolKind::kSerializationGraph},
        scheme);
    config.trace.enabled = true;
    Mdbs mdbs(config);
    ASSERT_NE(mdbs.trace_sink(), nullptr);
    DriverReport report = RunDriver(&mdbs, SmallDriver(20), /*seed=*/7);
    ASSERT_GT(report.global_committed, 0);

    std::vector<TraceEvent> events = mdbs.trace_sink()->Drain();
    ASSERT_FALSE(events.empty());
    CheckLifecycleSchema(events);
  }
}

TEST(LifecycleSchemaTest, ThreadedEngine) {
  MdbsConfig config = MdbsConfig::Mixed(
      {lcc::ProtocolKind::kTwoPhaseLocking,
       lcc::ProtocolKind::kOptimistic},
      gtm::SchemeKind::kScheme3);
  config.threaded = true;
  config.trace.enabled = true;
  Mdbs mdbs(config);
  ASSERT_NE(mdbs.trace_sink(), nullptr);
  DriverReport report = RunDriver(&mdbs, SmallDriver(10), /*seed=*/7);
  ASSERT_GT(report.global_committed, 0);

  std::vector<TraceEvent> events = mdbs.trace_sink()->Drain();
  ASSERT_FALSE(events.empty());
  CheckLifecycleSchema(events);
}

// --------------------------------------------------------------------------
// Run report without a trace
// --------------------------------------------------------------------------

// The run report reads no trace: with tracing off, a durable run with site
// crashes still reports WAIT dwell, GTM2 depths and recovery time, all from
// the metrics engine, beside the driver's counters.
TEST(MetricsReportTest, UntracedRunReportsDwellDepthsAndRecovery) {
  MdbsConfig config = MdbsConfig::Mixed(
      {lcc::ProtocolKind::kTwoPhaseLocking,
       lcc::ProtocolKind::kTimestampOrdering,
       lcc::ProtocolKind::kSerializationGraph},
      gtm::SchemeKind::kScheme2);
  config.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/3, /*first_at=*/2000, /*gap=*/3000, /*duration=*/1500);
  for (site::SiteConfig& site : config.sites) {
    site.durable = true;
    site.checkpoint_interval = 16;
    site.recovery_time_per_record = 1;
  }
  ASSERT_FALSE(config.trace.enabled);
  Mdbs mdbs(config);
  EXPECT_EQ(mdbs.trace_sink(), nullptr);
  DriverReport report = RunDriver(&mdbs, SmallDriver(40), /*seed=*/3);
  ASSERT_GT(report.global_committed, 0);
  ASSERT_GT(report.durability.recoveries, 0);

  sim::MetricsRegistry registry;
  report.AddToRegistry(&registry);
  obs::AddSnapshotToRegistry(mdbs.metrics()->Snapshot(), &registry);

  const sim::Summary* dwell = registry.GetSummary("wait.dwell.ser");
  ASSERT_NE(dwell, nullptr);
  EXPECT_GT(dwell->count(), 0);
  EXPECT_LE(dwell->count(), report.gtm2.ser_wait_additions);
  const sim::Summary* queue = registry.GetSummary("gtm2.queue_depth");
  ASSERT_NE(queue, nullptr);
  EXPECT_GE(queue->min(), 1.0);
  ASSERT_NE(registry.GetSummary("gtm2.wait_depth"), nullptr);
  const sim::Summary* recovery = registry.GetSummary("recovery.time");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->count(), report.durability.recoveries);
  EXPECT_EQ(recovery->sum(),
            static_cast<double>(report.durability.recovery_ticks));
  EXPECT_EQ(registry.Counter("driver.global_committed"),
            report.global_committed);
}

TEST(MdbsTraceTest, DisabledByDefaultAndSinkIsNull) {
  MdbsConfig config = MdbsConfig::Uniform(
      2, lcc::ProtocolKind::kTwoPhaseLocking, gtm::SchemeKind::kScheme1);
  Mdbs mdbs(config);
  EXPECT_EQ(mdbs.trace_sink(), nullptr);
  DriverReport report = RunDriver(&mdbs, SmallDriver(5), /*seed=*/1);
  EXPECT_GT(report.global_committed, 0);
}

}  // namespace
}  // namespace mdbs
