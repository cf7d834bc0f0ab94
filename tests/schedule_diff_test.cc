// Differential test of the schedule recorder: the schedules it captures
// for a fixed set of simulator runs are pinned, site by site, so a change
// to how operations and outcomes reach the recorder must keep every
// recorded local schedule S_k and every oracle verdict byte for byte.
//
// Per site the digest covers each operation in local order (txn, type,
// item, value, read_from) and each transaction's parent, outcome and
// serialization key. The verdicts are the oracle's: local CSR (MVSG at
// multiversion sites) with its graph size per site, the serialization-key
// property, strictness, and global CSR with its graph size.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "sched/schedule.h"
#include "sched/serializability.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

/// Every local protocol, one site each.
MdbsConfig AllProtocols(SchemeKind scheme, uint64_t seed) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking,
       ProtocolKind::kTwoPhaseLockingWoundWait,
       ProtocolKind::kTwoPhaseLockingWaitDie,
       ProtocolKind::kTimestampOrdering, ProtocolKind::kSerializationGraph,
       ProtocolKind::kOptimistic, ProtocolKind::kMultiversionTO},
      scheme);
  config.seed = seed;
  return config;
}

/// Hot items and multi-site globals, so every protocol blocks, aborts and
/// (OCC, MVTO) installs deferred writes.
DriverConfig Contended() {
  DriverConfig config;
  config.global_clients = 6;
  config.local_clients_per_site = 1;
  config.target_global_commits = 40;
  config.global_workload.items_per_site = 6;
  config.global_workload.dav_min = 2;
  config.global_workload.dav_max = 4;
  config.local_workload.items_per_site = 6;
  return config;
}

/// One site's local schedule, in a fixed text form.
std::string SiteText(const sched::SiteSchedule& schedule) {
  std::ostringstream os;
  os << "site " << schedule.site().value() << "\n";
  for (const sched::RecordedOp& op : schedule.ops()) {
    os << "op " << op.txn.value() << " " << OpTypeName(op.op.type) << " "
       << op.op.item.value() << " " << op.op.value << " "
       << op.read_from.value() << "\n";
  }
  std::vector<const sched::TxnRecord*> txns;
  for (const auto& [txn, record] : schedule.txns()) txns.push_back(&record);
  std::sort(txns.begin(), txns.end(),
            [](const sched::TxnRecord* a, const sched::TxnRecord* b) {
              return a->txn.value() < b->txn.value();
            });
  for (const sched::TxnRecord* record : txns) {
    os << "txn " << record->txn.value() << " " << record->global.value()
       << " " << TxnOutcomeName(record->outcome) << " "
       << (record->serialization_key.has_value()
               ? std::to_string(*record->serialization_key)
               : std::string("-"))
       << "\n";
  }
  return os.str();
}

std::string Verdicts(Mdbs& system) {
  std::ostringstream os;
  const std::vector<SiteId> mv_sites = system.MultiversionSites();
  for (SiteId id : system.site_ids()) {
    const bool mv =
        std::find(mv_sites.begin(), mv_sites.end(), id) != mv_sites.end();
    const sched::SerializabilityResult local =
        mv ? sched::CheckMultiversionSerializability(system.recorder(), id)
           : sched::CheckLocalSerializability(system.recorder(), id);
    os << "S" << id.value() << (mv ? " mvsg " : " csr ")
       << (local.serializable ? "ok" : "VIOLATED") << " " << local.nodes
       << "/" << local.edges << "; ";
  }
  const sched::SerializabilityResult global =
      system.GlobalSerializabilityResult();
  os << "local " << (system.CheckLocallySerializable().ok() ? "ok" : "bad")
     << ", ser-key "
     << (system.CheckSerializationKeyProperty().ok() ? "ok" : "bad")
     << ", strict " << (system.CheckStrictness().ok() ? "ok" : "bad")
     << ", global " << (global.serializable ? "ok" : "VIOLATED") << " "
     << global.nodes << "/" << global.edges;
  return os.str();
}

TEST(RecordedScheduleDiffTest, EverySiteKeepsItsRecordedSchedule) {
  struct Case {
    const char* name;
    MdbsConfig system;
    DriverConfig driver;
    uint64_t seed;
    uint64_t digest;
    const char* verdicts;
  };
  MdbsConfig durable = AllProtocols(SchemeKind::kScheme3, 41);
  durable.fault_plan = fault::FaultPlan::CrashSweep(
      /*num_sites=*/7, /*first_at=*/1500, /*gap=*/1500, /*duration=*/1200);
  durable.gtm.attempt_timeout = 10'000;
  for (site::SiteConfig& site : durable.sites) {
    site.durable = true;
    site.checkpoint_interval = 32;
    site.recovery_time_per_record = 1;
  }
  DriverConfig retries = Contended();
  retries.retry.max_resubmissions = 2;
  // Without control, indirectly conflicting multi-site globals over three
  // hot items invert their order at two sites: a global-CSR violation.
  MdbsConfig no_control = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kTwoPhaseLocking},
      SchemeKind::kNone);
  DriverConfig inverting;
  inverting.global_clients = 10;
  inverting.local_clients_per_site = 0;
  inverting.target_global_commits = 150;
  inverting.global_workload.items_per_site = 3;
  inverting.global_workload.read_ratio = 0.3;

  const std::vector<Case> cases = {
      {"scheme0", AllProtocols(SchemeKind::kScheme0, 31), Contended(), 7,
       0x25211b01c28e6407ull,
       "S0 csr ok 132/426; "
       "S1 csr ok 2058/6847; "
       "S2 csr ok 120/368; "
       "S3 csr ok 159/545; "
       "S4 csr ok 2059/6753; "
       "S5 csr ok 2068/6816; "
       "S6 mvsg ok 2049/6853; "
       "local ok, ser-key ok, strict ok, global ok 8578/28602"},
      {"scheme1", AllProtocols(SchemeKind::kScheme1, 32), Contended(), 8,
       0xe8b101f890ab28f5ull,
       "S0 csr ok 2026/6685; "
       "S1 csr ok 111/359; "
       "S2 csr ok 2017/6592; "
       "S3 csr ok 2040/6662; "
       "S4 csr ok 135/431; "
       "S5 csr ok 2045/6728; "
       "S6 mvsg ok 2035/6659; "
       "local ok, ser-key ok, strict ok, global ok 10359/34115"},
      {"scheme2", AllProtocols(SchemeKind::kScheme2, 33), Contended(), 9,
       0xfbac002c3ef1b8e3ull,
       "S0 csr ok 454/1459; "
       "S1 csr ok 452/1470; "
       "S2 csr ok 449/1500; "
       "S3 csr ok 2354/7691; "
       "S4 csr ok 2361/7809; "
       "S5 csr ok 4267/14265; "
       "S6 mvsg ok 468/1536; "
       "local ok, ser-key ok, strict ok, global ok 10723/35723"},
      {"scheme3", AllProtocols(SchemeKind::kScheme3, 34), Contended(), 10,
       0x8cf1dbb286ff951full,
       "S0 csr ok 397/1333; "
       "S1 csr ok 6154/20425; "
       "S2 csr ok 501/1612; "
       "S3 csr ok 2321/7644; "
       "S4 csr ok 4231/13931; "
       "S5 csr ok 6186/20428; "
       "S6 mvsg ok 4279/14171; "
       "local ok, ser-key ok, strict ok, global ok 23985/79534"},
      {"no-control", no_control, inverting, 1,
       0xb1afeccd3f6c1d7bull,
       "S0 csr ok 96/172; "
       "S1 csr ok 104/193; "
       "S2 csr ok 96/188; "
       "local ok, ser-key ok, strict ok, global VIOLATED 121/388"},
      {"durable-site-crashes", durable, retries, 12,
       0xa35ce743789375c0ull,
       "S0 csr ok 121/382; "
       "S1 csr ok 132/416; "
       "S2 csr ok 197/627; "
       "S3 csr ok 215/678; "
       "S4 csr ok 238/773; "
       "S5 csr ok 278/927; "
       "S6 mvsg ok 254/774; "
       "local ok, ser-key ok, strict ok, global ok 1358/4562"},
  };
  for (const Case& c : cases) {
    Mdbs system(c.system);
    RunDriver(&system, c.driver, c.seed);
    std::string text;
    std::ostringstream sizes;
    for (SiteId id : system.site_ids()) {
      const sched::SiteSchedule& schedule = system.recorder().site(id);
      EXPECT_EQ(schedule.site(), id) << c.name;
      for (const sched::RecordedOp& op : schedule.ops()) {
        ASSERT_NE(schedule.FindTxn(op.txn), nullptr)
            << c.name << ": " << op.ToString() << " without its begin";
      }
      text += SiteText(schedule);
      sizes << " S" << id.value() << "=" << schedule.ops().size() << "ops/"
            << schedule.txns().size() << "txns";
    }
    EXPECT_EQ(Fnv1a64(text), c.digest)
        << c.name << " schedule digest is now " << Hex(Fnv1a64(text))
        << " over" << sizes.str();
    EXPECT_EQ(Verdicts(system), c.verdicts) << c.name;
  }
}

}  // namespace
}  // namespace mdbs
