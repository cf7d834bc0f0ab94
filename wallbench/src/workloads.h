// Workload definitions and the seeded input generator. Every input a run
// submits is generated here, from --seed, before the timed interval starts;
// the program under test only ever sees the finished specs.
#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gtm/global_txn.h"
#include "lcc/protocol.h"
#include "mdbs/mdbs.h"

namespace wallbench {

/// Shape shared by every workload's global transactions: 2-3 distinct
/// sites (dav), 2-4 operations at each.
inline constexpr int kDavMin = 2;
inline constexpr int kDavMax = 3;
inline constexpr int kOpsPerSiteMin = 2;
inline constexpr int kOpsPerSiteMax = 4;

/// One benchmark workload: the federation it runs on and the shape of the
/// global transactions its closed-loop clients submit. Every workload runs
/// the program's default modeled delays as real sleeps. NOTES.md says why
/// each workload exists, which layers it loads or bypasses, and why no
/// workload runs in CPU-bound mode.
struct Workload {
  std::string name;
  std::vector<mdbs::lcc::ProtocolKind> protocols;
  /// Closed-loop clients: transactions in flight at once.
  int clients = 1;
  /// Keys per site. With `disjoint_keys` client c only touches
  /// [c * keys_per_client, (c + 1) * keys_per_client) at every site, so no
  /// two transactions in flight share an item.
  int64_t items_per_site = 0;
  bool disjoint_keys = false;
  int64_t keys_per_client = 0;
  double read_ratio = 0.5;
  /// Durable sites and a durable GTM with a warm standby, all on in-memory
  /// log devices, wal_fsync=every_commit, default checkpoint interval.
  bool durable = false;
  /// Transactions of the memory pass behind max_rss_mb: about what one
  /// timed sub-run commits, so per-transaction state the program keeps
  /// (schedule recorder, WAL images, commit sets) weighs in the peak.
  int64_t memory_txns = 0;
};

/// The workload called `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);
const std::vector<Workload>& AllWorkloads();

/// The MDBS configuration a workload runs on (threaded, audit off, no
/// trace sink). Callers add seams or the auditor on top.
mdbs::MdbsConfig MakeConfig(const Workload& workload, uint64_t seed);

/// A pre-generated global transaction in compact form; ToSpec builds the
/// program's GlobalTxnSpec from it at submission time.
struct CompactOp {
  int32_t site = 0;
  bool write = false;
  int64_t item = 0;
  int64_t value = 0;
};
struct CompactTxn {
  std::vector<CompactOp> ops;
  mdbs::gtm::GlobalTxnSpec ToSpec() const;
};

/// Per-client input streams, generated from `seed` alone. A client cycles
/// through its stream if a run outlasts it.
struct InputPool {
  std::vector<std::vector<CompactTxn>> per_client;
  int64_t total_txns = 0;
  int64_t total_ops = 0;
};
InputPool GenerateInputs(const Workload& workload, uint64_t seed,
                         int64_t txns_per_client);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
