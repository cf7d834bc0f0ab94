#include "workloads.h"

#include <algorithm>

#include "common/rng.h"

namespace wallbench {

using mdbs::lcc::ProtocolKind;

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> list;

    Workload hop;
    hop.name = "hop";
    hop.protocols = {ProtocolKind::kTwoPhaseLocking,
                     ProtocolKind::kTimestampOrdering,
                     ProtocolKind::kSerializationGraph,
                     ProtocolKind::kOptimistic};
    hop.clients = 1;
    hop.items_per_site = 100'000;
    hop.memory_txns = 3'000;
    list.push_back(hop);

    Workload durable;
    durable.name = "durable";
    durable.protocols = {ProtocolKind::kTwoPhaseLocking,
                         ProtocolKind::kTimestampOrdering,
                         ProtocolKind::kSerializationGraph,
                         ProtocolKind::kMultiversionTO};
    durable.clients = 8;
    durable.disjoint_keys = true;
    durable.keys_per_client = 1000;
    durable.items_per_site = durable.clients * durable.keys_per_client;
    durable.read_ratio = 0.2;
    durable.durable = true;
    durable.memory_txns = 4'000;
    list.push_back(durable);
    return list;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

mdbs::MdbsConfig MakeConfig(const Workload& workload, uint64_t seed) {
  mdbs::MdbsConfig config =
      mdbs::MdbsConfig::Mixed(workload.protocols, mdbs::gtm::SchemeKind::kScheme3);
  config.seed = seed;
  config.threaded = true;
  config.audit.enabled = false;
  if (workload.durable) {
    for (mdbs::site::SiteConfig& site : config.sites) site.durable = true;
    config.gtm.durable = true;
    config.gtm_standby = true;
  }
  return config;
}

mdbs::gtm::GlobalTxnSpec CompactTxn::ToSpec() const {
  mdbs::gtm::GlobalTxnSpec spec;
  spec.ops.reserve(ops.size());
  for (const CompactOp& op : ops) {
    mdbs::SiteId site(op.site);
    mdbs::DataItemId item(op.item);
    spec.ops.push_back(op.write ? mdbs::gtm::GlobalOp::Write(site, item, op.value)
                                : mdbs::gtm::GlobalOp::Read(site, item));
  }
  return spec;
}

namespace {

// Same shape as the program's MakeGlobalTxn (dav distinct sites, a run of
// operations per site, per-site order kept under a random interleaving), but
// with uniform keys drawn directly: MakeGlobalTxn builds a ZipfGenerator per
// call, an O(items_per_site) loop that would dominate the generator.
CompactTxn MakeTxn(const Workload& workload, int client, mdbs::Rng* rng) {
  const int site_count = static_cast<int>(workload.protocols.size());
  const int dav_hi = std::min(kDavMax, site_count);
  const int dav_lo = std::min(kDavMin, dav_hi);
  const int dav = static_cast<int>(rng->NextInRange(dav_lo, dav_hi));
  std::vector<int32_t> sites;
  for (int32_t s = 0; s < site_count; ++s) sites.push_back(s);
  rng->Shuffle(&sites);
  sites.resize(static_cast<size_t>(dav));

  const int64_t key_base =
      workload.disjoint_keys ? client * workload.keys_per_client : 0;
  const int64_t key_span = workload.disjoint_keys ? workload.keys_per_client
                                                  : workload.items_per_site;
  std::vector<std::vector<CompactOp>> per_site;
  for (int32_t site : sites) {
    const int ops =
        static_cast<int>(rng->NextInRange(kOpsPerSiteMin, kOpsPerSiteMax));
    std::vector<CompactOp> list;
    for (int i = 0; i < ops; ++i) {
      CompactOp op;
      op.site = site;
      op.item = key_base +
                static_cast<int64_t>(rng->NextBelow(static_cast<uint64_t>(key_span)));
      op.write = !rng->NextBernoulli(workload.read_ratio);
      if (op.write) op.value = static_cast<int64_t>(rng->Next() >> 16);
      list.push_back(op);
    }
    per_site.push_back(std::move(list));
  }

  CompactTxn txn;
  std::vector<size_t> cursor(per_site.size(), 0);
  size_t remaining = 0;
  for (const auto& list : per_site) remaining += list.size();
  while (remaining > 0) {
    const size_t pick = rng->NextBelow(per_site.size());
    if (cursor[pick] < per_site[pick].size()) {
      txn.ops.push_back(per_site[pick][cursor[pick]++]);
      --remaining;
    }
  }
  return txn;
}

}  // namespace

InputPool GenerateInputs(const Workload& workload, uint64_t seed,
                         int64_t txns_per_client) {
  InputPool pool;
  pool.per_client.resize(static_cast<size_t>(workload.clients));
  for (int c = 0; c < workload.clients; ++c) {
    mdbs::Rng rng(seed * 1'000'003 + static_cast<uint64_t>(c));
    std::vector<CompactTxn>& stream = pool.per_client[static_cast<size_t>(c)];
    stream.reserve(static_cast<size_t>(txns_per_client));
    for (int64_t i = 0; i < txns_per_client; ++i) {
      stream.push_back(MakeTxn(workload, c, &rng));
      pool.total_ops += static_cast<int64_t>(stream.back().ops.size());
    }
    pool.total_txns += txns_per_client;
  }
  return pool;
}

}  // namespace wallbench
