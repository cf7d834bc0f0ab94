#ifndef MDBS_SCHED_GRAPH_H_
#define MDBS_SCHED_GRAPH_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mdbs::sched {

/// One edge of an UndirectedMultigraph: endpoints plus an int64 label
/// (static analysis labels edges with the site the interference happens at).
/// Parallel edges — same endpoints, different labels — are distinct edges.
struct LabeledEdge {
  int64_t u = 0;
  int64_t v = 0;
  int64_t label = 0;
};

/// Small undirected multigraph over int64 node keys with labeled edges and
/// a constrained cycle search; the static conflict-robustness analyzer
/// (src/analysis) builds its cross-site interference graph on it.
/// Self-loops are not supported.
class UndirectedMultigraph {
 public:
  void AddNode(int64_t node);
  /// Adds an edge and returns its index into edges(). Endpoints must
  /// differ; parallel edges are kept separate.
  size_t AddEdge(int64_t u, int64_t v, int64_t label);

  size_t NodeCount() const { return nodes_.size(); }
  size_t EdgeCount() const { return edges_.size(); }
  const std::vector<LabeledEdge>& edges() const { return edges_; }
  std::vector<int64_t> Nodes() const;

  /// A vertex-simple cycle through both edges, as an ordered edge-index
  /// sequence (consecutive edges share an endpoint, last wraps to first),
  /// or nullopt when none exists. `e1` and `e2` must be distinct indices.
  /// Exhaustive backtracking: intended for the analyzer's small template
  /// graphs, capped at an internal step budget.
  std::optional<std::vector<size_t>> FindCycleThrough(size_t e1,
                                                      size_t e2) const;

 private:
  std::unordered_map<int64_t, std::vector<size_t>> incidence_;
  std::vector<int64_t> nodes_;  // insertion order, for deterministic output
  std::vector<LabeledEdge> edges_;
};

/// Small directed graph over int64 node keys with cycle detection and
/// topological ordering; used for serialization graphs of all flavors.
class DirectedGraph {
 public:
  void AddNode(int64_t node);
  void AddEdge(int64_t from, int64_t to);

  bool HasNode(int64_t node) const { return adj_.contains(node); }
  bool HasEdge(int64_t from, int64_t to) const;

  size_t NodeCount() const { return adj_.size(); }
  size_t EdgeCount() const { return edge_count_; }

  /// True iff the graph contains a directed cycle (self-loops count).
  bool HasCycle() const;

  /// A cycle as a node sequence (first == last), if one exists.
  std::optional<std::vector<int64_t>> FindCycle() const;

  /// Topological order; nullopt when cyclic.
  std::optional<std::vector<int64_t>> TopologicalOrder() const;

  const std::unordered_set<int64_t>& Successors(int64_t node) const;

 private:
  std::unordered_map<int64_t, std::unordered_set<int64_t>> adj_;
  size_t edge_count_ = 0;
};

}  // namespace mdbs::sched

#endif  // MDBS_SCHED_GRAPH_H_
