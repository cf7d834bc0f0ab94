#include "sched/graph.h"

#include <algorithm>
#include <functional>

namespace mdbs::sched {

namespace {
const std::unordered_set<int64_t>& EmptySet() {
  static const std::unordered_set<int64_t>& empty =
      *new std::unordered_set<int64_t>();
  return empty;
}
}  // namespace

void UndirectedMultigraph::AddNode(int64_t node) {
  if (incidence_.try_emplace(node).second) nodes_.push_back(node);
}

size_t UndirectedMultigraph::AddEdge(int64_t u, int64_t v, int64_t label) {
  AddNode(u);
  AddNode(v);
  size_t index = edges_.size();
  edges_.push_back(LabeledEdge{u, v, label});
  incidence_[u].push_back(index);
  incidence_[v].push_back(index);
  return index;
}

std::vector<int64_t> UndirectedMultigraph::Nodes() const { return nodes_; }

std::optional<std::vector<size_t>> UndirectedMultigraph::FindCycleThrough(
    size_t e1, size_t e2) const {
  if (e1 == e2 || e1 >= edges_.size() || e2 >= edges_.size()) {
    return std::nullopt;
  }
  const LabeledEdge& first = edges_[e1];
  // Parallel edges close a 2-cycle immediately.
  const LabeledEdge& second = edges_[e2];
  if ((first.u == second.u && first.v == second.v) ||
      (first.u == second.v && first.v == second.u)) {
    return std::vector<size_t>{e1, e2};
  }
  // Orient e1 as start -> cur and search a vertex-simple path back to
  // `start` that traverses e2. Exhaustive backtracking with a step budget;
  // the analyzer's graphs have at most a few dozen nodes.
  int64_t steps_left = 1 << 20;
  std::vector<size_t> path{e1};
  std::unordered_set<int64_t> visited;
  std::function<bool(int64_t, int64_t, bool)> dfs =
      [&](int64_t start, int64_t cur, bool used_e2) -> bool {
    if (--steps_left <= 0) return false;
    if (cur == start) return used_e2;
    visited.insert(cur);
    for (size_t edge_index : incidence_.at(cur)) {
      if (edge_index == e1) continue;
      const LabeledEdge& edge = edges_[edge_index];
      int64_t other = edge.u == cur ? edge.v : edge.u;
      if (other != start && visited.contains(other)) continue;
      path.push_back(edge_index);
      if (dfs(start, other, used_e2 || edge_index == e2)) return true;
      path.pop_back();
    }
    visited.erase(cur);
    return false;
  };
  if (dfs(first.u, first.v, false)) return path;
  return std::nullopt;
}

void DirectedGraph::AddNode(int64_t node) { adj_.try_emplace(node); }

void DirectedGraph::AddEdge(int64_t from, int64_t to) {
  AddNode(from);
  AddNode(to);
  if (adj_[from].insert(to).second) ++edge_count_;
}

bool DirectedGraph::HasEdge(int64_t from, int64_t to) const {
  auto it = adj_.find(from);
  return it != adj_.end() && it->second.contains(to);
}

const std::unordered_set<int64_t>& DirectedGraph::Successors(
    int64_t node) const {
  auto it = adj_.find(node);
  return it == adj_.end() ? EmptySet() : it->second;
}

bool DirectedGraph::HasCycle() const { return FindCycle().has_value(); }

std::optional<std::vector<int64_t>> DirectedGraph::FindCycle() const {
  // Iterative three-color DFS keeping the current path for cycle extraction.
  enum class Color { kWhite, kGray, kBlack };
  std::unordered_map<int64_t, Color> color;
  for (const auto& [node, _] : adj_) color[node] = Color::kWhite;

  for (const auto& [start, _] : adj_) {
    if (color[start] != Color::kWhite) continue;
    // Stack frames: (node, iterator position over successors).
    std::vector<std::pair<int64_t, std::vector<int64_t>>> stack;
    std::vector<int64_t> path;
    auto push = [&](int64_t node) {
      const auto& succ = Successors(node);
      stack.emplace_back(node,
                         std::vector<int64_t>(succ.begin(), succ.end()));
      path.push_back(node);
      color[node] = Color::kGray;
    };
    push(start);
    while (!stack.empty()) {
      auto& [node, succs] = stack.back();
      if (succs.empty()) {
        color[node] = Color::kBlack;
        stack.pop_back();
        path.pop_back();
        continue;
      }
      int64_t next = succs.back();
      succs.pop_back();
      if (color[next] == Color::kGray) {
        // Extract the cycle from the path.
        std::vector<int64_t> cycle;
        auto it = std::find(path.begin(), path.end(), next);
        cycle.assign(it, path.end());
        cycle.push_back(next);
        return cycle;
      }
      if (color[next] == Color::kWhite) push(next);
    }
  }
  return std::nullopt;
}

std::optional<std::vector<int64_t>> DirectedGraph::TopologicalOrder() const {
  std::unordered_map<int64_t, size_t> in_degree;
  for (const auto& [node, _] : adj_) in_degree.try_emplace(node, 0);
  for (const auto& [node, succs] : adj_) {
    for (int64_t succ : succs) ++in_degree[succ];
  }
  std::vector<int64_t> ready;
  for (const auto& [node, deg] : in_degree) {
    if (deg == 0) ready.push_back(node);
  }
  std::vector<int64_t> order;
  order.reserve(adj_.size());
  while (!ready.empty()) {
    int64_t node = ready.back();
    ready.pop_back();
    order.push_back(node);
    for (int64_t succ : Successors(node)) {
      if (--in_degree[succ] == 0) ready.push_back(succ);
    }
  }
  if (order.size() != adj_.size()) return std::nullopt;
  return order;
}

}  // namespace mdbs::sched
