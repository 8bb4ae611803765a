#include "src/automata/binary_encoding.h"

#include <algorithm>

namespace phom {

std::vector<bool> EncodedPolytree::WorldToNodePresence(
    const std::vector<bool>& edge_kept) const {
  std::vector<bool> present(nodes.size(), true);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].source_edge != EncodedNode::kNoSourceEdge) {
      present[i] = edge_kept[nodes[i].source_edge];
    }
  }
  return present;
}

Result<EncodedPolytree> EncodePolytree(const ProbGraph& instance) {
  const DiGraph& g = instance.graph();
  size_t n = g.num_vertices();
  // A connected graph with |E| = |V| − 1 is a polytree (classify.h): the edge
  // count here and the BFS reaching every vertex below decide it, with no
  // Classify.
  if (g.num_edges() + 1 != n) {
    return Status::Invalid("EncodePolytree requires a polytree instance");
  }
  // Root the underlying tree at vertex 0; BFS to find parents. bfs_order is
  // the queue itself, so each vertex's children form the contiguous block
  // bfs_order[child_begin[v], child_end[v]).
  std::vector<int64_t> parent(n, -1);
  std::vector<EdgeId> parent_edge(n, 0);
  std::vector<uint32_t> child_begin(n, 0);
  std::vector<uint32_t> child_end(n, 0);
  std::vector<VertexId> bfs_order;
  bfs_order.reserve(n);
  std::vector<bool> seen(n, false);
  bfs_order.push_back(0);
  seen[0] = true;
  for (size_t head = 0; head < bfs_order.size(); ++head) {
    VertexId v = bfs_order[head];
    child_begin[v] = static_cast<uint32_t>(bfs_order.size());
    auto visit = [&](VertexId w, EdgeId e) {
      if (!seen[w]) {
        seen[w] = true;
        parent[w] = v;
        parent_edge[w] = e;
        bfs_order.push_back(w);
      }
    };
    for (EdgeId e : g.OutEdges(v)) visit(g.edge(e).dst, e);
    for (EdgeId e : g.InEdges(v)) visit(g.edge(e).src, e);
    child_end[v] = static_cast<uint32_t>(bfs_order.size());
  }
  if (bfs_order.size() != n) {
    return Status::Invalid("EncodePolytree requires a polytree instance");
  }

  EncodedPolytree out;
  // Upper bound on nodes: one per vertex (its parent edge / pseudo-root)
  // plus one ε node per extra sibling and per only-child padding.
  out.nodes.reserve(2 * n + 2);

  auto add_node = [&out](StepLabel label, Rational prob, EdgeId source,
                         int32_t left, int32_t right) -> int32_t {
    PHOM_CHECK((left < 0) == (right < 0));
    out.nodes.push_back(
        EncodedNode{left, right, label, std::move(prob), source});
    return static_cast<int32_t>(out.nodes.size() - 1);
  };

  // Binarize a list of already-encoded child node ids with an ε spine.
  auto binarize = [&](const std::vector<int32_t>& ids)
      -> std::pair<int32_t, int32_t> {
    if (ids.empty()) return {-1, -1};
    if (ids.size() == 1) {
      int32_t pad = add_node(StepLabel::kEps, Rational::One(),
                             EncodedNode::kNoSourceEdge, -1, -1);
      return {ids[0], pad};
    }
    // Right-leaning spine: (id0, (id1, (... (id_{k-2}, id_{k-1})))).
    int32_t spine = ids.back();
    for (size_t i = ids.size() - 1; i-- > 1;) {
      spine = add_node(StepLabel::kEps, Rational::One(),
                       EncodedNode::kNoSourceEdge, ids[i], spine);
    }
    return {ids[0], spine};
  };

  // Children before parents: process vertices in reverse BFS order.
  std::vector<int32_t> node_of_vertex(n, -1);
  std::vector<int32_t> child_ids;
  for (size_t idx = n; idx-- > 0;) {
    VertexId v = bfs_order[idx];
    child_ids.clear();
    for (uint32_t c = child_begin[v]; c < child_end[v]; ++c) {
      PHOM_CHECK(node_of_vertex[bfs_order[c]] >= 0);
      child_ids.push_back(node_of_vertex[bfs_order[c]]);
    }
    auto [left, right] = binarize(child_ids);
    if (parent[v] < 0) {
      node_of_vertex[v] = add_node(StepLabel::kEps, Rational::One(),
                                   EncodedNode::kNoSourceEdge, left, right);
      continue;
    }
    EdgeId e = parent_edge[v];
    // Edge directed v -> parent is an upward step; parent -> v downward.
    StepLabel label = g.edge(e).src == v ? StepLabel::kUp : StepLabel::kDown;
    node_of_vertex[v] = add_node(label, instance.prob(e), e, left, right);
  }
  out.root = node_of_vertex[0];
  return out;
}

}  // namespace phom
