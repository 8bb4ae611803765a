#include "src/automata/tree_automaton.h"

#include <algorithm>

#include "src/util/status.h"

namespace phom {

LongestRunAutomaton::LongestRunAutomaton(uint32_t m) : m_(m) {
  PHOM_CHECK_MSG(m >= 1, "use the trivial answer for m == 0");
}

uint32_t LongestRunAutomaton::LeafState(StepLabel label, bool present) const {
  if (!present || label == StepLabel::kEps) return Encode(0, 0, 0);
  if (label == StepLabel::kUp) return Encode(1, 0, 1);
  return Encode(0, 1, 1);  // kDown
}

bool LongestRunAutomaton::IsAccepting(uint32_t state) const {
  uint32_t i, j, k;
  Decode(state, &i, &j, &k);
  return k == m_;
}

uint32_t RunOnWorld(const BottomUpAutomaton& automaton,
                    const EncodedPolytree& tree,
                    const std::vector<bool>& present) {
  PHOM_CHECK(present.size() == tree.nodes.size());
  std::vector<uint32_t> state(tree.nodes.size(), 0);
  for (size_t id = 0; id < tree.nodes.size(); ++id) {
    const EncodedNode& node = tree.nodes[id];
    if (node.IsLeaf()) {
      state[id] = automaton.LeafState(node.label, present[id]);
    } else {
      state[id] = automaton.Transition(node.label, present[id],
                                       state[node.left], state[node.right]);
    }
  }
  return state[tree.root];
}

uint32_t LongestDirectedPath(const DiGraph& g) {
  // DFS-free longest path in a DAG via topological order; PHOM_CHECKs
  // acyclicity (our callers pass forests).
  size_t n = g.num_vertices();
  std::vector<uint32_t> indegree(n, 0);
  for (const Edge& e : g.edges()) ++indegree[e.dst];
  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (indegree[v] == 0) order.push_back(v);
  }
  std::vector<uint32_t> depth(n, 0);
  uint32_t best = 0;
  for (size_t head = 0; head < order.size(); ++head) {
    VertexId v = order[head];
    for (EdgeId e : g.OutEdges(v)) {
      VertexId w = g.edge(e).dst;
      depth[w] = std::max(depth[w], depth[v] + 1);
      best = std::max(best, depth[w]);
      if (--indegree[w] == 0) order.push_back(w);
    }
  }
  PHOM_CHECK_MSG(order.size() == n, "LongestDirectedPath requires a DAG");
  return best;
}

}  // namespace phom
