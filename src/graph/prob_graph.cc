#include "src/graph/prob_graph.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "src/util/fnv.h"

namespace phom {

ProbGraph::ProbGraph(DiGraph g, std::vector<Rational> probs)
    : graph_(std::move(g)), probs_(std::move(probs)) {
  PHOM_CHECK_MSG(graph_.num_edges() == probs_.size(),
                 "probability vector does not align with edges");
  for (const Rational& p : probs_) {
    PHOM_CHECK_MSG(p.IsProbability(), "edge probability outside [0, 1]");
  }
}

ProbGraph ProbGraph::Certain(DiGraph g) {
  std::vector<Rational> probs(g.num_edges(), Rational::One());
  return ProbGraph(std::move(g), std::move(probs));
}

Result<EdgeId> ProbGraph::AddEdge(VertexId src, VertexId dst, LabelId label,
                                  Rational prob) {
  if (!prob.IsProbability()) {
    return Status::Invalid("edge probability outside [0, 1]: " +
                           prob.ToString());
  }
  PHOM_ASSIGN_OR_RETURN(EdgeId id, graph_.AddEdge(src, dst, label));
  probs_.push_back(std::move(prob));
  return id;
}

size_t ProbGraph::NumUncertainEdges() const {
  size_t count = 0;
  for (const Rational& p : probs_) {
    if (!p.is_zero() && !p.is_one()) ++count;
  }
  return count;
}

Rational ProbGraph::WorldProbability(const std::vector<bool>& keep) const {
  PHOM_CHECK(keep.size() == probs_.size());
  Rational out = Rational::One();
  for (size_t e = 0; e < probs_.size(); ++e) {
    out *= keep[e] ? probs_[e] : probs_[e].Complement();
  }
  return out;
}

ProbGraph ProbGraph::RestrictToLabels(
    const std::vector<LabelId>& labels) const {
  ProbGraph out(num_vertices());
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const Edge& edge = graph_.edge(e);
    if (std::binary_search(labels.begin(), labels.end(), edge.label)) {
      AddEdgeOrDie(&out, edge.src, edge.dst, edge.label, probs_[e]);
    }
  }
  return out;
}

namespace {

uint64_t HashString(uint64_t h, const std::string& s) {
  h = FnvHashU64(h, s.size());
  return FnvHashBytes(h, s.data(), s.size());
}

}  // namespace

uint64_t ProbGraph::Fingerprint() const {
  uint64_t h = kFnvOffsetBasis;
  h = FnvHashU64(h, num_vertices());
  h = FnvHashU64(h, num_edges());
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const Edge& edge = graph_.edge(e);
    h = FnvHashU64(h, edge.src);
    h = FnvHashU64(h, edge.dst);
    h = FnvHashU64(h, edge.label);
    // Rationals are normalized (gcd-reduced, positive denominator), so the
    // decimal num/den rendering is a canonical form of the exact value.
    h = HashString(h, probs_[e].num().ToString());
    h = HashString(h, probs_[e].den().ToString());
  }
  return h;
}

EdgeId AddEdgeOrDie(ProbGraph* g, VertexId src, VertexId dst, LabelId label,
                    const Rational& prob) {
  Result<EdgeId> result = g->AddEdge(src, dst, label, prob);
  PHOM_CHECK_MSG(result.ok(), result.status().ToString());
  return result.ValueOrDie();
}

namespace {

/// Splits the subgraph of `pg` made of the edges whose label is in `labels`
/// (all edges when null; all vertices kept) into components, numbering the
/// kept edges in order as the restricted graph would.
std::vector<ComponentView> SplitComponentsImpl(
    const ProbGraph& pg, const std::vector<LabelId>* labels) {
  const DiGraph& g = pg.graph();
  const size_t n = g.num_vertices();
  std::vector<EdgeId> kept;
  kept.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (labels == nullptr || std::binary_search(labels->begin(), labels->end(),
                                                g.edge(e).label)) {
      kept.push_back(e);
    }
  }

  // Union-find over the kept edges (path halving).
  std::vector<VertexId> parent(n);
  for (VertexId v = 0; v < n; ++v) parent[v] = v;
  auto find = [&parent](VertexId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (EdgeId e : kept) {
    VertexId a = find(g.edge(e).src);
    VertexId b = find(g.edge(e).dst);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }

  // Components numbered by smallest vertex, vertices ascending within each.
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> comp_of(n, kNone);
  std::vector<uint32_t> local_id(n, 0);
  std::vector<ComponentView> views;
  for (VertexId v = 0; v < n; ++v) {
    VertexId root = find(v);
    if (comp_of[root] == kNone) {
      comp_of[root] = static_cast<uint32_t>(views.size());
      views.emplace_back();
    }
    comp_of[v] = comp_of[root];
    std::vector<VertexId>& members = views[comp_of[v]].vertex_map;
    local_id[v] = static_cast<uint32_t>(members.size());
    members.push_back(v);
  }
  for (ComponentView& view : views) {
    view.graph = ProbGraph(view.vertex_map.size());
  }
  for (EdgeId r = 0; r < kept.size(); ++r) {
    const Edge& edge = g.edge(kept[r]);
    ComponentView& view = views[comp_of[edge.src]];
    AddEdgeOrDie(&view.graph, local_id[edge.src], local_id[edge.dst],
                 edge.label, pg.prob(kept[r]));
    view.edge_map.push_back(r);
  }
  return views;
}

}  // namespace

std::vector<ComponentView> SplitComponents(const ProbGraph& g) {
  return SplitComponentsImpl(g, nullptr);
}

std::vector<ComponentView> SplitComponents(const ProbGraph& g,
                                           const std::vector<LabelId>& labels) {
  return SplitComponentsImpl(g, &labels);
}

ProbGraph MergeComponents(const std::vector<ComponentView>& views) {
  size_t num_vertices = 0;
  size_t num_edges = 0;
  for (const ComponentView& view : views) {
    num_vertices += view.vertex_map.size();
    num_edges += view.edge_map.size();
  }
  // (view, component edge) of every original edge.
  std::vector<std::pair<uint32_t, EdgeId>> source(num_edges);
  for (uint32_t c = 0; c < views.size(); ++c) {
    for (EdgeId k = 0; k < views[c].edge_map.size(); ++k) {
      source[views[c].edge_map[k]] = {c, k};
    }
  }
  ProbGraph out(num_vertices);
  for (const auto& [c, k] : source) {
    const ComponentView& view = views[c];
    const Edge& edge = view.graph.graph().edge(k);
    AddEdgeOrDie(&out, view.vertex_map[edge.src], view.vertex_map[edge.dst],
                 edge.label, view.graph.prob(k));
  }
  return out;
}

}  // namespace phom
