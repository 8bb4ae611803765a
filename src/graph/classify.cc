#include "src/graph/classify.h"

#include <algorithm>
#include <cstdint>

namespace phom {

const char* ToString(GraphClass c) {
  switch (c) {
    case GraphClass::kOneWayPath: return "1WP";
    case GraphClass::kTwoWayPath: return "2WP";
    case GraphClass::kDownwardTree: return "DWT";
    case GraphClass::kPolytree: return "PT";
    case GraphClass::kConnected: return "Connected";
    case GraphClass::kGeneral: return "General";
  }
  return "?";
}

namespace {

constexpr uint32_t kNoComponent = UINT32_MAX;

/// Numbers the connected components of the underlying undirected graph by
/// smallest vertex, writing each vertex's component to `comp`; returns the
/// number of components.
uint32_t LabelComponents(const DiGraph& g, std::vector<uint32_t>* comp) {
  comp->assign(g.num_vertices(), kNoComponent);
  std::vector<VertexId> stack;
  uint32_t count = 0;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if ((*comp)[start] != kNoComponent) continue;
    auto visit = [&](VertexId w) {
      if ((*comp)[w] == kNoComponent) {
        (*comp)[w] = count;
        stack.push_back(w);
      }
    };
    visit(start);
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      for (EdgeId e : g.OutEdges(v)) visit(g.edge(e).dst);
      for (EdgeId e : g.InEdges(v)) visit(g.edge(e).src);
    }
    ++count;
  }
  return count;
}

/// The per-component counts that decide every class (classify.h).
struct ComponentShape {
  size_t vertices = 0;
  size_t edges = 0;  ///< Σ out-degree
  size_t max_in = 0;
  size_t max_out = 0;
  size_t max_degree = 0;  ///< undirected
};

}  // namespace

std::vector<std::vector<VertexId>> ConnectedComponents(const DiGraph& g) {
  std::vector<uint32_t> comp;
  std::vector<std::vector<VertexId>> out(LabelComponents(g, &comp));
  for (VertexId v = 0; v < g.num_vertices(); ++v) out[comp[v]].push_back(v);
  return out;
}

bool IsConnected(const DiGraph& g) {
  std::vector<uint32_t> comp;
  return LabelComponents(g, &comp) <= 1;
}

bool IsOneWayPath(const DiGraph& g) { return Classify(g).is_1wp; }
bool IsTwoWayPath(const DiGraph& g) { return Classify(g).is_2wp; }
bool IsDownwardTree(const DiGraph& g) { return Classify(g).is_dwt; }
bool IsPolytree(const DiGraph& g) { return Classify(g).is_pt; }

Classification Classify(const DiGraph& g) {
  std::vector<uint32_t> comp;
  std::vector<ComponentShape> shapes(LabelComponents(g, &comp));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ComponentShape& s = shapes[comp[v]];
    ++s.vertices;
    s.edges += g.OutDegree(v);
    s.max_in = std::max(s.max_in, g.InDegree(v));
    s.max_out = std::max(s.max_out, g.OutDegree(v));
    s.max_degree = std::max(s.max_degree, g.UndirectedDegree(v));
  }
  std::vector<Classification> parts(shapes.size());
  for (size_t c = 0; c < shapes.size(); ++c) {
    const ComponentShape& s = shapes[c];
    // Connected with |E| = |V| - 1: the underlying multigraph is a tree.
    parts[c].is_pt = s.edges + 1 == s.vertices;
    parts[c].is_dwt = parts[c].is_pt && s.max_in <= 1;
    parts[c].is_2wp = parts[c].is_pt && s.max_degree <= 2;
    parts[c].is_1wp = parts[c].is_dwt && s.max_out <= 1;
  }
  return ClassifyUnion(parts);
}

Classification ClassifyUnion(const std::vector<Classification>& parts) {
  Classification out;
  out.num_components = parts.size();
  out.connected = parts.size() <= 1;
  out.all_1wp = out.all_2wp = out.all_dwt = out.all_pt = !parts.empty();
  for (const Classification& p : parts) {
    out.all_1wp = out.all_1wp && p.is_1wp;
    out.all_2wp = out.all_2wp && p.is_2wp;
    out.all_dwt = out.all_dwt && p.is_dwt;
    out.all_pt = out.all_pt && p.is_pt;
  }
  out.is_1wp = out.connected && out.all_1wp;
  out.is_2wp = out.connected && out.all_2wp;
  out.is_dwt = out.connected && out.all_dwt;
  out.is_pt = out.connected && out.all_pt;
  if (out.is_1wp) {
    out.finest = GraphClass::kOneWayPath;
  } else if (out.is_2wp) {
    out.finest = GraphClass::kTwoWayPath;
  } else if (out.is_dwt) {
    out.finest = GraphClass::kDownwardTree;
  } else if (out.is_pt) {
    out.finest = GraphClass::kPolytree;
  } else if (out.connected) {
    out.finest = GraphClass::kConnected;
  }
  return out;
}

std::string Classification::ToString() const {
  std::string s = "{finest=";
  s += phom::ToString(finest);
  s += connected ? ", connected" : ", disconnected";
  auto add = [&s](const char* name, bool v) {
    if (v) {
      s += ", ";
      s += name;
    }
  };
  add("u1wp", all_1wp);
  add("u2wp", all_2wp);
  add("udwt", all_dwt);
  add("upt", all_pt);
  s += "}";
  return s;
}

std::vector<VertexId> TwoWayPathOrder(const DiGraph& g) {
  PHOM_CHECK_MSG(IsTwoWayPath(g), "TwoWayPathOrder requires a 2WP");
  if (g.num_vertices() == 1) return {0};
  // Find an endpoint (undirected degree 1), then walk.
  VertexId start = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.UndirectedDegree(v) == 1) {
      start = v;
      break;
    }
  }
  std::vector<VertexId> order;
  order.reserve(g.num_vertices());
  std::vector<bool> seen(g.num_vertices(), false);
  VertexId v = start;
  seen[v] = true;
  order.push_back(v);
  while (order.size() < g.num_vertices()) {
    VertexId next = g.num_vertices();
    for (EdgeId e : g.OutEdges(v)) {
      if (!seen[g.edge(e).dst]) next = g.edge(e).dst;
    }
    for (EdgeId e : g.InEdges(v)) {
      if (!seen[g.edge(e).src]) next = g.edge(e).src;
    }
    PHOM_CHECK(next != g.num_vertices());
    seen[next] = true;
    order.push_back(next);
    v = next;
  }
  return order;
}

VertexId DownwardTreeRoot(const DiGraph& g) {
  PHOM_CHECK_MSG(IsDownwardTree(g), "DownwardTreeRoot requires a DWT");
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) == 0) return v;
  }
  PHOM_CHECK_MSG(false, "DWT without root");
  return 0;
}

std::vector<LabelId> OneWayPathLabels(const DiGraph& g) {
  PHOM_CHECK_MSG(IsOneWayPath(g), "OneWayPathLabels requires a 1WP");
  std::vector<LabelId> labels;
  labels.reserve(g.num_edges());
  VertexId v = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.InDegree(u) == 0) v = u;
  }
  while (g.OutDegree(v) == 1) {
    EdgeId e = g.OutEdges(v)[0];
    labels.push_back(g.edge(e).label);
    v = g.edge(e).dst;
  }
  PHOM_CHECK(labels.size() == g.num_edges());
  return labels;
}

}  // namespace phom
