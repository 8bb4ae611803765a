// Differential test of the one-pass classifier (classify.h) against a
// reference written here from the classes' textbook definitions: connected
// components by BFS, one extracted subgraph per component, the 1WP chain
// walk, and an explicit self-loop / anti-parallel-pair check.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "src/graph/classify.h"
#include "tests/test_util.h"

namespace phom {
namespace {

using test_util::RandomBlockDigraph;

std::vector<std::vector<VertexId>> RefComponents(const DiGraph& g) {
  std::vector<int> comp(g.num_vertices(), -1);
  std::vector<std::vector<VertexId>> out;
  for (VertexId start = 0; start < g.num_vertices(); ++start) {
    if (comp[start] >= 0) continue;
    const int id = static_cast<int>(out.size());
    out.emplace_back();
    std::queue<VertexId> queue;
    queue.push(start);
    comp[start] = id;
    while (!queue.empty()) {
      VertexId v = queue.front();
      queue.pop();
      out[id].push_back(v);
      for (const Edge& e : g.edges()) {
        for (VertexId w : {e.src == v ? e.dst : v, e.dst == v ? e.src : v}) {
          if (comp[w] < 0) {
            comp[w] = id;
            queue.push(w);
          }
        }
      }
    }
    std::sort(out[id].begin(), out[id].end());
  }
  return out;
}

bool RefConnected(const DiGraph& g) { return RefComponents(g).size() <= 1; }

bool RefHasLoopOrAntiParallel(const DiGraph& g) {
  for (const Edge& e : g.edges()) {
    if (e.src == e.dst || g.FindEdge(e.dst, e.src).has_value()) return true;
  }
  return false;
}

bool RefOneWayPath(const DiGraph& g) {
  const size_t n = g.num_vertices();
  if (n == 0 || g.num_edges() != n - 1) return false;
  VertexId start = static_cast<VertexId>(n);
  for (VertexId v = 0; v < n; ++v) {
    if (g.OutDegree(v) > 1 || g.InDegree(v) > 1) return false;
    if (g.InDegree(v) == 0) {
      if (start != n) return false;
      start = v;
    }
  }
  if (start == n) return false;
  size_t visited = 1;
  for (VertexId v = start; g.OutDegree(v) == 1 && visited <= n; ++visited) {
    v = g.edge(g.OutEdges(v)[0]).dst;
  }
  return visited == n;
}

bool RefTree(const DiGraph& g) {
  return g.num_vertices() > 0 && g.num_edges() == g.num_vertices() - 1 &&
         RefConnected(g);
}

bool RefTwoWayPath(const DiGraph& g) {
  if (!RefTree(g) || RefHasLoopOrAntiParallel(g)) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.UndirectedDegree(v) > 2) return false;
  }
  return true;
}

bool RefDownwardTree(const DiGraph& g) {
  if (!RefTree(g)) return false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) > 1) return false;
  }
  return true;
}

Classification RefClassify(const DiGraph& g) {
  Classification out;
  std::vector<std::vector<VertexId>> comps = RefComponents(g);
  out.num_components = comps.size();
  out.connected = comps.size() <= 1;
  if (out.connected) {
    out.is_1wp = out.all_1wp = RefOneWayPath(g);
    out.is_2wp = out.all_2wp = RefTwoWayPath(g);
    out.is_dwt = out.all_dwt = RefDownwardTree(g);
    out.is_pt = out.all_pt = RefTree(g);
  } else {
    out.all_1wp = out.all_2wp = out.all_dwt = out.all_pt = true;
    for (const std::vector<VertexId>& vs : comps) {
      std::vector<VertexId> local(g.num_vertices(), 0);
      for (VertexId i = 0; i < vs.size(); ++i) local[vs[i]] = i;
      DiGraph sub(vs.size());
      for (const Edge& e : g.edges()) {
        if (std::binary_search(vs.begin(), vs.end(), e.src)) {
          AddEdgeOrDie(&sub, local[e.src], local[e.dst], e.label);
        }
      }
      out.all_1wp = out.all_1wp && RefOneWayPath(sub);
      out.all_2wp = out.all_2wp && RefTwoWayPath(sub);
      out.all_dwt = out.all_dwt && RefDownwardTree(sub);
      out.all_pt = out.all_pt && RefTree(sub);
    }
  }
  if (out.is_1wp) {
    out.finest = GraphClass::kOneWayPath;
  } else if (out.is_2wp) {
    out.finest = GraphClass::kTwoWayPath;
  } else if (out.is_dwt) {
    out.finest = GraphClass::kDownwardTree;
  } else if (out.is_pt) {
    out.finest = GraphClass::kPolytree;
  } else {
    out.finest = out.connected ? GraphClass::kConnected : GraphClass::kGeneral;
  }
  return out;
}

void ExpectSameClassification(const Classification& got,
                              const Classification& want) {
  EXPECT_EQ(got, want) << got.ToString() << " vs " << want.ToString();
}

TEST(ClassifyDiff, MatchesReferenceOnRandomDigraphs) {
  Rng rng(20180517);
  size_t loops = 0, anti_parallel = 0, disconnected = 0;
  std::vector<size_t> finest(6, 0);
  for (int i = 0; i < 2000; ++i) {
    SCOPED_TRACE(i);
    DiGraph g = RandomBlockDigraph(&rng, 12, 2);
    for (const Edge& e : g.edges()) {
      loops += e.src == e.dst;
      anti_parallel += e.src < e.dst && g.FindEdge(e.dst, e.src).has_value();
    }
    const Classification want = RefClassify(g);
    disconnected += !want.connected;
    ++finest[static_cast<size_t>(want.finest)];
    ExpectSameClassification(Classify(g), want);
    EXPECT_EQ(IsOneWayPath(g), RefOneWayPath(g));
    EXPECT_EQ(IsTwoWayPath(g), RefTwoWayPath(g));
    EXPECT_EQ(IsDownwardTree(g), RefDownwardTree(g));
    EXPECT_EQ(IsPolytree(g), RefTree(g));
    EXPECT_EQ(IsConnected(g), RefConnected(g));
    EXPECT_EQ(ConnectedComponents(g), RefComponents(g));
  }
  // The corpus reaches every case the one-pass argument has to cover.
  EXPECT_GT(loops, 50u);
  EXPECT_GT(anti_parallel, 50u);
  EXPECT_GT(disconnected, 200u);
  for (size_t c = 0; c < finest.size(); ++c) {
    EXPECT_GT(finest[c], 20u) << ToString(static_cast<GraphClass>(c));
  }
}

TEST(ClassifyDiff, UnionOfComponentClassesIsTheWholeGraphClass) {
  Rng rng(4242);
  for (int i = 0; i < 500; ++i) {
    SCOPED_TRACE(i);
    DiGraph g = RandomBlockDigraph(&rng, 12, 2);
    std::vector<Classification> parts;
    for (const std::vector<VertexId>& vs : RefComponents(g)) {
      std::vector<VertexId> local(g.num_vertices(), 0);
      for (VertexId k = 0; k < vs.size(); ++k) local[vs[k]] = k;
      DiGraph sub(vs.size());
      for (const Edge& e : g.edges()) {
        if (std::binary_search(vs.begin(), vs.end(), e.src)) {
          AddEdgeOrDie(&sub, local[e.src], local[e.dst], e.label);
        }
      }
      parts.push_back(Classify(sub));
    }
    ExpectSameClassification(ClassifyUnion(parts), RefClassify(g));
  }
}

TEST(ClassifyDiff, EmptyGraphIsConnectedButInNoTreeClass) {
  const Classification c = Classify(DiGraph(0));
  ExpectSameClassification(c, RefClassify(DiGraph(0)));
  EXPECT_TRUE(c.connected);
  EXPECT_EQ(c.num_components, 0u);
  EXPECT_FALSE(c.all_pt);
  EXPECT_EQ(c.finest, GraphClass::kConnected);
}

}  // namespace
}  // namespace phom
