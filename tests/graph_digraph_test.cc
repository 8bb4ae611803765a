#include "src/graph/digraph.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/graph/alphabet.h"
#include "src/graph/prob_graph.h"

namespace phom {
namespace {

TEST(DiGraph, AddVerticesAndEdges) {
  DiGraph g(3);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EdgeId e = AddEdgeOrDie(&g, 0, 1, 5);
  EXPECT_EQ(g.edge(e).src, 0u);
  EXPECT_EQ(g.edge(e).dst, 1u);
  EXPECT_EQ(g.edge(e).label, 5u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(1), 1u);
  EXPECT_EQ(g.UndirectedDegree(0), 1u);
  VertexId v = g.AddVertex();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(g.num_vertices(), 4u);
}

TEST(DiGraph, RejectsMultiEdgesAndBadEndpoints) {
  DiGraph g(2);
  AddEdgeOrDie(&g, 0, 1, 0);
  EXPECT_FALSE(g.AddEdge(0, 1, 1).ok());  // same ordered pair, even new label
  EXPECT_TRUE(g.AddEdge(1, 0, 0).ok());   // reverse pair is fine
  EXPECT_FALSE(g.AddEdge(0, 2, 0).ok());
  EXPECT_FALSE(g.AddEdge(5, 0, 0).ok());
}

TEST(DiGraph, AllowsSelfLoops) {
  DiGraph g(1);
  EXPECT_TRUE(g.AddEdge(0, 0, 0).ok());
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(0), 1u);
}

TEST(DiGraph, FindAndHasEdge) {
  DiGraph g(3);
  AddEdgeOrDie(&g, 0, 1, 2);
  ASSERT_TRUE(g.FindEdge(0, 1).has_value());
  EXPECT_FALSE(g.FindEdge(1, 0).has_value());
  EXPECT_TRUE(g.HasEdge(0, 1, 2));
  EXPECT_FALSE(g.HasEdge(0, 1, 3));
  EXPECT_FALSE(g.HasEdge(0, 2, 2));
}

// FindEdge scans the shorter of out(src) and in(dst): on a star one side is
// the hub's 1,000-long list and the other a leaf's, whichever is shorter.
TEST(DiGraph, FindEdgeOnStarsOfAThousandLeaves) {
  constexpr VertexId kLeaves = 1000;
  DiGraph out_star(kLeaves + 1);  // 0 -> leaf
  DiGraph in_star(kLeaves + 1);   // leaf -> 0
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    EXPECT_EQ(AddEdgeOrDie(&out_star, 0, leaf, leaf % 3), leaf - 1);
    EXPECT_EQ(AddEdgeOrDie(&in_star, leaf, 0, leaf % 3), leaf - 1);
  }
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    EXPECT_EQ(out_star.FindEdge(0, leaf), std::optional<EdgeId>(leaf - 1));
    EXPECT_EQ(in_star.FindEdge(leaf, 0), std::optional<EdgeId>(leaf - 1));
    EXPECT_FALSE(out_star.FindEdge(leaf, 0).has_value());
    EXPECT_FALSE(in_star.FindEdge(0, leaf).has_value());
    EXPECT_TRUE(out_star.HasEdge(0, leaf, leaf % 3));
    EXPECT_FALSE(in_star.HasEdge(leaf, 0, (leaf + 1) % 3));
  }
  // Leaf to leaf: both lists are empty or the wrong ones.
  EXPECT_FALSE(out_star.FindEdge(1, 2).has_value());
  EXPECT_FALSE(in_star.FindEdge(1, 2).has_value());
  // A second edge into the hub from a leaf of the out-star: in(0) is now
  // shorter than out(0), and both pairs resolve.
  AddEdgeOrDie(&out_star, 7, 0, 9);
  EXPECT_EQ(out_star.FindEdge(7, 0), std::optional<EdgeId>(kLeaves));
  EXPECT_EQ(out_star.FindEdge(0, 7), std::optional<EdgeId>(6));
  EXPECT_FALSE(out_star.FindEdge(0, 0).has_value());
}

TEST(DiGraph, FindEdgeOnAntiParallelPairsAndSelfLoops) {
  DiGraph g(3);
  const EdgeId forward = AddEdgeOrDie(&g, 0, 1, 4);
  const EdgeId backward = AddEdgeOrDie(&g, 1, 0, 5);
  const EdgeId loop = AddEdgeOrDie(&g, 1, 1, 6);
  const EdgeId other_loop = AddEdgeOrDie(&g, 2, 2, 4);
  EXPECT_EQ(g.FindEdge(0, 1), std::optional<EdgeId>(forward));
  EXPECT_EQ(g.FindEdge(1, 0), std::optional<EdgeId>(backward));
  EXPECT_EQ(g.FindEdge(1, 1), std::optional<EdgeId>(loop));
  EXPECT_EQ(g.FindEdge(2, 2), std::optional<EdgeId>(other_loop));
  EXPECT_FALSE(g.FindEdge(0, 0).has_value());
  EXPECT_TRUE(g.HasEdge(0, 1, 4));
  EXPECT_FALSE(g.HasEdge(0, 1, 5));
  EXPECT_TRUE(g.HasEdge(1, 0, 5));
  EXPECT_TRUE(g.HasEdge(1, 1, 6));
  EXPECT_FALSE(g.HasEdge(2, 2, 6));
}

TEST(DiGraph, FindEdgeOnAbsentPairs) {
  DiGraph g(4);
  AddEdgeOrDie(&g, 0, 1, 0);
  AddEdgeOrDie(&g, 1, 2, 0);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) {
      const bool present = (u == 0 && v == 1) || (u == 1 && v == 2);
      EXPECT_EQ(g.FindEdge(u, v).has_value(), present) << u << " " << v;
      EXPECT_EQ(g.HasEdge(u, v, 0), present) << u << " " << v;
    }
  }
  // Dense bipartite graphs with holes, 3 sources x 5 sinks and 5 x 3: each
  // lookup scans an in-list holding edges from other sources, or an
  // out-list holding edges to other sinks, and must return exactly the
  // pair's edge or none.
  for (VertexId sources : {3u, 5u}) {
    DiGraph dense(8);
    std::map<std::pair<VertexId, VertexId>, EdgeId> present;
    for (VertexId a = 0; a < sources; ++a) {
      for (VertexId b = sources; b < 8; ++b) {
        if ((a + b) % 4 == 0) continue;
        present[{a, b}] = AddEdgeOrDie(&dense, a, b, a);
      }
    }
    for (VertexId a = 0; a < 8; ++a) {
      for (VertexId b = 0; b < 8; ++b) {
        auto it = present.find({a, b});
        EXPECT_EQ(dense.FindEdge(a, b),
                  it == present.end() ? std::nullopt
                                      : std::optional<EdgeId>(it->second))
            << sources << ": " << a << " " << b;
      }
    }
  }
  // Out-of-range endpoints name no edge.
  EXPECT_FALSE(g.FindEdge(0, 4).has_value());
  EXPECT_FALSE(g.FindEdge(9, 1).has_value());
  EXPECT_FALSE(DiGraph(0).FindEdge(0, 0).has_value());
}

TEST(DiGraph, MultiEdgeRejectionKeepsItsStatus) {
  DiGraph g(1001);
  for (VertexId leaf = 1; leaf <= 1000; ++leaf) AddEdgeOrDie(&g, 0, leaf, 0);
  AddEdgeOrDie(&g, 5, 5, 0);
  const std::pair<std::pair<VertexId, VertexId>, std::string> kRejected[] = {
      {{0, 1}, "Invalid: multi-edge on ordered pair (0, 1)"},
      {{0, 1000}, "Invalid: multi-edge on ordered pair (0, 1000)"},
      {{0, 500}, "Invalid: multi-edge on ordered pair (0, 500)"},
      {{5, 5}, "Invalid: multi-edge on ordered pair (5, 5)"}};
  for (const auto& [pair, text] : kRejected) {
    const Result<EdgeId> again = g.AddEdge(pair.first, pair.second, 1);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().ToString(), text);
  }
  EXPECT_EQ(g.num_edges(), 1001u);
  EXPECT_EQ(g.AddEdge(1000, 0, 0).ValueOrDie(), 1001u);
}

TEST(DiGraph, UsedLabels) {
  DiGraph g(4);
  AddEdgeOrDie(&g, 0, 1, 7);
  AddEdgeOrDie(&g, 1, 2, 3);
  AddEdgeOrDie(&g, 2, 3, 7);
  EXPECT_EQ(g.UsedLabels(), (std::vector<LabelId>{3, 7}));
  EXPECT_FALSE(g.UsesSingleLabel());
  DiGraph single(2);
  AddEdgeOrDie(&single, 0, 1, 9);
  EXPECT_TRUE(single.UsesSingleLabel());
  EXPECT_TRUE(DiGraph(3).UsesSingleLabel());
}

TEST(Alphabet, InternAndLookup) {
  Alphabet a;
  LabelId r = a.Intern("R");
  LabelId s = a.Intern("S");
  EXPECT_NE(r, s);
  EXPECT_EQ(a.Intern("R"), r);
  EXPECT_EQ(a.Name(r), "R");
  EXPECT_EQ(*a.Find("S"), s);
  EXPECT_FALSE(a.Find("T").has_value());
  EXPECT_EQ(a.size(), 2u);
}

TEST(ProbGraph, ProbabilityBookkeeping) {
  ProbGraph g(3);
  AddEdgeOrDie(&g, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&g, 1, 2, 0, Rational::One());
  EXPECT_EQ(g.prob(0), Rational::Half());
  EXPECT_EQ(g.NumUncertainEdges(), 1u);
  EXPECT_FALSE(g.AddEdge(0, 2, 0, Rational(3, 2)).ok());
}

TEST(ProbGraph, WorldProbability) {
  ProbGraph g(3);
  AddEdgeOrDie(&g, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&g, 1, 2, 0, Rational(1, 4));
  EXPECT_EQ(g.WorldProbability({true, true}), Rational(1, 8));
  EXPECT_EQ(g.WorldProbability({true, false}), Rational(3, 8));
  EXPECT_EQ(g.WorldProbability({false, false}), Rational(3, 8));
  // All four worlds sum to 1.
  Rational total = g.WorldProbability({true, true}) +
                   g.WorldProbability({true, false}) +
                   g.WorldProbability({false, true}) +
                   g.WorldProbability({false, false});
  EXPECT_EQ(total, Rational::One());
}

TEST(ProbGraph, RestrictToLabelsKeepsVertices) {
  ProbGraph g(4);
  AddEdgeOrDie(&g, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&g, 1, 2, 1, Rational::Half());
  AddEdgeOrDie(&g, 2, 3, 0, Rational(1, 4));
  ProbGraph restricted = g.RestrictToLabels({0});
  EXPECT_EQ(restricted.num_vertices(), 4u);
  EXPECT_EQ(restricted.num_edges(), 2u);
  EXPECT_EQ(restricted.prob(1), Rational(1, 4));
}

TEST(SplitComponents, MapsBackToOriginalIds) {
  ProbGraph g(5);
  AddEdgeOrDie(&g, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&g, 3, 2, 1, Rational(1, 4));
  // vertex 4 isolated.
  std::vector<ComponentView> comps = SplitComponents(g);
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0].vertex_map, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(comps[1].vertex_map, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(comps[2].vertex_map, (std::vector<VertexId>{4}));
  EXPECT_EQ(comps[0].graph.num_edges(), 1u);
  EXPECT_EQ(comps[1].graph.num_edges(), 1u);
  EXPECT_EQ(comps[1].graph.prob(0), Rational(1, 4));
  EXPECT_EQ(comps[1].edge_map, (std::vector<EdgeId>{1}));
  // Edge direction preserved: 3 -> 2 maps to local 1 -> 0.
  EXPECT_EQ(comps[1].graph.graph().edge(0).src, 1u);
  EXPECT_EQ(comps[1].graph.graph().edge(0).dst, 0u);
}

}  // namespace
}  // namespace phom
