#include "src/core/algo_two_way_path.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/fallback.h"
#include "src/graph/builders.h"
#include "src/graph/classify.h"
#include "src/graph/generators.h"
#include "src/hom/arc_consistency.h"

namespace phom {
namespace {

TEST(Algo2wp, SingleEdgeQueryOnSingleEdgeInstance) {
  ProbGraph h(2);
  AddEdgeOrDie(&h, 0, 1, 0, Rational(1, 3));
  Rational p = *SolveConnectedOn2wpComponent(MakeOneWayPath(1), h);
  EXPECT_EQ(p, Rational(1, 3));
}

TEST(Algo2wp, PathQueryOnPathInstance) {
  // →→ on →→→ with probs 1/2 each: worlds containing 2 consecutive edges.
  ProbGraph h(4);
  for (int i = 0; i < 3; ++i) {
    AddEdgeOrDie(&h, i, i + 1, 0, Rational::Half());
  }
  Rational p = *SolveConnectedOn2wpComponent(MakeOneWayPath(2), h);
  // Pr(e0e1 or e1e2) = 1/4 + 1/4 - 1/8 = 3/8.
  EXPECT_EQ(p, Rational(3, 8));
}

TEST(Algo2wp, QueryLongerThanInstance) {
  ProbGraph h = ProbGraph::Certain(MakeOneWayPath(2));
  EXPECT_EQ(*SolveConnectedOn2wpComponent(MakeOneWayPath(3), h),
            Rational::Zero());
}

TEST(Algo2wp, OrientationSensitive) {
  // Query a->b<-c cannot match a one-way instance path of length 2... it can:
  // collapse c onto a. But ><> needs genuine two-wayness.
  ProbGraph oneway = ProbGraph::Certain(MakeOneWayPath(2));
  EXPECT_EQ(*SolveConnectedOn2wpComponent(MakeArrowPath("><"), oneway),
            Rational::One());
  EXPECT_EQ(*SolveConnectedOn2wpComponent(MakeArrowPath("><>"), oneway),
            Rational::One());
  // Query requiring a sink of in-degree 2 with distinct labels cannot
  // collapse: use labels.
  DiGraph q = MakeTwoWayPath({{0, true}, {1, false}});
  ProbGraph labeled_oneway = ProbGraph::Certain(MakeLabeledPath({0, 0}));
  EXPECT_EQ(*SolveConnectedOn2wpComponent(q, labeled_oneway),
            Rational::Zero());
}

TEST(Algo2wp, StarQueryCollapsesOntoOneEdge) {
  ProbGraph h(2);
  AddEdgeOrDie(&h, 0, 1, 0, Rational(2, 5));
  EXPECT_EQ(*SolveConnectedOn2wpComponent(MakeOutStar(5), h),
            Rational(2, 5));
}

TEST(Algo2wp, RejectsBadInputs) {
  ProbGraph star = ProbGraph::Certain(MakeOutStar(3));
  EXPECT_FALSE(
      SolveConnectedOn2wpComponent(MakeOneWayPath(1), star).ok());
  ProbGraph path = ProbGraph::Certain(MakeOneWayPath(3));
  DiGraph disconnected = DisjointUnion({MakeOneWayPath(1), MakeOneWayPath(1)});
  EXPECT_FALSE(SolveConnectedOn2wpComponent(disconnected, path).ok());
}

TEST(Algo2wp, LineageIsBetaAcyclic) {
  Rng rng(101);
  for (int trial = 0; trial < 40; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomTwoWayPath(&rng, rng.UniformInt(1, 10), 2), 3);
    DiGraph q = RandomTwoWayPath(&rng, rng.UniformInt(1, 4), 2);
    MonotoneDnf lineage(0);
    Result<Rational> p =
        SolveConnectedOn2wpComponent(q, h, nullptr, &lineage);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(lineage.IsBetaAcyclic()) << trial;
  }
}

TEST(Algo2wp, MatchesWorldEnumerationOnRandomInputs) {
  Rng rng(102);
  for (int trial = 0; trial < 150; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomTwoWayPath(&rng, rng.UniformInt(1, 8), 2), 2, 0.25);
    DiGraph q = trial % 3 == 0
                    ? RandomDownwardTree(&rng, rng.UniformInt(2, 5), 2)
                    : RandomTwoWayPath(&rng, rng.UniformInt(1, 5), 2);
    TwoWayPathStats stats;
    Result<Rational> fast = SolveConnectedOn2wpComponent(q, h, &stats);
    ASSERT_TRUE(fast.ok());
    Rational brute = *SolveByWorldEnumeration(q, h);
    EXPECT_EQ(*fast, brute) << "trial " << trial;
  }
}

TEST(Algo2wp, TwoPointerStats) {
  // The sweep should do O(L) homomorphism tests, not O(L^2).
  Rng rng(103);
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomTwoWayPath(&rng, 60, 1), 3);
  TwoWayPathStats stats;
  ASSERT_TRUE(SolveConnectedOn2wpComponent(MakeOneWayPath(3), h, &stats).ok());
  EXPECT_LE(stats.hom_tests, 2 * 60 + 2u);
}

// Reference for the incremental sweep: the restart sweep it replaced, one
// XPropertyHomomorphism call per window tried. ends[a] is the least b with
// query ⇝ instance restricted to order[a .. b]; stops at the first a
// without one.
std::vector<uint32_t> RestartSweepEnds(const DiGraph& query,
                                       const DiGraph& instance,
                                       const std::vector<VertexId>& order) {
  std::vector<uint32_t> ends;
  size_t b = 0;
  for (size_t a = 0; a < order.size(); ++a) {
    b = std::max(b, a);
    auto fits = [&](size_t right) {
      std::vector<VertexId> window(order.begin() + a,
                                   order.begin() + right + 1);
      return XPropertyHomomorphism(query, instance, order, window).has_hom;
    };
    while (b < order.size() && !fits(b)) ++b;
    if (b == order.size()) break;
    ends.push_back(static_cast<uint32_t>(b));
  }
  return ends;
}

// Runs the incremental sweep and the 2WP kernel on (query, h) and checks
// both against the restart sweep: the same window ends, the same interval
// lineage clause for clause, one AC fixpoint per component.
void ExpectSweepMatchesRestart(const DiGraph& query, const ProbGraph& h) {
  const DiGraph& g = h.graph();
  std::vector<VertexId> order = TwoWayPathOrder(g);
  std::vector<uint32_t> expected = RestartSweepEnds(query, g, order);
  EXPECT_EQ(XPropertyMinimalWindowEnds(query, g, order), expected);

  TwoWayPathStats stats;
  MonotoneDnf lineage(0);
  ASSERT_TRUE(
      SolveConnectedOn2wpComponentT<double>(query, h, &stats, &lineage).ok());
  EXPECT_EQ(stats.hom_tests, 1u);
  EXPECT_EQ(stats.minimal_intervals, expected.size());
  ASSERT_EQ(lineage.num_clauses(), expected.size());
  for (uint32_t a = 0; a < expected.size(); ++a) {
    std::vector<uint32_t> clause;
    for (uint32_t k = a; k < expected[a]; ++k) {
      std::optional<EdgeId> e = g.FindEdge(order[k], order[k + 1]);
      if (!e.has_value()) e = g.FindEdge(order[k + 1], order[k]);
      clause.push_back(*e);
    }
    std::sort(clause.begin(), clause.end());
    EXPECT_EQ(lineage.clauses()[a], clause) << "window " << a;
  }
}

TEST(Algo2wp, IncrementalSweepMatchesRestartSweep) {
  Rng rng(104);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t labels = rng.UniformInt(1, 3);
    const size_t length = rng.UniformInt(1, 40);
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomTwoWayPath(&rng, length, labels), 3, 0.25);
    std::vector<LabelId> star_labels(rng.UniformInt(1, 4));
    for (LabelId& l : star_labels) l = rng.UniformInt(0, labels - 1);
    const DiGraph queries[] = {
        RandomTwoWayPath(&rng, rng.UniformInt(1, 6), labels),
        RandomDownwardTree(&rng, rng.UniformInt(2, 6), labels),
        MakeDownwardTree(std::vector<VertexId>(star_labels.size(), 0),
                         star_labels),
        RandomOneWayPath(&rng, length + rng.UniformInt(1, 3), labels),
    };
    for (const DiGraph& q : queries) {
      SCOPED_TRACE(testing::Message() << "trial " << trial);
      ExpectSweepMatchesRestart(q, h);
    }
  }
}

TEST(Algo2wp, IncrementalSweepEdgeCases) {
  // Single-edge instance: the one window, and nothing for a longer query.
  ProbGraph edge(2);
  AddEdgeOrDie(&edge, 0, 1, 0, Rational(1, 3));
  ExpectSweepMatchesRestart(MakeOneWayPath(1), edge);
  ExpectSweepMatchesRestart(MakeOutStar(3), edge);
  ExpectSweepMatchesRestart(MakeOneWayPath(2), edge);
  EXPECT_EQ(XPropertyMinimalWindowEnds(MakeOneWayPath(1), edge.graph(),
                                       TwoWayPathOrder(edge.graph())),
            std::vector<uint32_t>{1});

  // Empty result after propagation: a 1WP longer than a 1WP instance.
  ProbGraph path = ProbGraph::Certain(MakeOneWayPath(5));
  ExpectSweepMatchesRestart(MakeOneWayPath(6), path);
  EXPECT_TRUE(XPropertyMinimalWindowEnds(MakeOneWayPath(6), path.graph(),
                                         TwoWayPathOrder(path.graph()))
                  .empty());

  // The first AC pass already empties a domain: a label the instance lacks.
  DiGraph foreign = MakeTwoWayPath({{0, true}, {2, false}});
  ExpectSweepMatchesRestart(foreign, path);
  EXPECT_EQ(*SolveConnectedOn2wpComponent(foreign, path), Rational::Zero());
}

}  // namespace
}  // namespace phom
