#include "src/core/algo_polytree.h"

#include <gtest/gtest.h>

#include "src/core/algo_dwt.h"
#include "src/core/fallback.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"

namespace phom {
namespace {

TEST(AlgoPolytree, SingleEdge) {
  ProbGraph h(2);
  AddEdgeOrDie(&h, 0, 1, 0, Rational(1, 3));
  EXPECT_EQ(*SolvePathProbabilityOnPolytree(1, h), Rational(1, 3));
  EXPECT_EQ(*SolvePathProbabilityOnPolytree(2, h), Rational::Zero());
  EXPECT_EQ(*SolvePathProbabilityOnPolytree(0, h), Rational::One());
}

TEST(AlgoPolytree, TwoWayPathInstance) {
  // a -> b <- c: the longest directed path has length 1.
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 2, 1, 0, Rational::Half());
  EXPECT_EQ(*SolvePathProbabilityOnPolytree(1, h), Rational(3, 4));
  EXPECT_EQ(*SolvePathProbabilityOnPolytree(2, h), Rational::Zero());
}

TEST(AlgoPolytree, PathThroughSharedVertex) {
  // a -> b -> c with independent halves meeting at b.
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 0, Rational(1, 4));
  EXPECT_EQ(*SolvePathProbabilityOnPolytree(2, h), Rational(1, 8));
}

TEST(AlgoPolytree, MatchesWorldEnumerationOnRandomPolytrees) {
  Rng rng(121);
  for (int trial = 0; trial < 120; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomPolytree(&rng, rng.UniformInt(2, 10), 1), 2, 0.3);
    uint32_t m = static_cast<uint32_t>(rng.UniformInt(1, 4));
    Rational fast = *SolvePathProbabilityOnPolytree(m, h);
    Rational brute = *SolveByWorldEnumeration(MakeOneWayPath(m), h);
    EXPECT_EQ(fast, brute) << "trial " << trial;
  }
}

TEST(AlgoPolytree, AgreesWithDwtSolverOnDownwardTrees) {
  // DWT ⊆ PT: the automaton pipeline and the DWT DP must agree.
  Rng rng(122);
  for (int trial = 0; trial < 60; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomDownwardTree(&rng, rng.UniformInt(2, 12), 1, 0.5), 3);
    uint32_t m = static_cast<uint32_t>(rng.UniformInt(1, 4));
    std::vector<LabelId> pattern(m, 0);
    Rational automaton = *SolvePathProbabilityOnPolytree(m, h);
    Rational dp = *SolvePathOnDwtForest(pattern, h);
    EXPECT_EQ(automaton, dp) << "trial " << trial;
  }
}

TEST(AlgoPolytree, DwtQueryForestWrapper) {
  // ⊔DWT query (heights 1 and 2 -> m = 2) on a forest of two polytrees.
  DiGraph q = DisjointUnion({MakeOutStar(2), MakeDownwardTree({0, 1})});
  ProbGraph h(6);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 0, Rational::Half());
  AddEdgeOrDie(&h, 3, 4, 0, Rational::Half());
  AddEdgeOrDie(&h, 4, 5, 0, Rational::Half());
  PolytreeStats stats;
  Rational p = *SolveDwtQueryOnPolytreeForest(q, h, &stats);
  // Each component contains →→ with probability 1/4; combined by Lemma 3.7.
  EXPECT_EQ(p, Rational(1, 4).Complement()
                    .Pow(2)
                    .Complement());
  EXPECT_GT(stats.circuit_gates, 0u);
}

TEST(AlgoPolytree, RejectsNonDwtQuery) {
  DiGraph q = MakeArrowPath("><");
  ProbGraph h = ProbGraph::Certain(MakeOneWayPath(3));
  EXPECT_FALSE(SolveDwtQueryOnPolytreeForest(q, h).ok());
}

TEST(AlgoPolytree, StatsAreReported) {
  Rng rng(123);
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomPolytree(&rng, 40, 1), 3);
  PolytreeStats stats;
  ASSERT_TRUE(SolvePathProbabilityOnPolytree(3, h, &stats).ok());
  EXPECT_GT(stats.encoded_nodes, 40u);
  EXPECT_GT(stats.circuit_gates, 0u);
  EXPECT_GT(stats.state_pairs, 0u);
  EXPECT_GT(stats.max_states_per_node, 0u);
}

TEST(AlgoPolytree, LongestPathFittingThirtyTwoBitStateIds) {
  // (m + 1)^3 states: 1625^3 fits in uint32_t, 1626^3 does not.
  ProbGraph h(4);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 0, Rational(1, 3));
  AddEdgeOrDie(&h, 3, 1, 0, Rational(1, 4));
  Result<Rational> fits = SolvePathProbabilityOnPolytree(1624, h);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(*fits, Rational::Zero());
  Result<double> fits_double = SolvePathProbabilityOnPolytreeT<double>(
      1624, h, nullptr);
  ASSERT_TRUE(fits_double.ok()) << fits_double.status().ToString();
  EXPECT_EQ(*fits_double, 0.0);

  Result<Rational> wraps = SolvePathProbabilityOnPolytree(1625, h);
  ASSERT_FALSE(wraps.ok());
  EXPECT_EQ(wraps.status().code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(SolveDwtQueryOnPolytreeForest(MakeOneWayPath(1625), h).ok());
}

}  // namespace
}  // namespace phom
