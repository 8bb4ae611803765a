#include "src/core/path_pattern.h"

#include <gtest/gtest.h>

#include "src/core/algo_dwt.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"

namespace phom {
namespace {

/// Brute-force oracle: sum of world probabilities with a pattern match.
Rational PatternProbabilityBruteForce(const PathPattern& pattern,
                                      const ProbGraph& instance) {
  size_t m = instance.num_edges();
  PHOM_CHECK(m <= 18);
  Rational total = Rational::Zero();
  std::vector<bool> kept(m);
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    for (size_t e = 0; e < m; ++e) kept[e] = (mask >> e) & 1;
    if (*WorldHasPatternMatch(pattern, instance.graph(), kept)) {
      total += instance.WorldProbability(kept);
    }
  }
  return total;
}

PathPattern ChildChain(std::vector<LabelId> labels) {
  PathPattern p;
  for (LabelId l : labels) p.steps.push_back({l, false});
  return p;
}

TEST(PathPattern, EmptyPatternIsCertain) {
  ProbGraph h(2);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  EXPECT_EQ(*SolvePathPatternOnDwtForest(PathPattern{}, h), Rational::One());
}

TEST(PathPattern, RejectsOver63Steps) {
  ProbGraph h(2);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  for (size_t steps : {64, 100}) {
    PathPattern p;
    p.steps.assign(steps, PatternStep{0, false});
    Result<Rational> r = SolvePathPatternOnDwtForest(p, h);
    ASSERT_FALSE(r.ok()) << steps;
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument) << steps;
    // The world oracle answers the same Status instead of throwing.
    Result<bool> world = WorldHasPatternMatch(p, h.graph(), {true});
    ASSERT_FALSE(world.ok()) << steps;
    EXPECT_EQ(world.status().code(), Status::Code::kInvalidArgument) << steps;
    EXPECT_EQ(world.status().message(), r.status().message()) << steps;
  }
  PathPattern longest;
  longest.steps.assign(63, PatternStep{0, true});
  EXPECT_EQ(*SolvePathPatternOnDwtForest(longest, h), Rational::Zero());
  Result<bool> world = WorldHasPatternMatch(longest, h.graph(), {true});
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  EXPECT_FALSE(*world) << "one edge cannot match 63 steps";
}

TEST(PathPattern, ChildAxesCoincideWithProp410) {
  Rng rng(601);
  for (int trial = 0; trial < 60; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomDownwardTree(&rng, rng.UniformInt(2, 12), 2, 0.5), 2);
    std::vector<LabelId> labels;
    for (int i = 0, m = rng.UniformInt(1, 4); i < m; ++i) {
      labels.push_back(static_cast<LabelId>(rng.UniformInt(0, 1)));
    }
    Rational via_pattern =
        *SolvePathPatternOnDwtForest(ChildChain(labels), h);
    Rational via_kmp = *SolvePathOnDwtForest(labels, h);
    EXPECT_EQ(via_pattern, via_kmp) << trial;
  }
}

TEST(PathPattern, DescendantAxisByHand) {
  // Chain a -R-> b -S-> c -T-> d, all probability 1/2.
  ProbGraph h(4);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());  // R
  AddEdgeOrDie(&h, 1, 2, 1, Rational::Half());  // S
  AddEdgeOrDie(&h, 2, 3, 2, Rational::Half());  // T
  // R//T: needs R and T present and everything between (just S): 1/8.
  PathPattern r_desc_t;
  r_desc_t.steps = {{0, false}, {2, true}};
  EXPECT_EQ(*SolvePathPatternOnDwtForest(r_desc_t, h), Rational(1, 8));
  // //T (descendant from anywhere): just the T edge: 1/2.
  PathPattern any_t;
  any_t.steps = {{2, true}};
  EXPECT_EQ(*SolvePathPatternOnDwtForest(any_t, h), Rational::Half());
  // R/T with child axis: no R edge directly above a T edge: 0.
  PathPattern r_child_t;
  r_child_t.steps = {{0, false}, {2, false}};
  EXPECT_EQ(*SolvePathPatternOnDwtForest(r_child_t, h), Rational::Zero());
}

TEST(PathPattern, DescendantGapMustBePresent) {
  // R//T where the gap edge is nearly always absent.
  ProbGraph h(4);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::One());     // R
  AddEdgeOrDie(&h, 1, 2, 1, Rational(1, 16));     // S (the gap)
  AddEdgeOrDie(&h, 2, 3, 2, Rational::One());     // T
  PathPattern p;
  p.steps = {{0, false}, {2, true}};
  EXPECT_EQ(*SolvePathPatternOnDwtForest(p, h), Rational(1, 16));
}

TEST(PathPattern, MatchesBruteForceOnRandomForests) {
  Rng rng(602);
  for (int trial = 0; trial < 120; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomDownwardTree(&rng, rng.UniformInt(2, 9), 2, 0.5), 2);
    PathPattern pattern;
    for (int i = 0, m = rng.UniformInt(1, 3); i < m; ++i) {
      pattern.steps.push_back({static_cast<LabelId>(rng.UniformInt(0, 1)),
                               rng.Bernoulli(0.5)});
    }
    Rational fast = *SolvePathPatternOnDwtForest(pattern, h);
    Rational brute = PatternProbabilityBruteForce(pattern, h);
    EXPECT_EQ(fast, brute)
        << "trial " << trial << " pattern " << pattern.ToString();
  }
}

TEST(PathPattern, ForestsCombine) {
  // Two independent chains; //R on either.
  ProbGraph h(4);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 2, 3, 0, Rational::Half());
  PathPattern p;
  p.steps = {{0, true}};
  EXPECT_EQ(*SolvePathPatternOnDwtForest(p, h), Rational(3, 4));
}

TEST(PathPattern, RejectsNonForest) {
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 2, 0, Rational::One());
  AddEdgeOrDie(&h, 1, 2, 0, Rational::One());
  PathPattern p;
  p.steps = {{0, false}};
  EXPECT_FALSE(SolvePathPatternOnDwtForest(p, h).ok());
}

TEST(PathPattern, StatsReported) {
  Rng rng(603);
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomDownwardTree(&rng, 60, 2, 0.6), 2);
  PathPattern p;
  p.steps = {{0, true}, {1, true}, {0, false}};
  PathPatternStats stats;
  ASSERT_TRUE(SolvePathPatternOnDwtForest(p, h, {}, &stats).ok());
  EXPECT_GT(stats.dfa_states, 1u);
  EXPECT_GT(stats.table_cells, 60u);
}

TEST(PathPattern, StateLimit) {
  Rng rng(604);
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomDownwardTree(&rng, 30, 2, 0.5), 2);
  PathPattern p;
  for (int i = 0; i < 12; ++i) {
    p.steps.push_back({static_cast<LabelId>(i % 2), true});
  }
  PathPatternOptions options;
  options.max_dfa_states = 2;
  Result<Rational> r = SolvePathPatternOnDwtForest(p, h, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kResourceExhausted);
}

}  // namespace
}  // namespace phom
