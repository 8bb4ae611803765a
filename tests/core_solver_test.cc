#include "src/core/solver.h"

#include <gtest/gtest.h>

#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace phom {
namespace {

using test_util::PaperFigure1;

TEST(Solver, PaperRunningExample) {
  PaperFigure1 ex;
  Solver solver;
  Result<SolveResult> result = solver.Solve(ex.query, ex.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->probability, ex.expected);
  EXPECT_EQ(result->probability.ToDecimalString(3), "0.574");
}

TEST(Solver, PaperExampleMatchesBruteForce) {
  PaperFigure1 ex;
  SolveOptions force;
  force.force_algorithm = Algorithm::kFallback;
  EXPECT_EQ(*SolveProbability(ex.query, ex.instance, force), ex.expected);
}

TEST(Solver, TrivialAnswers) {
  ProbGraph h = ProbGraph::Certain(MakeOneWayPath(2));
  EXPECT_EQ(*SolveProbability(DiGraph(3), h), Rational::One());
  EXPECT_EQ(*SolveProbability(MakeOneWayPath(1), ProbGraph(0)),
            Rational::Zero());
}

TEST(Solver, LabelRestrictionMakesInstanceTractable) {
  // The instance is a general connected graph, but only its R-edges matter
  // for an R-only query, and those form a 1WP.
  DiGraph q = MakeLabeledPath({0, 0});
  ProbGraph h(4);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 0, Rational::Half());
  AddEdgeOrDie(&h, 2, 0, 1, Rational::Half());  // S-edge closing a cycle
  AddEdgeOrDie(&h, 2, 3, 1, Rational::Half());
  Solver solver;
  Result<SolveResult> result = solver.Solve(q, h);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->analysis.tractable);
  EXPECT_EQ(result->probability, Rational(1, 4));
}

TEST(Solver, Lemma37DisconnectedInstance) {
  // Connected query, instance = two independent 1WP components.
  DiGraph q = MakeOneWayPath(1);
  ProbGraph h(4);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 2, 3, 0, Rational(1, 4));
  // 1 - (1-1/2)(1-1/4) = 5/8.
  EXPECT_EQ(*SolveProbability(q, h), Rational(5, 8));
}

TEST(Solver, MixedComponentClasses) {
  // One 2WP component, one DWT component, connected unlabeled query.
  DiGraph q = MakeOneWayPath(2);
  ProbGraph h(7);
  // Component A: a 2WP  0->1<-2 (no →→ possible).
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 2, 1, 0, Rational::Half());
  // Component B: chain 3->4->5 plus leaf 4->6.
  AddEdgeOrDie(&h, 3, 4, 0, Rational::Half());
  AddEdgeOrDie(&h, 4, 5, 0, Rational::Half());
  AddEdgeOrDie(&h, 4, 6, 0, Rational::Half());
  Solver solver;
  Result<SolveResult> result = solver.Solve(q, h);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->analysis.tractable);
  EXPECT_EQ(result->stats.components, 2u);
  EXPECT_EQ(result->stats.fallback_components, 0u);
  // Component A: 0. Component B: e34 present and (e45 or e46):
  // 1/2 * (1 - 1/4) = 3/8.
  EXPECT_EQ(result->probability, Rational(3, 8));
}

TEST(Solver, DisconnectedLabeledQueryFallsBack) {
  DiGraph q = DisjointUnion({MakeLabeledPath({0}), MakeLabeledPath({1})});
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 1, Rational::Half());
  Solver solver;
  Result<SolveResult> result = solver.Solve(q, h);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->analysis.tractable);
  // Both edges must be present: 1/4.
  EXPECT_EQ(result->probability, Rational(1, 4));
}

TEST(Solver, CertainAndImpossibleEdges) {
  DiGraph q = MakeOneWayPath(2);
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::One());
  AddEdgeOrDie(&h, 1, 2, 0, Rational::Zero());
  EXPECT_EQ(*SolveProbability(q, h), Rational::Zero());
  ProbGraph h2(3);
  AddEdgeOrDie(&h2, 0, 1, 0, Rational::One());
  AddEdgeOrDie(&h2, 1, 2, 0, Rational::One());
  EXPECT_EQ(*SolveProbability(q, h2), Rational::One());
}

TEST(Solver, ForcedAlgorithmsAgree) {
  // An unlabeled 1WP query on a DWT instance sits in several PTIME cells at
  // once; every applicable engine must give the same answer.
  Rng rng(131);
  for (int trial = 0; trial < 30; ++trial) {
    ProbGraph h = AttachRandomProbabilities(
        &rng, RandomDownwardTree(&rng, rng.UniformInt(2, 10), 1, 0.5), 2);
    DiGraph q = MakeOneWayPath(rng.UniformInt(1, 3));
    Rational dispatched = *SolveProbability(q, h);
    SolveOptions via_fallback;
    via_fallback.force_algorithm = Algorithm::kFallback;
    SolveOptions via_automaton;
    via_automaton.force_algorithm = Algorithm::kUnlabeledPolytree;
    SolveOptions via_grading;
    via_grading.force_algorithm = Algorithm::kUnlabeledDwtInstance;
    SolveOptions via_lineage;
    via_lineage.dwt_via_lineage = true;
    EXPECT_EQ(dispatched, *SolveProbability(q, h, via_fallback)) << trial;
    EXPECT_EQ(dispatched, *SolveProbability(q, h, via_automaton)) << trial;
    EXPECT_EQ(dispatched, *SolveProbability(q, h, via_grading)) << trial;
    EXPECT_EQ(dispatched, *SolveProbability(q, h, via_lineage)) << trial;
  }
}

TEST(Solver, WorldEnumerationRefusesSixtyFourUncertainEdges) {
  // World masks are uint64_t, so 64 uncertain edges must be refused even
  // when the caller raises the limit to 64 (1 << 64 is undefined behaviour).
  ProbGraph h(65);
  for (uint32_t v = 0; v < 64; ++v) {
    AddEdgeOrDie(&h, v, v + 1, 0, Rational::Half());
  }
  SolveOptions options;
  options.force_engine = "fallback";
  options.fallback.max_uncertain_edges = 64;
  Result<Rational> r = SolveProbability(MakeOneWayPath(2), h, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kResourceExhausted)
      << r.status().ToString();
}

TEST(Solver, ForcedUnlabeledAlgorithmsRejectLabeledProblems) {
  // The automaton/grading pipelines ignore labels; forcing them on a
  // genuinely labeled problem must fail rather than silently mis-answer.
  DiGraph q = MakeLabeledPath({0, 1});
  ProbGraph h(3);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  AddEdgeOrDie(&h, 1, 2, 1, Rational::Half());
  for (Algorithm algo : {Algorithm::kUnlabeledPolytree,
                         Algorithm::kUnlabeledDwtInstance}) {
    SolveOptions options;
    options.force_algorithm = algo;
    Result<Rational> r = SolveProbability(q, h, options);
    ASSERT_FALSE(r.ok()) << ToString(algo);
    EXPECT_EQ(r.status().code(), Status::Code::kNotSupported);
  }
}

TEST(Solver, SelfLoopQueryOnForestIsZero) {
  DiGraph q(1);
  AddEdgeOrDie(&q, 0, 0, 0);
  ProbGraph h = ProbGraph::Certain(MakeOneWayPath(4));
  EXPECT_EQ(*SolveProbability(q, h), Rational::Zero());
}

TEST(Solver, IsolatedQueryVerticesAreFree) {
  DiGraph q(3);
  AddEdgeOrDie(&q, 0, 1, 0);  // vertex 2 isolated
  ProbGraph h(2);
  AddEdgeOrDie(&h, 0, 1, 0, Rational::Half());
  EXPECT_EQ(*SolveProbability(q, h), Rational::Half());
}

TEST(Solver, StatsReporting) {
  Rng rng(132);
  ProbGraph h = AttachRandomProbabilities(
      &rng, RandomTwoWayPath(&rng, 20, 2), 3);
  DiGraph q = RandomTwoWayPath(&rng, 3, 2);
  Solver solver;
  Result<SolveResult> result = solver.Solve(q, h);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.components, 1u);
  EXPECT_GT(result->stats.hom_tests, 0u);
}

}  // namespace
}  // namespace phom
