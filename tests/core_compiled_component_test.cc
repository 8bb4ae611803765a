// Compiled components (compiled.h): an InstanceContext compiles each
// component's polytree encoding, downward forest and backend probabilities
// once, and every later solve reads them. A solve through a warm context must
// equal the kernels' ProbGraph entry points, which compile on the fly, bit
// for bit on all three backends, with the same per-request counts and the
// same error text. The compiled parts are built by the first solves, from
// any number of threads at once. 2WP components compile their path order,
// path edges and probabilities for Prop. 4.11 the same way.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/core/algo_dwt.h"
#include "src/core/algo_polytree.h"
#include "src/core/algo_two_way_path.h"
#include "src/core/downward_forest.h"
#include "src/core/eval_session.h"
#include "src/graph/builders.h"
#include "src/graph/classify.h"
#include "src/graph/generators.h"
#include "src/graph/graded.h"
#include "tests/test_util.h"

namespace phom {
namespace {

constexpr LabelId kLabel = 0;

/// Probabilities 0 and 1, dyadics and non-dyadics (denominators 3..12).
Rational DrawProbability(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0: return Rational::Zero();
    case 1: return Rational::One();
    case 2:
      return rng->DyadicProbability(static_cast<int>(rng->UniformInt(1, 6)));
    default: {
      const int64_t den = rng->UniformInt(3, 12);
      return Rational(rng->UniformInt(0, den), den);
    }
  }
}

ProbGraph WithProbabilities(Rng* rng, const DiGraph& g) {
  std::vector<Rational> probs;
  for (size_t e = 0; e < g.num_edges(); ++e) {
    probs.push_back(DrawProbability(rng));
  }
  return ProbGraph(g, std::move(probs));
}

/// A comb: spine 0 - 1 - 3 - ... with a leaf below each spine vertex, all
/// edges pointing away from vertex 0 (a DWT, not a 2WP from 4 vertices on).
DiGraph Comb(size_t vertices) {
  std::vector<VertexId> parent(vertices, 0);
  for (VertexId i = 2; i < vertices; ++i) parent[i] = i - 1 - (i % 2);
  return MakeDownwardTree(parent, kLabel);
}

enum class Mix { kPolytrees, kForests, kMixed };

/// One-label instance of 1-5 parts: random polytrees (kPolytrees), random
/// downward trees and combs (kForests), or both (kMixed), plus 0-2 isolated
/// vertices, which are edgeless components.
ProbGraph MakeInstance(Rng* rng, Mix mix) {
  std::vector<DiGraph> parts;
  const int64_t count = rng->UniformInt(1, 5);
  for (int64_t i = 0; i < count; ++i) {
    const size_t n = static_cast<size_t>(rng->UniformInt(1, 12));
    const bool polytree =
        mix == Mix::kPolytrees || (mix == Mix::kMixed && rng->Bernoulli(0.5));
    if (polytree) {
      parts.push_back(RandomPolytree(rng, n, 1));
    } else if (rng->Bernoulli(0.5)) {
      parts.push_back(RandomDownwardTree(rng, n, 1, 0.5));
    } else {
      parts.push_back(Comb(n + 3));
    }
  }
  for (int64_t i = rng->UniformInt(0, 2); i > 0; --i) parts.emplace_back(1);
  return WithProbabilities(rng, DisjointUnion(parts));
}

/// A 2 -> 1 <- 0 -> 3 -> 4 query: graded but not a DWT.
DiGraph GradedNonDwtQuery() {
  DiGraph q(5);
  AddEdgeOrDie(&q, 2, 1, kLabel);
  AddEdgeOrDie(&q, 0, 1, kLabel);
  AddEdgeOrDie(&q, 0, 3, kLabel);
  AddEdgeOrDie(&q, 3, 4, kLabel);
  return q;
}

/// 0 -> 1 -> 2 and 0 -> 2: no level mapping exists.
DiGraph NonGradedQuery() {
  DiGraph q(3);
  AddEdgeOrDie(&q, 0, 1, kLabel);
  AddEdgeOrDie(&q, 1, 2, kLabel);
  AddEdgeOrDie(&q, 0, 2, kLabel);
  return q;
}

/// A DWT or 1WP query (Prop. 5.5 collapses it on any instance); on forest
/// instances also graded non-DWT and non-graded ones (Prop. 3.6).
DiGraph MakeQuery(Rng* rng, bool forest_instance) {
  switch (rng->UniformInt(0, forest_instance ? 3 : 1)) {
    case 0:
      return MakeOneWayPath(static_cast<size_t>(rng->UniformInt(1, 6)),
                            kLabel);
    case 1:
      return RandomDownwardTree(
          rng, static_cast<size_t>(rng->UniformInt(2, 7)), 1);
    case 2: return GradedNonDwtQuery();
    default: return NonGradedQuery();
  }
}

struct Answer {
  Status status = Status::OK();
  Rational exact;
  double approx = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  size_t circuit_gates = 0;
  size_t match_ends = 0;
};

template <class Num>
Answer FromKernel(const Result<Num>& r, size_t circuit_gates,
                  size_t match_ends) {
  Answer a;
  a.circuit_gates = circuit_gates;
  a.match_ends = match_ends;
  if (!r.ok()) {
    a.status = r.status();
    return a;
  }
  if constexpr (std::is_same_v<Num, Rational>) {
    a.exact = *r;
  } else if constexpr (std::is_same_v<Num, double>) {
    a.approx = *r;
  } else {
    a.lo = r->lo;
    a.hi = r->hi;
  }
  return a;
}

Answer FromSolve(const Result<SolveResult>& r, NumericBackend backend) {
  Answer a;
  if (!r.ok()) {
    a.status = r.status();
    return a;
  }
  a.circuit_gates = r->stats.circuit_gates;
  a.match_ends = r->stats.match_ends;
  if (backend == NumericBackend::kExact) {
    a.exact = r->probability;
  } else if (backend == NumericBackend::kDouble) {
    a.approx = r->probability_double;
  } else {
    a.lo = r->bound.lo;
    a.hi = r->bound.hi;
  }
  return a;
}

/// Bit for bit, including the sign of zero.
void ExpectSame(const Answer& got, const Answer& want) {
  ASSERT_EQ(got.status.ok(), want.status.ok()) << got.status.ToString();
  if (!want.status.ok()) {
    EXPECT_EQ(got.status.ToString(), want.status.ToString());
    return;
  }
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.approx),
            std::bit_cast<uint64_t>(want.approx));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.lo), std::bit_cast<uint64_t>(want.lo));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.hi), std::bit_cast<uint64_t>(want.hi));
  EXPECT_EQ(got.circuit_gates, want.circuit_gates);
  EXPECT_EQ(got.match_ends, want.match_ends);
}

/// One component through the ProbGraph entry points, dispatched as the
/// per-component engine does for the collapsed query →^m.
template <class Num>
Result<Num> ReferenceComponent(uint32_t m, const ProbGraph& comp,
                               size_t* circuit_gates, size_t* match_ends) {
  if (comp.num_edges() == 0) return NumericOps<Num>::Zero();
  const Classification cc = Classify(comp.graph());
  if (cc.is_2wp) {
    TwoWayPathStats s;
    return SolveConnectedOn2wpComponentT<Num>(MakeOneWayPath(m, kLabel), comp,
                                              &s, nullptr);
  }
  if (cc.is_dwt) {
    DwtStats s;
    Result<Num> r = SolvePathOnDwtForestT<Num>(
        std::vector<LabelId>(m, kLabel), comp, &s);
    if (r.ok()) *match_ends += s.match_ends;
    return r;
  }
  PolytreeStats s;
  Result<Num> r = SolvePathProbabilityOnPolytreeT<Num>(m, comp, &s);
  if (r.ok()) *circuit_gates += s.circuit_gates;
  return r;
}

/// The answer of the algorithm PrepareProblem picked, through the ProbGraph
/// entry points on the uncollapsed query.
template <class Num>
Answer Reference(Algorithm algorithm, const DiGraph& query,
                 const ProbGraph& instance) {
  using Ops = NumericOps<Num>;
  if (algorithm == Algorithm::kUnlabeledPolytree) {
    PolytreeStats s;
    Result<Num> r = SolveDwtQueryOnPolytreeForestT<Num>(query, instance, &s);
    return FromKernel(r, r.ok() ? s.circuit_gates : 0, 0);
  }
  if (algorithm == Algorithm::kUnlabeledDwtInstance) {
    DwtStats s;
    Result<Num> r = SolveUnlabeledOnDwtForestT<Num>(query, instance, &s);
    return FromKernel(r, 0, r.ok() ? s.match_ends : 0);
  }
  EXPECT_TRUE(algorithm == Algorithm::kPerComponent ||
              algorithm == Algorithm::kConnectedOn2wp)
      << ToString(algorithm);
  const GradedAnalysis graded = AnalyzeGraded(query);
  const uint32_t m = static_cast<uint32_t>(graded.difference_of_levels);
  size_t gates = 0;
  size_t ends = 0;
  Num none = Ops::One();
  for (const ComponentView& comp : SplitComponents(instance)) {
    Result<Num> p = ReferenceComponent<Num>(m, comp.graph, &gates, &ends);
    if (!p.ok()) return FromKernel(p, 0, 0);
    none *= Ops::Complement(*p);
  }
  return FromKernel(Result<Num>(Ops::Complement(none)), gates, ends);
}

Answer ReferenceIn(NumericBackend backend, Algorithm algorithm,
                   const DiGraph& query, const ProbGraph& instance) {
  switch (backend) {
    case NumericBackend::kExact:
      return Reference<Rational>(algorithm, query, instance);
    case NumericBackend::kDouble:
      return Reference<double>(algorithm, query, instance);
    case NumericBackend::kIntervalDouble:
      return Reference<IntervalDouble>(algorithm, query, instance);
  }
  return {};
}

constexpr NumericBackend kBackends[] = {NumericBackend::kExact,
                                        NumericBackend::kDouble,
                                        NumericBackend::kIntervalDouble};

/// Solves every query twice through one session per backend: the first solve
/// compiles the context's components, the second reads them warm. Both must
/// equal the reference. Returns the algorithms that ran.
std::vector<Algorithm> ExpectSessionMatchesReference(
    const ProbGraph& instance, const std::vector<DiGraph>& queries) {
  std::vector<Algorithm> ran;
  for (NumericBackend backend : kBackends) {
    SCOPED_TRACE(ToString(backend));
    SolveOptions options;
    options.numeric = backend;
    EvalSession session(instance, options);
    for (const DiGraph& query : queries) {
      const Result<SolveResult> cold = session.Solve(query);
      const Result<SolveResult> warm = session.Solve(query);
      const PreparedProblem prepared = PrepareProblem(query, instance);
      if (prepared.immediate.has_value()) {
        // Prop. 3.6 answers a non-graded query before any engine runs; the
        // ProbGraph entry point answers 0 too.
        EXPECT_EQ(prepared.analysis.algorithm,
                  Algorithm::kUnlabeledDwtInstance);
        const Answer want = ReferenceIn(
            backend, Algorithm::kUnlabeledDwtInstance, query, instance);
        ExpectSame(FromSolve(warm, backend), want);
        continue;
      }
      ran.push_back(prepared.analysis.algorithm);
      const Answer want =
          ReferenceIn(backend, prepared.analysis.algorithm, query, instance);
      ExpectSame(FromSolve(cold, backend), want);
      ExpectSame(FromSolve(warm, backend), want);
    }
    EXPECT_EQ(session.stats().instance_preparations, 1u);
  }
  return ran;
}

TEST(CompiledComponentDiff, WarmContextMatchesProbGraphEntryPoints) {
  Rng rng(20170528);
  size_t polytree = 0, dwt_instance = 0, per_component = 0;
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE(trial);
    const Mix mix = static_cast<Mix>(trial % 3);
    const ProbGraph instance = MakeInstance(&rng, mix);
    const bool forest = Classify(instance.graph()).all_dwt;
    std::vector<DiGraph> queries;
    for (int q = 0; q < 3; ++q) queries.push_back(MakeQuery(&rng, forest));
    for (Algorithm a : ExpectSessionMatchesReference(instance, queries)) {
      polytree += a == Algorithm::kUnlabeledPolytree;
      dwt_instance += a == Algorithm::kUnlabeledDwtInstance;
      per_component += a == Algorithm::kPerComponent;
    }
  }
  // Every compiled path was exercised.
  EXPECT_GT(polytree, 100u);
  EXPECT_GT(dwt_instance, 100u);
  EXPECT_GT(per_component, 100u);
}

TEST(CompiledComponentDiff, LongestPathLengthOnWarmContext) {
  // m = 1624 runs (the hash-map slot index), m = 1625 fails with the
  // kernel's Status, on the polytree engine and on the per-component one.
  Rng rng(1624);
  DiGraph proper(5);  // 0 -> 1 <- 2, 1 -> 3 -> 4: a proper polytree
  AddEdgeOrDie(&proper, 0, 1, kLabel);
  AddEdgeOrDie(&proper, 2, 1, kLabel);
  AddEdgeOrDie(&proper, 1, 3, kLabel);
  AddEdgeOrDie(&proper, 3, 4, kLabel);
  const std::vector<DiGraph> queries = {MakeOneWayPath(1624, kLabel),
                                        MakeOneWayPath(1625, kLabel),
                                        MakeOneWayPath(2, kLabel)};
  for (bool with_comb : {false, true}) {
    SCOPED_TRACE(with_comb);
    std::vector<DiGraph> parts = {proper, DiGraph(1)};
    if (with_comb) parts.push_back(Comb(9));
    const ProbGraph instance = WithProbabilities(&rng, DisjointUnion(parts));
    const std::vector<Algorithm> ran =
        ExpectSessionMatchesReference(instance, queries);
    ASSERT_FALSE(ran.empty());
    EXPECT_EQ(ran[0], with_comb ? Algorithm::kPerComponent
                                : Algorithm::kUnlabeledPolytree);
  }
}

/// Every error keeps its text, cold and warm: a non-polytree and a
/// non-forest component, m > 1624, m == 0, edgeless components and an
/// empty pattern, on components and on the whole instance.
template <class Num>
void ExpectKernelErrorsMatch(const InstanceContext& ctx) {
  for (size_t i = 0; i < ctx.components.size(); ++i) {
    SCOPED_TRACE(i);
    const ProbGraph& graph = ctx.components[i].graph;
    for (uint32_t m : {0u, 1u, 3u, 1625u}) {
      SCOPED_TRACE(m);
      PolytreeStats want_stats;
      const Answer want = FromKernel(
          SolvePathProbabilityOnPolytreeT<Num>(m, graph, &want_stats),
          want_stats.circuit_gates, 0);
      for (int pass = 0; pass < 2; ++pass) {
        PolytreeStats s;
        ExpectSame(FromKernel(SolvePathProbabilityOnPolytreeT<Num>(
                                  m, ctx.compiled(i), &s),
                              s.circuit_gates, 0),
                   want);
      }
    }
    for (size_t m : {0u, 1u, 3u}) {
      SCOPED_TRACE(m);
      const std::vector<LabelId> pattern(m, kLabel);
      DwtStats want_stats;
      const Answer want =
          FromKernel(SolvePathOnDwtForestT<Num>(pattern, graph, &want_stats),
                     0, want_stats.match_ends);
      for (int pass = 0; pass < 2; ++pass) {
        DwtStats s;
        ExpectSame(FromKernel(SolvePathOnDwtForestT<Num>(
                                  pattern, ctx.compiled(i), &s),
                              0, s.match_ends),
                   want);
      }
    }
  }
  const std::vector<LabelId> pattern(2, kLabel);
  DwtStats want_stats;
  const Answer want = FromKernel(
      SolvePathOnDwtForestT<Num>(pattern, ctx.instance(), &want_stats), 0,
      want_stats.match_ends);
  for (int pass = 0; pass < 2; ++pass) {
    DwtStats s;
    ExpectSame(FromKernel(SolvePathOnDwtForestT<Num>(
                              pattern, ctx.compiled_instance(), &s),
                          0, s.match_ends),
               want);
  }
}

TEST(CompiledComponentDiff, KernelErrorsKeepTheirText) {
  Rng rng(3);
  DiGraph diamond(4);  // neither a polytree nor a forest
  AddEdgeOrDie(&diamond, 0, 1, kLabel);
  AddEdgeOrDie(&diamond, 0, 2, kLabel);
  AddEdgeOrDie(&diamond, 1, 3, kLabel);
  AddEdgeOrDie(&diamond, 2, 3, kLabel);
  DiGraph cycle(3);
  AddEdgeOrDie(&cycle, 0, 1, kLabel);
  AddEdgeOrDie(&cycle, 1, 2, kLabel);
  AddEdgeOrDie(&cycle, 2, 0, kLabel);
  const ProbGraph instance = WithProbabilities(
      &rng, DisjointUnion({RandomPolytree(&rng, 8, 1), diamond, DiGraph(1),
                           Comb(7), cycle}));
  const auto ctx = BuildInstanceContext(instance, {kLabel});
  ASSERT_EQ(ctx->components.size(), 5u);
  ExpectKernelErrorsMatch<Rational>(*ctx);
  ExpectKernelErrorsMatch<double>(*ctx);
  ExpectKernelErrorsMatch<IntervalDouble>(*ctx);
  // A forest whole instance compiles to a forest, a non-forest one to the
  // builder's error.
  EXPECT_FALSE(ctx->compiled_instance().forest().ok());
  const auto forest =
      BuildInstanceContext(WithProbabilities(&rng, Comb(6)), {kLabel});
  EXPECT_TRUE(forest->compiled_instance().forest().ok());
  ExpectKernelErrorsMatch<IntervalDouble>(*forest);
}

template <class Num>
void ExpectSameBits(const std::vector<Num>& got, const std::vector<Num>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t e = 0; e < want.size(); ++e) {
    if constexpr (std::is_same_v<Num, double>) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[e]),
                std::bit_cast<uint64_t>(want[e]));
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[e].lo),
                std::bit_cast<uint64_t>(want[e].lo));
      EXPECT_EQ(std::bit_cast<uint64_t>(got[e].hi),
                std::bit_cast<uint64_t>(want[e].hi));
    }
  }
}

/// Each compiled artifact equals its fresh derivation from the component's
/// own graph: the encoding, the forest, and the per-edge conversions.
void ExpectArtifactsMatch(const CompiledComponent& compiled,
                          const ProbGraph& graph) {
  EXPECT_EQ(&compiled.graph(), &graph);
  EXPECT_EQ(&compiled.probs<Rational>(), &graph.probs());
  ExpectSameBits(compiled.probs<double>(), ConvertProbs<double>(graph.probs()));
  ExpectSameBits(compiled.probs<IntervalDouble>(),
                 ConvertProbs<IntervalDouble>(graph.probs()));
  const Result<EncodedPolytree> tree = EncodePolytree(graph);
  ASSERT_EQ(compiled.polytree().ok(), tree.ok());
  if (tree.ok()) {
    ASSERT_EQ(compiled.polytree()->nodes.size(), tree->nodes.size());
    EXPECT_EQ(compiled.polytree()->root, tree->root);
    for (size_t t = 0; t < tree->nodes.size(); ++t) {
      const EncodedNode& got = compiled.polytree()->nodes[t];
      EXPECT_EQ(got.left, tree->nodes[t].left);
      EXPECT_EQ(got.right, tree->nodes[t].right);
      EXPECT_EQ(got.label, tree->nodes[t].label);
      EXPECT_EQ(got.prob, tree->nodes[t].prob);
      EXPECT_EQ(got.source_edge, tree->nodes[t].source_edge);
    }
  } else {
    EXPECT_EQ(compiled.polytree().status().ToString(),
              tree.status().ToString());
  }
  const Result<DownwardForest> forest = BuildDownwardForest(graph.graph());
  ASSERT_EQ(compiled.forest().ok(), forest.ok());
  if (forest.ok()) {
    EXPECT_EQ(compiled.forest()->bfs_order, forest->bfs_order);
    EXPECT_EQ(compiled.forest()->parent, forest->parent);
    EXPECT_EQ(compiled.forest()->parent_edge, forest->parent_edge);
  } else {
    EXPECT_EQ(compiled.forest().status().ToString(),
              forest.status().ToString());
  }
}

TEST(CompiledComponentDiff, ArtifactsEqualFreshDerivations) {
  Rng rng(1807);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    std::vector<DiGraph> parts = {
        RandomPolytree(&rng, static_cast<size_t>(rng.UniformInt(1, 12)), 2),
        RandomDownwardTree(&rng, static_cast<size_t>(rng.UniformInt(1, 12)),
                           2),
        RandomConnected(&rng, 6, 3, 2), DiGraph(1)};
    const ProbGraph instance = WithProbabilities(&rng, DisjointUnion(parts));
    const std::vector<LabelId> labels =
        trial % 2 == 0 ? std::vector<LabelId>{0, 1} : std::vector<LabelId>{1};
    const auto ctx = BuildInstanceContext(instance, labels);
    for (size_t i = 0; i < ctx->components.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectArtifactsMatch(ctx->compiled(i), ctx->components[i].graph);
    }
    ExpectArtifactsMatch(ctx->compiled_instance(), ctx->instance());
  }
}

/// Per component of a fresh context, the per-component answer and counts
/// under `options`, solved from `threads` threads at once, each starting at
/// a different component.
std::vector<std::vector<Answer>> SolveComponentsConcurrently(
    const ProbGraph& instance, const DiGraph& query,
    const SolveOptions& options, int threads) {
  const PreparedProblem prepared = PrepareProblem(query, instance);
  const ComponentDispatch dispatch = PlanComponentDispatch(prepared, options);
  const size_t n = dispatch.components;
  EXPECT_GE(n, 2u);
  std::vector<std::vector<Answer>> seen(threads, std::vector<Answer>(n + 1));
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      for (size_t j = 0; j < n; ++j) {
        const size_t i = (j + static_cast<size_t>(t)) % n;
        seen[t][i] = FromSolve(
            SolvePreparedComponent(prepared, dispatch, i, options),
            options.numeric);
      }
      seen[t][n] = FromSolve(SolvePrepared(prepared, options), options.numeric);
    });
  }
  for (std::thread& th : pool) th.join();
  return seen;
}

TEST(CompiledComponentLazy, ConcurrentFirstSolves) {
  Rng rng(28);
  std::vector<DiGraph> parts;
  for (int i = 0; i < 4; ++i) parts.push_back(RandomPolytree(&rng, 16, 1));
  for (int i = 0; i < 3; ++i) parts.push_back(Comb(24));
  parts.push_back(RandomDownwardTree(&rng, 24, 1, 0.5));
  parts.emplace_back(1);
  const ProbGraph mixed = WithProbabilities(&rng, DisjointUnion(parts));
  const ProbGraph forests = WithProbabilities(
      &rng, DisjointUnion({Comb(30), RandomDownwardTree(&rng, 30, 1, 0.5)}));
  const DiGraph query = MakeOneWayPath(3, kLabel);
  for (NumericBackend backend :
       {NumericBackend::kIntervalDouble, NumericBackend::kDouble}) {
    SCOPED_TRACE(ToString(backend));
    SolveOptions options;
    options.numeric = backend;
    const std::vector<Answer> serial =
        SolveComponentsConcurrently(mixed, query, options, 1)[0];
    const Answer serial_forest =
        FromSolve(SolvePrepared(PrepareProblem(query, forests), options),
                  backend);
    for (int round = 0; round < 10; ++round) {
      for (const std::vector<Answer>& seen :
           SolveComponentsConcurrently(mixed, query, options, 8)) {
        for (size_t i = 0; i < seen.size(); ++i) ExpectSame(seen[i], serial[i]);
      }
      // The whole-instance forest of the unlabeled-DWT-instance engine.
      const PreparedProblem prepared = PrepareProblem(query, forests);
      ASSERT_EQ(prepared.analysis.algorithm, Algorithm::kUnlabeledDwtInstance);
      std::vector<Answer> seen(8);
      std::atomic<int> ready{0};
      std::vector<std::thread> pool;
      for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&, t] {
          ready.fetch_add(1);
          while (ready.load() < 8) std::this_thread::yield();
          seen[t] = FromSolve(SolvePrepared(prepared, options), backend);
        });
      }
      for (std::thread& th : pool) th.join();
      for (const Answer& a : seen) ExpectSame(a, serial_forest);
    }
  }
}

// ---------------------------------------------------------------------------
// 2WP components (Prop. 4.11): the compiled path order, path edges and
// backend probabilities.
// ---------------------------------------------------------------------------

/// 2WP lengths at and around 64-bit word boundaries, and the 1-edge path.
constexpr size_t kPathLengths[] = {1, 63, 64, 65, 127, 128, 129};

/// A ⊔2WP instance over labels [0, num_labels): one path of each length in
/// `lengths`, plus 0-2 isolated vertices; every edge draws a probability
/// from DrawProbability (0 and 1 included).
ProbGraph MakePaths(Rng* rng, const std::vector<size_t>& lengths,
                    size_t num_labels) {
  std::vector<DiGraph> parts;
  for (size_t length : lengths) {
    parts.push_back(RandomTwoWayPath(rng, length, num_labels));
  }
  for (int64_t i = rng->UniformInt(0, 2); i > 0; --i) parts.emplace_back(1);
  return WithProbabilities(rng, DisjointUnion(parts));
}

/// R(x,x), S(x,y): connected, with a self-loop no 2WP has.
DiGraph SelfLoopQuery(LabelId r, LabelId s) {
  DiGraph q(2);
  AddEdgeOrDie(&q, 0, 0, r);
  AddEdgeOrDie(&q, 0, 1, s);
  return q;
}

/// A connected query over the instance's labels [0, num_labels); in 30% of
/// draws over one more label, which no component carries.
DiGraph Make2wpQuery(Rng* rng, size_t num_labels) {
  const size_t labels = num_labels + static_cast<size_t>(rng->Bernoulli(0.3));
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return RandomTwoWayPath(
          rng, static_cast<size_t>(rng->UniformInt(1, 6)), labels);
    case 1:
      return RandomOneWayPath(
          rng, static_cast<size_t>(rng->UniformInt(1, 4)), labels);
    case 2:
      return RandomPolytree(
          rng, static_cast<size_t>(rng->UniformInt(2, 6)), labels);
    case 3:
      return RandomConnected(rng, 4, 1, labels);
    default:
      return SelfLoopQuery(0, static_cast<LabelId>(labels - 1));
  }
}

struct TwoWpCounts {
  size_t hom_tests = 0;
  size_t lineage_clauses = 0;
  bool operator==(const TwoWpCounts&) const = default;
};

/// Lemma 3.7 over the ProbGraph entry point on each component of a fresh
/// split, for the query `prepared` solves, with the engine's counts.
template <class Num>
Answer Reference2wp(const PreparedProblem& prepared, TwoWpCounts* counts) {
  using Ops = NumericOps<Num>;
  Num none = Ops::One();
  for (const ComponentView& comp : prepared.context->components) {
    if (comp.graph.num_edges() == 0) continue;
    TwoWayPathStats s;
    Result<Num> p = SolveConnectedOn2wpComponentT<Num>(prepared.query,
                                                       comp.graph, &s, nullptr);
    if (!p.ok()) return FromKernel(p, 0, 0);
    counts->hom_tests += s.hom_tests;
    counts->lineage_clauses += s.minimal_intervals;
    none *= Ops::Complement(*p);
  }
  return FromKernel(Result<Num>(Ops::Complement(none)), 0, 0);
}

/// The compiled kernel on each component of a warm context against the
/// ProbGraph entry point: value, counts and lineage, twice.
template <class Num>
void ExpectComponentsMatch(const InstanceContext& ctx, const DiGraph& query) {
  for (size_t i = 0; i < ctx.components.size(); ++i) {
    SCOPED_TRACE(i);
    TwoWayPathStats want_stats;
    MonotoneDnf want_lineage(0);
    const Answer want = FromKernel(
        SolveConnectedOn2wpComponentT<Num>(query, ctx.components[i].graph,
                                           &want_stats, &want_lineage),
        0, 0);
    for (int pass = 0; pass < 2; ++pass) {
      TwoWayPathStats s;
      MonotoneDnf lineage(0);
      ExpectSame(FromKernel(SolveConnectedOn2wpComponentT<Num>(
                                query, ctx.compiled(i), &s, &lineage),
                            0, 0),
                 want);
      EXPECT_EQ(s.hom_tests, want_stats.hom_tests);
      EXPECT_EQ(s.minimal_intervals, want_stats.minimal_intervals);
      EXPECT_EQ(lineage.num_vars(), want_lineage.num_vars());
      EXPECT_EQ(lineage.clauses(), want_lineage.clauses());
    }
  }
}

/// Every query through one session per backend, cold then warm, against
/// Reference2wp; and each component's compiled kernel against its entry
/// point. Returns how many queries ran the 2WP engine.
size_t ExpectWarm2wpMatchesEntryPoints(const ProbGraph& instance,
                                       const std::vector<DiGraph>& queries) {
  size_t ran = 0;
  for (NumericBackend backend : kBackends) {
    SCOPED_TRACE(ToString(backend));
    SolveOptions options;
    options.numeric = backend;
    EvalSession session(instance, options);
    for (const DiGraph& query : queries) {
      const Result<SolveResult> cold = session.Solve(query);
      const Result<SolveResult> warm = session.Solve(query);
      const PreparedProblem prepared = PrepareProblem(query, instance);
      if (prepared.analysis.algorithm != Algorithm::kConnectedOn2wp) continue;
      ++ran;
      TwoWpCounts counts;
      Answer want;
      switch (backend) {
        case NumericBackend::kExact:
          want = Reference2wp<Rational>(prepared, &counts);
          break;
        case NumericBackend::kDouble:
          want = Reference2wp<double>(prepared, &counts);
          break;
        case NumericBackend::kIntervalDouble:
          want = Reference2wp<IntervalDouble>(prepared, &counts);
          break;
      }
      for (const Result<SolveResult>* r : {&cold, &warm}) {
        ExpectSame(FromSolve(*r, backend), want);
        if (!r->ok()) continue;
        EXPECT_EQ((TwoWpCounts{(*r)->stats.hom_tests,
                               (*r)->stats.lineage_clauses}),
                  counts);
      }
      const auto ctx = BuildInstanceContext(instance, query.UsedLabels());
      switch (backend) {
        case NumericBackend::kExact:
          ExpectComponentsMatch<Rational>(*ctx, prepared.query);
          break;
        case NumericBackend::kDouble:
          ExpectComponentsMatch<double>(*ctx, prepared.query);
          break;
        case NumericBackend::kIntervalDouble:
          ExpectComponentsMatch<IntervalDouble>(*ctx, prepared.query);
          break;
      }
    }
    EXPECT_LE(session.stats().instance_preparations, queries.size());
  }
  return ran;
}

TEST(CompiledComponent2wpDiff, WarmContextMatchesProbGraphEntryPoint) {
  Rng rng(411);
  size_t ran = 0;
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(trial);
    const size_t num_labels = static_cast<size_t>(rng.UniformInt(1, 3));
    std::vector<size_t> lengths = {
        kPathLengths[trial % std::size(kPathLengths)],
        static_cast<size_t>(rng.UniformInt(1, 12))};
    const ProbGraph instance = MakePaths(&rng, lengths, num_labels);
    std::vector<DiGraph> queries;
    for (int q = 0; q < 3; ++q) {
      queries.push_back(Make2wpQuery(&rng, num_labels));
    }
    ran += ExpectWarm2wpMatchesEntryPoints(instance, queries);
  }
  EXPECT_GT(ran, 120u);
}

TEST(CompiledComponent2wpDiff, EveryPathLengthAndCertainOrImpossibleEdges) {
  // All-certain and all-impossible paths of every boundary length, under a
  // 1WP query, a 2WP query and the self-loop query, on two labels.
  Rng rng(129);
  for (size_t length : kPathLengths) {
    SCOPED_TRACE(length);
    for (const Rational& p : {Rational::Zero(), Rational::One()}) {
      DiGraph path = RandomTwoWayPath(&rng, length, 2);
      const ProbGraph instance(
          path, std::vector<Rational>(path.num_edges(), p));
      const size_t ran = ExpectWarm2wpMatchesEntryPoints(
          instance, {MakeOneWayPath(1, 0), RandomTwoWayPath(&rng, 3, 2),
                     SelfLoopQuery(1, 0)});
      EXPECT_EQ(ran, 9u);
    }
  }
}

/// Both preconditions keep their text, in their order: the component's
/// first, then the query's. The compiled kernel reports the component's
/// the same way, cold and warm.
template <class Num>
void Expect2wpErrorsMatch(const InstanceContext& ctx, size_t non_2wp,
                          size_t path) {
  const std::string kNot2wp =
      "Invalid: SolveConnectedOn2wpComponent requires a 2WP";
  const std::string kQuery =
      "Invalid: query must be connected with at least one edge";
  const DiGraph connected = MakeOneWayPath(2, kLabel);
  const DiGraph disconnected = DisjointUnion({connected, connected});
  const ProbGraph& bad = ctx.components[non_2wp].graph;
  const ProbGraph& good = ctx.components[path].graph;
  auto status = [](const Result<Num>& r) { return r.status().ToString(); };
  for (const DiGraph* query : {&connected, &disconnected}) {
    EXPECT_EQ(status(SolveConnectedOn2wpComponentT<Num>(*query, bad, nullptr,
                                                        nullptr)),
              kNot2wp);
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(status(SolveConnectedOn2wpComponentT<Num>(
                    *query, ctx.compiled(non_2wp), nullptr, nullptr)),
                kNot2wp);
    }
  }
  EXPECT_EQ(status(SolveConnectedOn2wpComponentT<Num>(disconnected, good,
                                                      nullptr, nullptr)),
            kQuery);
  EXPECT_EQ(status(SolveConnectedOn2wpComponentT<Num>(DiGraph(2), good,
                                                      nullptr, nullptr)),
            kQuery);
  EXPECT_TRUE(SolveConnectedOn2wpComponentT<Num>(connected, ctx.compiled(path),
                                                 nullptr, nullptr)
                  .ok());
}

TEST(CompiledComponent2wpDiff, ErrorsKeepTheirText) {
  Rng rng(2);
  const ProbGraph instance = WithProbabilities(
      &rng, DisjointUnion({Comb(7), RandomTwoWayPath(&rng, 9, 1)}));
  const auto ctx = BuildInstanceContext(instance, {kLabel});
  ASSERT_EQ(ctx->components.size(), 2u);
  ASSERT_FALSE(ctx->component_classes[0].is_2wp);
  ASSERT_TRUE(ctx->component_classes[1].is_2wp);
  Expect2wpErrorsMatch<Rational>(*ctx, 0, 1);
  Expect2wpErrorsMatch<double>(*ctx, 0, 1);
  Expect2wpErrorsMatch<IntervalDouble>(*ctx, 0, 1);
  EXPECT_EQ(ctx->compiled(0).two_way_path().status().ToString(),
            "Invalid: SolveConnectedOn2wpComponent requires a 2WP");
}

TEST(CompiledComponent2wpDiff, CompiledPathEqualsFreshWalk) {
  Rng rng(64);
  for (size_t length : kPathLengths) {
    SCOPED_TRACE(length);
    const ProbGraph instance =
        WithProbabilities(&rng, RandomTwoWayPath(&rng, length, 2));
    const CompiledComponent compiled(instance);
    const DiGraph& g = instance.graph();
    ASSERT_TRUE(compiled.two_way_path().ok());
    const TwoWayPath& path = *compiled.two_way_path();
    EXPECT_EQ(path.order, TwoWayPathOrder(g));
    ASSERT_EQ(path.edges.size(), length);
    for (size_t k = 0; k < length; ++k) {
      const Edge& e = g.edge(path.edges[k]);
      EXPECT_TRUE((e.src == path.order[k] && e.dst == path.order[k + 1]) ||
                  (e.dst == path.order[k] && e.src == path.order[k + 1]))
          << k;
    }
  }
}

TEST(CompiledComponentLazy, Concurrent2wpFirstSolves) {
  Rng rng(29);
  std::vector<size_t> lengths(std::begin(kPathLengths), std::end(kPathLengths));
  const ProbGraph instance = MakePaths(&rng, lengths, 2);
  const DiGraph query = RandomTwoWayPath(&rng, 3, 2);
  for (NumericBackend backend : kBackends) {
    SCOPED_TRACE(ToString(backend));
    SolveOptions options;
    options.numeric = backend;
    const std::vector<Answer> serial =
        SolveComponentsConcurrently(instance, query, options, 1)[0];
    for (int round = 0; round < 4; ++round) {
      for (const std::vector<Answer>& seen :
           SolveComponentsConcurrently(instance, query, options, 8)) {
        for (size_t i = 0; i < seen.size(); ++i) ExpectSame(seen[i], serial[i]);
      }
    }
  }
}

}  // namespace
}  // namespace phom
