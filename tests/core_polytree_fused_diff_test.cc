#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "src/automata/binary_encoding.h"
#include "src/automata/provenance.h"
#include "src/automata/tree_automaton.h"
#include "src/circuits/dnnf.h"
#include "src/core/algo_polytree.h"
#include "src/graph/builders.h"
#include "src/graph/classify.h"
#include "src/util/interval_double.h"
#include "test_util.h"

/// Differential suite for the fused Prop. 5.4 DP: on random polytrees the
/// per-node state DP of SolvePathProbabilityOnPolytreeT must equal, bit for
/// bit on every backend, the bottom-up evaluation of the automaton's
/// materialized provenance d-DNNF (BuildProvenanceCircuit +
/// DnnfProbabilityT), and its PolytreeStats must equal the circuit's sizes.
/// On small instances the exact answer must equal the sum of the world
/// probabilities and the interval answer must enclose it.

namespace phom {
namespace {

enum class Regime { kDyadic, kTenths, kZeroHalfOne, kBeyond64 };

Rational DrawProbability(Rng* rng, Regime regime) {
  switch (regime) {
    case Regime::kDyadic:
      return rng->DyadicProbability(static_cast<int>(rng->UniformInt(1, 6)));
    case Regime::kTenths:
      return Rational(rng->UniformInt(0, 10), 10);
    case Regime::kZeroHalfOne: {
      static const std::vector<Rational> kValues = {
          Rational::Zero(), Rational::Half(), Rational::One()};
      return rng->Pick(kValues);
    }
    case Regime::kBeyond64:
      break;
  }
  // k / (2^j + odd) with j in [65, 100]: denominators wider than 64 bits.
  uint64_t j = static_cast<uint64_t>(rng->UniformInt(65, 100));
  BigInt den = BigInt::Pow2(j) + BigInt(2 * rng->UniformInt(0, 1 << 20) + 1);
  BigInt num = BigInt(rng->UniformInt(0, int64_t{1} << 62))
                   .ShiftLeft(static_cast<uint64_t>(rng->UniformInt(0, 2))) +
               BigInt(rng->UniformInt(0, 1000));
  if (rng->Bernoulli(0.5)) num = den - num;  // probabilities near 1 too
  return Rational(num, den);
}

enum class Shape { kRandom, kStar, kChain };

/// A random polytree on 1-20 vertices: a random recursive tree, a star or a
/// chain, every edge oriented at random, vertex ids and edge insertion order
/// shuffled (so vertex 0, the encoding's root, sits anywhere).
DiGraph MakeRandomPolytree(Rng* rng, Shape shape) {
  size_t n = static_cast<size_t>(rng->UniformInt(1, 20));
  std::vector<VertexId> id(n);
  std::iota(id.begin(), id.end(), VertexId{0});
  std::shuffle(id.begin(), id.end(), rng->engine());
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (size_t i = 1; i < n; ++i) {
    size_t p = shape == Shape::kStar    ? 0
               : shape == Shape::kChain ? i - 1
                                        : static_cast<size_t>(rng->UniformInt(
                                              0, static_cast<int64_t>(i) - 1));
    if (rng->Bernoulli(0.5)) {
      edges.push_back({id[p], id[i]});
    } else {
      edges.push_back({id[i], id[p]});
    }
  }
  std::shuffle(edges.begin(), edges.end(), rng->engine());
  DiGraph g(n);
  for (const auto& [src, dst] : edges) AddEdgeOrDie(&g, src, dst, 0);
  return g;
}

/// Σ of the probabilities of the 2^|E| worlds whose longest directed path
/// has >= m edges. A depth-first walk over the edges carries each world's
/// weight as the integer Π a_e · Π (b_e - a_e) over the denominator Π b_e.
void EnumerateWorlds(const ProbGraph& h, uint32_t m, EdgeId e,
                     const BigInt& weight, DiGraph* world, BigInt* total) {
  if (weight.is_zero()) return;
  if (e == h.num_edges()) {
    if (LongestDirectedPath(*world) >= m) *total += weight;
    return;
  }
  const Rational& p = h.prob(e);
  EnumerateWorlds(h, m, e + 1, weight * (p.den() - p.num()), world, total);
  DiGraph with_edge = *world;
  const Edge& edge = h.graph().edge(e);
  AddEdgeOrDie(&with_edge, edge.src, edge.dst, edge.label);
  EnumerateWorlds(h, m, e + 1, weight * p.num(), &with_edge, total);
}

Rational ProbabilityByEnumeration(const ProbGraph& h, uint32_t m) {
  DiGraph world(h.graph().num_vertices());
  BigInt total(0);
  EnumerateWorlds(h, m, 0, BigInt(1), &world, &total);
  BigInt den(1);
  for (const Rational& p : h.probs()) den *= p.den();
  return Rational(total, den);
}

/// Number of accepting states the run reaches at the root on some
/// positive-probability world: reachable state sets, node by node.
size_t AcceptingRootStates(const LongestRunAutomaton& automaton,
                           const EncodedPolytree& tree) {
  std::vector<std::set<uint32_t>> reach(tree.nodes.size());
  for (size_t t = 0; t < tree.nodes.size(); ++t) {
    const EncodedNode& node = tree.nodes[t];
    for (bool present : {true, false}) {
      if (present ? node.prob.is_zero() : node.prob.is_one()) continue;
      if (node.IsLeaf()) {
        reach[t].insert(automaton.LeafState(node.label, present));
        continue;
      }
      for (uint32_t ql : reach[node.left]) {
        for (uint32_t qr : reach[node.right]) {
          reach[t].insert(automaton.Transition(node.label, present, ql, qr));
        }
      }
    }
  }
  return static_cast<size_t>(
      std::count_if(reach[tree.root].begin(), reach[tree.root].end(),
                    [&](uint32_t q) { return automaton.IsAccepting(q); }));
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

void ExpectSame(const Rational& fused, const Rational& circuit) {
  EXPECT_EQ(fused.num(), circuit.num());
  EXPECT_EQ(fused.den(), circuit.den());
}
void ExpectSame(double fused, double circuit) {
  EXPECT_EQ(Bits(fused), Bits(circuit)) << fused << " vs " << circuit;
}
void ExpectSame(const IntervalDouble& fused, const IntervalDouble& circuit) {
  EXPECT_EQ(Bits(fused.lo), Bits(circuit.lo))
      << fused.lo << " vs " << circuit.lo;
  EXPECT_EQ(Bits(fused.hi), Bits(circuit.hi))
      << fused.hi << " vs " << circuit.hi;
}

/// The fused DP against the circuit, answer and sizes, in the backend of
/// `Num`; returns the answer.
template <class Num>
Num CheckAgainstCircuit(uint32_t m, const ProbGraph& h,
                        const ProvenanceCircuit& provenance,
                        size_t encoded_nodes) {
  BackendProbs<Num> var_probs(provenance.var_probs);
  Num circuit =
      DnnfProbabilityT<Num>(provenance.circuit, provenance.root_gate,
                            *var_probs);
  PolytreeStats stats;
  Result<Num> fused = SolvePathProbabilityOnPolytreeT<Num>(m, h, &stats);
  EXPECT_TRUE(fused.ok()) << fused.status().ToString();
  if (!fused.ok()) return circuit;
  ExpectSame(*fused, circuit);
  EXPECT_EQ(stats.encoded_nodes, encoded_nodes);
  EXPECT_EQ(stats.circuit_gates, provenance.circuit.num_gates());
  EXPECT_EQ(stats.state_pairs, provenance.state_pairs);
  EXPECT_EQ(stats.max_states_per_node, provenance.max_states_per_node);
  return *fused;
}

/// Structural coverage of a run, asserted after it.
struct Coverage {
  int certain_or_impossible_edge = 0;  // a pruned branch (p = 0 or 1)
  int no_accepting_root_state = 0;
  int several_accepting_root_states = 0;
  int enumerated = 0;
  int nonzero = 0;
};

void RunRegime(Regime regime, uint64_t seed, int cases) {
  Rng rng(seed);
  Coverage cov;
  for (int trial = 0; trial < cases; ++trial) {
    const Shape shape = rng.Bernoulli(0.6)   ? Shape::kRandom
                        : rng.Bernoulli(0.5) ? Shape::kStar
                                             : Shape::kChain;
    DiGraph g = MakeRandomPolytree(&rng, shape);
    std::vector<Rational> probs;
    for (size_t e = 0; e < g.num_edges(); ++e) {
      probs.push_back(DrawProbability(&rng, regime));
    }
    ProbGraph h(g, probs);
    const uint32_t m = static_cast<uint32_t>(rng.UniformInt(1, 6));
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", m = " << m
                                      << ", " << h.num_edges() << " edges");
    if (h.num_edges() == 0) {
      PolytreeStats stats;
      EXPECT_TRUE(SolvePathProbabilityOnPolytreeT<Rational>(m, h, &stats)
                      ->is_zero());
      EXPECT_EQ(stats.circuit_gates, 0u);
      continue;
    }

    Result<EncodedPolytree> tree = EncodePolytree(h);
    ASSERT_TRUE(tree.ok());
    LongestRunAutomaton automaton(m);
    ProvenanceCircuit provenance = BuildProvenanceCircuit(automaton, *tree);
    const size_t nodes = tree->nodes.size();
    Rational exact = CheckAgainstCircuit<Rational>(m, h, provenance, nodes);
    CheckAgainstCircuit<double>(m, h, provenance, nodes);
    IntervalDouble interval =
        CheckAgainstCircuit<IntervalDouble>(m, h, provenance, nodes);
    EXPECT_LE(Rational::FromDouble(interval.lo), exact);
    EXPECT_GE(Rational::FromDouble(interval.hi), exact);

    // Coverage: pruned branches, and how many root states accept. Some
    // state accepts iff the edges of positive probability hold a directed
    // path of m edges (the longest path only grows with the world).
    bool pruned = false;
    DiGraph positive(g.num_vertices());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      pruned = pruned || probs[e].is_zero() || probs[e].is_one();
      if (!probs[e].is_zero()) {
        AddEdgeOrDie(&positive, g.edge(e).src, g.edge(e).dst, 0);
      }
    }
    const size_t accepting = AcceptingRootStates(automaton, *tree);
    EXPECT_EQ(accepting == 0, LongestDirectedPath(positive) < m);
    cov.certain_or_impossible_edge += pruned;
    cov.no_accepting_root_state += accepting == 0;
    cov.several_accepting_root_states += accepting >= 2;
    cov.nonzero += !exact.is_zero();

    if (h.num_edges() <= 14 && cov.enumerated < 60) {
      ++cov.enumerated;
      Rational brute = ProbabilityByEnumeration(h, m);
      EXPECT_EQ(exact.num(), brute.num());
      EXPECT_EQ(exact.den(), brute.den());
    }
  }
  EXPECT_GE(cov.no_accepting_root_state, cases / 10);
  EXPECT_GE(cov.several_accepting_root_states, cases / 10);
  EXPECT_GE(cov.enumerated, 50);
  EXPECT_GE(cov.nonzero, cases / 5);
  if (regime == Regime::kZeroHalfOne || regime == Regime::kTenths) {
    EXPECT_GE(cov.certain_or_impossible_edge, cases / 4);
  }
}

TEST(PolytreeFusedDiff, Dyadic) { RunRegime(Regime::kDyadic, 2501, 300); }

TEST(PolytreeFusedDiff, Tenths) { RunRegime(Regime::kTenths, 2502, 300); }

TEST(PolytreeFusedDiff, ZeroHalfOne) {
  RunRegime(Regime::kZeroHalfOne, 2503, 300);
}

TEST(PolytreeFusedDiff, DenominatorsBeyond64Bits) {
  RunRegime(Regime::kBeyond64, 2504, 150);
}

/// Queries of 16-19 edges: past the DP's dense state index ((m + 1)^3 >
/// 4096 states), so states are found through its hash map. Near-directed
/// chains keep such long paths likely.
TEST(PolytreeFusedDiff, LongQueriesPastTheDenseStateIndex) {
  Rng rng(2506);
  int nonzero = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(17, 22));
    DiGraph g(n);
    for (VertexId v = 1; v < n; ++v) {
      if (rng.Bernoulli(0.95)) {
        AddEdgeOrDie(&g, v - 1, v, 0);
      } else {
        AddEdgeOrDie(&g, v, v - 1, 0);
      }
    }
    std::vector<Rational> probs;
    for (size_t e = 0; e < g.num_edges(); ++e) {
      probs.push_back(Rational(rng.UniformInt(1, 10), 10));  // never 0
    }
    ProbGraph h(g, probs);
    const uint32_t m = static_cast<uint32_t>(rng.UniformInt(16, 19));
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", m = " << m);
    Result<EncodedPolytree> tree = EncodePolytree(h);
    ASSERT_TRUE(tree.ok());
    ProvenanceCircuit provenance =
        BuildProvenanceCircuit(LongestRunAutomaton(m), *tree);
    const size_t nodes = tree->nodes.size();
    Rational exact = CheckAgainstCircuit<Rational>(m, h, provenance, nodes);
    CheckAgainstCircuit<double>(m, h, provenance, nodes);
    CheckAgainstCircuit<IntervalDouble>(m, h, provenance, nodes);
    nonzero += !exact.is_zero();
  }
  EXPECT_GE(nonzero, 10);
}

/// The ⊔DWT front end over a forest of random polytrees equals Lemma 3.7
/// over the per-component circuits, and rejects a non-polytree component.
TEST(PolytreeFusedDiff, ForestCombinesComponentCircuits) {
  Rng rng(2505);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<DiGraph> parts;
    for (int64_t k = rng.UniformInt(1, 3); k > 0; --k) {
      parts.push_back(MakeRandomPolytree(&rng, Shape::kRandom));
    }
    DiGraph g = DisjointUnion(parts);
    std::vector<Rational> probs;
    for (size_t e = 0; e < g.num_edges(); ++e) {
      probs.push_back(DrawProbability(&rng, Regime::kTenths));
    }
    ProbGraph h(g, probs);
    const uint32_t m = static_cast<uint32_t>(rng.UniformInt(1, 4));
    DiGraph query = MakeOneWayPath(m);
    PolytreeStats stats;
    Result<IntervalDouble> fused =
        SolveDwtQueryOnPolytreeForestT<IntervalDouble>(query, h, &stats);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();

    using Ops = NumericOps<IntervalDouble>;
    IntervalDouble none = Ops::One();
    size_t gates = 0;
    for (const ComponentView& c : SplitComponents(h)) {
      IntervalDouble p = Ops::Zero();
      if (c.graph.num_edges() > 0) {
        ProvenanceCircuit provenance = BuildProvenanceCircuit(
            LongestRunAutomaton(m), *EncodePolytree(c.graph));
        BackendProbs<IntervalDouble> var_probs(provenance.var_probs);
        p = DnnfProbabilityT<IntervalDouble>(
            provenance.circuit, provenance.root_gate, *var_probs);
        gates += provenance.circuit.num_gates();
      }
      none *= Ops::Complement(p);
    }
    ExpectSame(*fused, Ops::Complement(none));
    EXPECT_EQ(stats.circuit_gates, gates);
  }

  DiGraph cycle = MakeOneWayPath(3);
  AddEdgeOrDie(&cycle, 3, 0, 0);
  EXPECT_FALSE(SolveDwtQueryOnPolytreeForestT<double>(
                   MakeOneWayPath(1), ProbGraph::Certain(cycle), nullptr)
                   .ok());
  EXPECT_FALSE(SolvePathProbabilityOnPolytreeT<double>(
                   1, ProbGraph::Certain(cycle), nullptr)
                   .ok());
}

/// EncodePolytree decides polytreehood from the edge count and its BFS
/// alone; on every small graph (self-loops, anti-parallel pairs, cycles,
/// forests) its verdict must be Classify's, and the solver must refuse what
/// it refuses. A triangle plus an isolated vertex and a self-loop plus an
/// isolated vertex have |E| = |V| - 1 and are caught by the BFS.
TEST(PolytreeFusedDiff, EncoderAcceptsExactlyThePolytrees) {
  DiGraph triangle(4);
  AddEdgeOrDie(&triangle, 0, 1, 0);
  AddEdgeOrDie(&triangle, 1, 2, 0);
  AddEdgeOrDie(&triangle, 0, 2, 0);
  DiGraph loop(2);
  AddEdgeOrDie(&loop, 1, 1, 0);
  for (const DiGraph& g : {triangle, loop}) {
    EXPECT_FALSE(EncodePolytree(ProbGraph::Certain(g)).ok());
    EXPECT_FALSE(
        SolvePathProbabilityOnPolytreeT<Rational>(1, ProbGraph::Certain(g),
                                                  nullptr)
            .ok());
  }

  Rng rng(2507);
  int polytrees = 0;
  int rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 6));
    DiGraph g(n);
    const double density = rng.Bernoulli(0.5) ? 0.15 : 0.4;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        if (rng.Bernoulli(u == v ? density / 4 : density)) {
          AddEdgeOrDie(&g, u, v, 0);
        }
      }
    }
    const bool is_pt = IsPolytree(g);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", " << n
                                      << " vertices, " << g.num_edges()
                                      << " edges, polytree " << is_pt);
    ProbGraph h = ProbGraph::Certain(g);
    EXPECT_EQ(EncodePolytree(h).ok(), is_pt);
    if (g.num_edges() > 0) {
      EXPECT_EQ(SolvePathProbabilityOnPolytreeT<double>(1, h, nullptr).ok(),
                is_pt);
    }
    polytrees += is_pt;
    rejected += !is_pt && g.num_edges() + 1 == n;
  }
  EXPECT_GE(polytrees, 200);
  EXPECT_GE(rejected, 50);  // non-polytrees that pass the edge count
}

}  // namespace
}  // namespace phom
