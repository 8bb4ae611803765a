#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/core/algo_dwt.h"
#include "src/core/path_pattern.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/util/interval_double.h"
#include "test_util.h"

/// Differential suite for the fraction-free exact DWT DP (Prop. 4.10): on
/// random ⊔DWTs the exact answer must equal, numerator and denominator, the
/// lineage + Shannon engine, the independent Rational DP of the path-pattern
/// solver (child axes only) and, on small instances, the sum of world
/// probabilities; the match-end count must equal a rootward walk.

namespace phom {
namespace {

enum class Regime { kDyadic, kSmallNonDyadic, kZeroHalfOne, kBeyond64, kMixed };

/// k / 2^j with j in [1, 6], endpoints included.
Rational Dyadic(Rng* rng) {
  return rng->DyadicProbability(static_cast<int>(rng->UniformInt(1, 6)));
}

/// k / d with d in [3, 12]: mostly not dyadic.
Rational SmallNonDyadic(Rng* rng) {
  int64_t d = rng->UniformInt(3, 12);
  return Rational(rng->UniformInt(0, d), d);
}

Rational ZeroHalfOne(Rng* rng) {
  static const std::vector<Rational> kValues = {
      Rational::Zero(), Rational::Half(), Rational::One()};
  return rng->Pick(kValues);
}

/// k / (2^j + odd) with j in [65, 100]: denominators wider than 64 bits.
Rational Beyond64(Rng* rng) {
  uint64_t j = static_cast<uint64_t>(rng->UniformInt(65, 100));
  BigInt den = BigInt::Pow2(j) + BigInt(2 * rng->UniformInt(0, 1 << 20) + 1);
  BigInt num = BigInt(rng->UniformInt(0, int64_t{1} << 62))
                   .ShiftLeft(static_cast<uint64_t>(rng->UniformInt(0, 2))) +
               BigInt(rng->UniformInt(0, 1000));
  if (rng->Bernoulli(0.5)) num = den - num;  // probabilities near 1 too
  return Rational(num, den);
}

Rational DrawProbability(Rng* rng, Regime regime) {
  switch (regime) {
    case Regime::kDyadic: return Dyadic(rng);
    case Regime::kSmallNonDyadic: return SmallNonDyadic(rng);
    case Regime::kZeroHalfOne: return ZeroHalfOne(rng);
    case Regime::kBeyond64: return Beyond64(rng);
    case Regime::kMixed: break;
  }
  switch (rng->UniformInt(0, 3)) {
    case 0: return Dyadic(rng);
    case 1: return SmallNonDyadic(rng);
    case 2: return ZeroHalfOne(rng);
    default: return Beyond64(rng);
  }
}

/// A random forest over labels {0, 1} on 1-24 vertices: ~15% of the vertices
/// start a new tree, the others hang below the previous vertex (deep runs)
/// or a random earlier one (branching). Vertex ids and edge insertion order
/// are shuffled so neither follows the BFS order.
struct RandomForest {
  DiGraph graph;
  std::vector<int64_t> parent;  // by vertex id, -1 for roots
  std::vector<EdgeId> parent_edge;
};

RandomForest MakeRandomForest(Rng* rng, size_t max_vertices) {
  size_t n = static_cast<size_t>(rng->UniformInt(1, max_vertices));
  std::vector<VertexId> id(n);
  std::iota(id.begin(), id.end(), VertexId{0});
  std::shuffle(id.begin(), id.end(), rng->engine());
  struct Draft { VertexId src, dst; LabelId label; };
  std::vector<Draft> drafts;
  for (size_t i = 1; i < n; ++i) {
    if (rng->Bernoulli(0.15)) continue;  // a new root
    size_t p = rng->Bernoulli(0.6) ? i - 1
                                    : static_cast<size_t>(rng->UniformInt(
                                          0, static_cast<int64_t>(i) - 1));
    LabelId label = static_cast<LabelId>(rng->UniformInt(0, 1));
    drafts.push_back({id[p], id[i], label});
  }
  std::shuffle(drafts.begin(), drafts.end(), rng->engine());
  RandomForest f{DiGraph(n), std::vector<int64_t>(n, -1),
                 std::vector<EdgeId>(n, 0)};
  for (const Draft& d : drafts) {
    EdgeId e = AddEdgeOrDie(&f.graph, d.src, d.dst, d.label);
    f.parent[d.dst] = d.src;
    f.parent_edge[d.dst] = e;
  }
  return f;
}

/// The labels of the m edges above `v`, top edge first; empty if `v` has
/// fewer than m ancestors.
std::vector<LabelId> RootwardWord(const RandomForest& f, VertexId v,
                                  size_t m) {
  std::vector<LabelId> word;
  for (VertexId w = v; word.size() < m;) {
    if (f.parent[w] < 0) return {};
    word.push_back(f.graph.edge(f.parent_edge[w]).label);
    w = static_cast<VertexId>(f.parent[w]);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

/// Match ends by a rootward walk from every vertex (no KMP).
std::vector<bool> NaiveMatchEnds(const RandomForest& f,
                                 const std::vector<LabelId>& labels) {
  std::vector<bool> match(f.graph.num_vertices(), false);
  for (VertexId v = 0; v < f.graph.num_vertices(); ++v) {
    match[v] = RootwardWord(f, v, labels.size()) == labels;
  }
  return match;
}

/// A query of 1-6 labels: mostly read off a rootward path of the forest,
/// so that matches are common, otherwise random.
std::vector<LabelId> DrawQuery(Rng* rng, const RandomForest& f) {
  size_t m = static_cast<size_t>(rng->UniformInt(1, 6));
  if (rng->Bernoulli(0.75)) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      VertexId v = static_cast<VertexId>(rng->UniformInt(
          0, static_cast<int64_t>(f.graph.num_vertices()) - 1));
      std::vector<LabelId> word = RootwardWord(f, v, m);
      if (!word.empty()) return word;
    }
  }
  std::vector<LabelId> labels(m);
  for (LabelId& l : labels) l = static_cast<LabelId>(rng->UniformInt(0, 1));
  return labels;
}

/// Does the world `kept` contain a rootward match?
bool WorldHasMatch(const RandomForest& f, size_t m,
                   const std::vector<bool>& match,
                   const std::vector<bool>& kept) {
  for (VertexId v = 0; v < match.size(); ++v) {
    if (!match[v]) continue;
    bool all_kept = true;
    VertexId w = v;
    for (size_t step = 0; step < m; ++step) {
      all_kept = all_kept && kept[f.parent_edge[w]];
      w = static_cast<VertexId>(f.parent[w]);
    }
    if (all_kept) return true;
  }
  return false;
}

/// Σ of the probabilities of the 2^|E| worlds with a kept rootward match.
/// A depth-first walk over the edges carries each world's weight as the
/// integer Π a_e · Π (b_e - a_e) over the common denominator Π b_e.
void EnumerateWorlds(const ProbGraph& h, const RandomForest& f, size_t m,
                     const std::vector<bool>& match, size_t e,
                     const BigInt& weight, std::vector<bool>* kept,
                     BigInt* total) {
  if (e == h.num_edges()) {
    if (WorldHasMatch(f, m, match, *kept)) *total += weight;
    return;
  }
  const Rational& p = h.prob(e);
  (*kept)[e] = true;
  EnumerateWorlds(h, f, m, match, e + 1, weight * p.num(), kept, total);
  (*kept)[e] = false;
  EnumerateWorlds(h, f, m, match, e + 1, weight * (p.den() - p.num()), kept,
                  total);
}

Rational ProbabilityByEnumeration(const ProbGraph& h, const RandomForest& f,
                                  size_t m, const std::vector<bool>& match) {
  std::vector<bool> kept(h.num_edges());
  BigInt total(0);
  EnumerateWorlds(h, f, m, match, 0, BigInt(1), &kept, &total);
  BigInt den(1);
  for (const Rational& p : h.probs()) den *= p.den();
  return Rational(total, den);
}

/// Structural coverage of a run, asserted after it.
struct Coverage {
  int multi_root = 0;        // >= 2 roots with a match end below
  int off_spine_child = 0;   // a spine vertex with a child off the spine
  int two_spine_children = 0;
  int enumerated = 0;
  int nonzero = 0;
};

void Observe(const RandomForest& f, const std::vector<bool>& match,
             Coverage* cov) {
  size_t n = f.graph.num_vertices();
  std::vector<bool> spine(n, false);
  for (VertexId v = 0; v < n; ++v) {
    if (!match[v]) continue;
    for (int64_t w = v; w >= 0 && !spine[w]; w = f.parent[w]) spine[w] = true;
  }
  int spine_roots = 0;
  bool off = false;
  bool two = false;
  for (VertexId v = 0; v < n; ++v) {
    if (!spine[v]) continue;
    if (f.parent[v] < 0) ++spine_roots;
    int spine_children = 0;
    for (EdgeId e : f.graph.OutEdges(v)) {
      if (spine[f.graph.edge(e).dst]) {
        ++spine_children;
      } else {
        off = true;
      }
    }
    two = two || spine_children >= 2;
  }
  cov->multi_root += spine_roots >= 2;
  cov->off_spine_child += off;
  cov->two_spine_children += two;
}

void RunRegime(Regime regime, uint64_t seed, int cases) {
  Rng rng(seed);
  Coverage cov;
  for (int trial = 0; trial < cases; ++trial) {
    RandomForest f = MakeRandomForest(&rng, 24);
    std::vector<Rational> probs;
    for (size_t e = 0; e < f.graph.num_edges(); ++e) {
      probs.push_back(DrawProbability(&rng, regime));
    }
    ProbGraph h(f.graph, probs);
    std::vector<LabelId> labels = DrawQuery(&rng, f);
    std::vector<bool> match = NaiveMatchEnds(f, labels);
    Observe(f, match, &cov);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", m = "
                                      << labels.size() << ", "
                                      << h.num_edges() << " edges");

    DwtStats stats;
    Result<Rational> exact = SolvePathOnDwtForestT<Rational>(labels, h, &stats);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    size_t naive_ends =
        static_cast<size_t>(std::count(match.begin(), match.end(), true));
    EXPECT_EQ(stats.match_ends, naive_ends);
    cov.nonzero += !exact->is_zero();

    DwtStats lineage_stats;
    Result<Rational> lineage = SolvePathOnDwtForestViaLineageT<Rational>(
        labels, h, nullptr, &lineage_stats);
    ASSERT_TRUE(lineage.ok());
    EXPECT_EQ(exact->num(), lineage->num());
    EXPECT_EQ(exact->den(), lineage->den());
    EXPECT_EQ(stats.match_ends, lineage_stats.match_ends);

    PathPattern chain;
    for (LabelId l : labels) chain.steps.push_back({l, false});
    Result<Rational> pattern = SolvePathPatternOnDwtForest(chain, h);
    ASSERT_TRUE(pattern.ok());
    EXPECT_EQ(exact->num(), pattern->num());
    EXPECT_EQ(exact->den(), pattern->den());

    // The approximate backends run the same DP loop with (p, 1-p) weights.
    Result<IntervalDouble> interval =
        SolvePathOnDwtForestT<IntervalDouble>(labels, h, nullptr);
    ASSERT_TRUE(interval.ok());
    EXPECT_LE(Rational::FromDouble(interval->lo), *exact);
    EXPECT_GE(Rational::FromDouble(interval->hi), *exact);
    Result<double> approx = SolvePathOnDwtForestT<double>(labels, h, nullptr);
    ASSERT_TRUE(approx.ok());
    EXPECT_NEAR(*approx, exact->ToDouble(), 1e-12);

    if (h.num_edges() <= 14 && cov.enumerated < 150) {
      ++cov.enumerated;
      Rational brute =
          ProbabilityByEnumeration(h, f, labels.size(), match);
      EXPECT_EQ(exact->num(), brute.num());
      EXPECT_EQ(exact->den(), brute.den());
    }
  }
  EXPECT_GE(cov.multi_root, cases / 20);
  EXPECT_GE(cov.off_spine_child, cases / 5);
  EXPECT_GE(cov.two_spine_children, cases / 10);
  EXPECT_GE(cov.enumerated, 100);
  EXPECT_GE(cov.nonzero, cases / 5);
}

TEST(DwtExactDiff, Dyadic) { RunRegime(Regime::kDyadic, 2101, 800); }

TEST(DwtExactDiff, SmallNonDyadic) {
  RunRegime(Regime::kSmallNonDyadic, 2102, 800);
}

TEST(DwtExactDiff, ZeroHalfOne) {
  RunRegime(Regime::kZeroHalfOne, 2103, 800);
}

TEST(DwtExactDiff, DenominatorsBeyond64Bits) {
  RunRegime(Regime::kBeyond64, 2104, 800);
}

TEST(DwtExactDiff, MixedRegimes) { RunRegime(Regime::kMixed, 2105, 800); }

/// The counting view reaches the same DP through the exact backend with
/// every probability 1/2: its world count must equal brute force.
TEST(DwtExactDiff, CountSatisfyingWorldsMatchesEnumeration) {
  Rng rng(2106);
  SolveOptions options;
  options.force_engine = "path-on-dwt";
  int nonzero = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomForest f = MakeRandomForest(&rng, 12);
    std::vector<LabelId> labels = DrawQuery(&rng, f);
    DiGraph query = MakeLabeledPath(labels);
    Result<BigInt> count = CountSatisfyingWorlds(query, f.graph, options);
    ASSERT_TRUE(count.ok()) << trial << ": " << count.status().ToString();
    EXPECT_EQ(*count, test_util::CountWorldsByEnumeration(query, f.graph))
        << trial;
    nonzero += !count->is_zero();
  }
  EXPECT_GE(nonzero, 20);
}

}  // namespace
}  // namespace phom
