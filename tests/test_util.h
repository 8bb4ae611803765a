#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/fallback.h"
#include "src/graph/builders.h"
#include "src/graph/digraph.h"
#include "src/graph/generators.h"
#include "src/graph/prob_graph.h"
#include "src/hom/backtrack.h"
#include "src/reductions/pp2dnf.h"
#include "src/util/bigint.h"
#include "src/util/rational.h"
#include "src/util/rng.h"

/// \file test_util.h
/// Shared fixtures and generators for the test suites: the paper's running
/// example (Figure 1 / Examples 2.1-2.2), the Figure 7/8 PP2DNF formula,
/// class-conditioned random graph generators spanning Tables 1-3, rational
/// helpers, an independent brute-force world counter, and the serve-layer
/// timing harness (a registry "gate" engine that parks workers on a latch
/// the test opens) shared by the async/degrade suites.

namespace phom::test_util {

/// Parses a decimal/fraction literal into an exact Rational, dying on
/// malformed input — test shorthand for *Rational::FromString(...).
inline Rational Q(std::string_view text) {
  Result<Rational> r = Rational::FromString(text);
  PHOM_CHECK_MSG(r.ok(), "bad rational literal in test");
  return *r;
}

/// The running example of the paper (Figure 1 / Examples 2.1-2.2).
/// Vertices: a=0, b=1, c=2, d=3. Labels: R=0, S=1.
/// Query: R(x,y) ∧ S(y,z) ∧ S(t,z), i.e. -R-> -S-> <-S-.
/// With S(b,c) at 0.7 and R-edges into b at 0.1 and 0.8, the paper's
/// computation gives 0.7 * (1 - 0.9 * 0.2) = 0.574 = 287/500.
struct PaperFigure1 {
  DiGraph query;
  ProbGraph instance;
  Rational expected;

  PaperFigure1() : query(4), instance(4), expected(287, 500) {
    AddEdgeOrDie(&query, 0, 1, 0);  // x -R-> y
    AddEdgeOrDie(&query, 1, 2, 1);  // y -S-> z
    AddEdgeOrDie(&query, 3, 2, 1);  // t -S-> z

    AddEdgeOrDie(&instance, 0, 1, 0, Rational(1, 10));  // R(a,b)
    AddEdgeOrDie(&instance, 3, 1, 0, Rational(4, 5));   // R(d,b)
    AddEdgeOrDie(&instance, 1, 2, 1, Rational(7, 10));  // S(b,c)
    AddEdgeOrDie(&instance, 0, 3, 0, Rational::One());  // R(a,d)
    AddEdgeOrDie(&instance, 2, 3, 0, Rational(1, 20));  // R(c,d)
    AddEdgeOrDie(&instance, 2, 0, 1, Rational(1, 10));  // S(c,a)
  }
};

/// A three-component serving instance mixing classes: a 2WP, a DWT and a
/// dense connected component (#P-hard cell → per-component exact fallback).
/// Shared by the serve-layer suites (executor, async) so their corpora and
/// determinism baselines agree.
inline ProbGraph MixedServeInstance(Rng* rng) {
  // Kept small (~10 edges total): the hard disconnected query in
  // MixedServeQueries routes through whole-instance world enumeration,
  // which is 2^edges — this corpus must stay tier-1 fast.
  DiGraph shape = DisjointUnion({
      RandomTwoWayPath(rng, 4, 2),
      RandomDownwardTree(rng, 4, 2, 0.4),
      RandomConnected(rng, 4, 1, 2),
  });
  return AttachRandomProbabilities(rng, std::move(shape), 3);
}

/// A batch touching every dispatch shape: componentwise connected queries,
/// whole-forest kernels, immediate answers, and a hard disconnected query.
inline std::vector<DiGraph> MixedServeQueries(Rng* rng) {
  std::vector<DiGraph> queries;
  queries.push_back(MakeLabeledPath({0}));
  queries.push_back(MakeLabeledPath({1, 0}));
  queries.push_back(MakeLabeledPath({0, 1, 0}));
  queries.push_back(RandomTwoWayPath(rng, 2, 2));
  queries.push_back(DiGraph(3));  // edgeless: immediate answer
  queries.push_back(
      DisjointUnion({MakeLabeledPath({0}), MakeLabeledPath({1})}));  // hard
  queries.push_back(MakeOneWayPath(2));  // single label: unlabeled collapse
  return queries;
}

/// A random digraph on 0..max_vertices vertices, labels below num_labels,
/// made of 1-4 blocks. Each block is a random tree (often a path; oriented
/// downward or at random) plus, sometimes, extra edges that include
/// self-loops and anti-parallel pairs; vertex ids are shuffled so blocks
/// interleave. Blocks of one vertex are isolated vertices.
inline DiGraph RandomBlockDigraph(Rng* rng, int64_t max_vertices,
                                  LabelId num_labels) {
  const size_t n = static_cast<size_t>(rng->UniformInt(0, max_vertices));
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng->engine());
  DiGraph g(n);
  auto add = [&](int64_t a, int64_t b) {
    // Duplicates on an ordered pair are rejected; loops and anti-parallel
    // pairs are not.
    (void)g.AddEdge(perm[a], perm[b],
                    static_cast<LabelId>(rng->UniformInt(0, num_labels - 1)));
  };
  const int64_t size = static_cast<int64_t>(n);
  const int64_t blocks =
      n == 0 ? 0 : rng->UniformInt(1, std::min<int64_t>(4, size));
  int64_t first = 0;
  for (int64_t b = 0; b < blocks; ++b) {
    const int64_t last = b + 1 == blocks
                             ? size
                             : rng->UniformInt(first + 1, size - blocks + b + 1);
    const bool path = rng->Bernoulli(0.5);
    const bool downward = rng->Bernoulli(0.3);
    for (int64_t v = first + 1; v < last; ++v) {
      const int64_t parent = path ? v - 1 : rng->UniformInt(first, v - 1);
      (downward || rng->Bernoulli(0.5)) ? add(parent, v) : add(v, parent);
    }
    if (rng->Bernoulli(0.4)) {
      for (int64_t k = rng->UniformInt(1, 3); k > 0; --k) {
        const int64_t a = rng->UniformInt(first, last - 1);
        add(a, rng->UniformInt(first, last - 1));
      }
    }
    first = last;
  }
  return g;
}

/// Figure 7/8's PP2DNF formula X1Y2 ∨ X1Y1 ∨ X2Y2 (0-based pairs); it has
/// exactly 8 satisfying assignments over its 4 variables.
inline Pp2Dnf MakePaperPp2Dnf() {
  Pp2Dnf f;
  f.num_x = 2;
  f.num_y = 2;
  f.clauses = {{0, 1}, {0, 0}, {1, 1}};
  return f;
}

/// Graph classes of Tables 1-3 (and their ⊔-closures) for class-conditioned
/// random generation of queries and instances.
enum class GraphClass {
  k1wp,
  k2wp,
  kDwt,
  kPt,
  kConn,
  kU1wp,
  kU2wp,
  kUDwt,
  kUPt,
};

inline const std::vector<GraphClass>& AllGraphClasses() {
  static const std::vector<GraphClass> kAll = {
      GraphClass::k1wp, GraphClass::k2wp,  GraphClass::kDwt,
      GraphClass::kPt,  GraphClass::kConn, GraphClass::kU1wp,
      GraphClass::kU2wp, GraphClass::kUDwt, GraphClass::kUPt};
  return kAll;
}

/// Random member of the class; `size` scales edges/vertices, labels are
/// uniform in [0, labels).
inline DiGraph MakeClassGraph(GraphClass kind, Rng* rng, size_t size,
                              size_t labels) {
  switch (kind) {
    case GraphClass::k1wp: return RandomOneWayPath(rng, size, labels);
    case GraphClass::k2wp: return RandomTwoWayPath(rng, size, labels);
    case GraphClass::kDwt:
      return RandomDownwardTree(rng, size + 1, labels, 0.4);
    case GraphClass::kPt: return RandomPolytree(rng, size + 1, labels);
    case GraphClass::kConn: return RandomConnected(rng, size + 1, 2, labels);
    case GraphClass::kU1wp:
      return RandomDisjointUnion(rng, 2, [&](Rng* r) {
        return RandomOneWayPath(r, 1 + size / 2, labels);
      });
    case GraphClass::kU2wp:
      return RandomDisjointUnion(rng, 2, [&](Rng* r) {
        return RandomTwoWayPath(r, 1 + size / 2, labels);
      });
    case GraphClass::kUDwt:
      return RandomDisjointUnion(rng, 2, [&](Rng* r) {
        return RandomDownwardTree(r, 2 + size / 2, labels, 0.4);
      });
    case GraphClass::kUPt:
      return RandomDisjointUnion(rng, 2, [&](Rng* r) {
        return RandomPolytree(r, 2 + size / 2, labels);
      });
  }
  return DiGraph(1);
}

/// The four dichotomy cells the cross-check corpus conditions on: three
/// PTIME cells (one per tractable algorithm family) and one #P-hard cell.
enum class CellClass { k2wp, kDwt, kPolytree, kHardCell };

inline const char* ToString(CellClass c) {
  switch (c) {
    case CellClass::k2wp: return "2WP";
    case CellClass::kDwt: return "DWT";
    case CellClass::kPolytree: return "polytree";
    case CellClass::kHardCell: return "hard-cell";
  }
  return "?";
}

inline const std::vector<CellClass>& AllCellClasses() {
  static const std::vector<CellClass> kAll = {
      CellClass::k2wp, CellClass::kDwt, CellClass::kPolytree,
      CellClass::kHardCell};
  return kAll;
}

struct CrosscheckCase {
  DiGraph query;
  ProbGraph instance;
  /// The class guarantees tractability (or, for the hard cell, hardness by
  /// construction), so the dispatcher's analysis is asserted per case.
  bool expect_tractable = false;

  CrosscheckCase() : query(0), instance(0) {}
};

/// Seed base of the cross-check corpus (PODS 2017, fixed forever). Tests
/// deriving per-class streams use kCrosscheckSeedBase + offsets.
constexpr uint64_t kCrosscheckSeedBase = 20170514;

/// Class-conditioned generators for the cross-check corpus. Instances stay
/// small enough (≤ 12 edges) that the 2^m world enumeration oracle is
/// instant.
inline CrosscheckCase MakeCrosscheckCase(CellClass cell, Rng* rng) {
  CrosscheckCase out;
  switch (cell) {
    case CellClass::k2wp: {
      // Any connected query on a 2WP instance is PTIME (Prop. 4.11).
      size_t labels = static_cast<size_t>(rng->UniformInt(1, 2));
      out.query = RandomTwoWayPath(rng, rng->UniformInt(1, 3), labels);
      out.instance = AttachRandomProbabilities(
          rng, RandomTwoWayPath(rng, rng->UniformInt(2, 10), labels), 3);
      out.expect_tractable = true;
      break;
    }
    case CellClass::kDwt: {
      // Labeled 1WP queries on DWT instances are PTIME (Prop. 4.10).
      std::vector<LabelId> pattern;
      for (int i = 0, m = rng->UniformInt(1, 3); i < m; ++i) {
        pattern.push_back(static_cast<LabelId>(rng->UniformInt(0, 1)));
      }
      out.query = MakeLabeledPath(pattern);
      out.instance = AttachRandomProbabilities(
          rng, RandomDownwardTree(rng, rng->UniformInt(3, 11), 2, 0.4), 3);
      out.expect_tractable = true;
      break;
    }
    case CellClass::kPolytree: {
      // Unlabeled DWT queries collapse to a 1WP (Prop. 5.5) and are then
      // PTIME on polytree instances via the tree-automaton route
      // (Prop. 5.4); general polytree queries on polytree instances are
      // #P-hard (Prop. 5.6), so the class conditions on DWT queries.
      out.query = RandomDownwardTree(rng, rng->UniformInt(2, 5), 1, 0.5);
      out.instance = AttachRandomProbabilities(
          rng, RandomPolytree(rng, rng->UniformInt(3, 10), 1), 3);
      out.expect_tractable = true;
      break;
    }
    case CellClass::kHardCell: {
      // Disconnected two-label query (an R-path ⊔ an S-path) on an instance
      // containing both labels: the Prop. 3.3 #P-hard cell. No collapse
      // applies (two labels, no homomorphism between the components), so the
      // dispatcher must route through the exact exponential fallback.
      std::vector<LabelId> r_part(rng->UniformInt(1, 2), 0);
      std::vector<LabelId> s_part(rng->UniformInt(1, 2), 1);
      out.query =
          DisjointUnion({MakeLabeledPath(r_part), MakeLabeledPath(s_part)});
      DiGraph shape = RandomTwoWayPath(rng, rng->UniformInt(3, 9), 2);
      // Force both labels to appear so the answer is not trivially zero.
      DiGraph relabeled(shape.num_vertices());
      for (size_t e = 0; e < shape.num_edges(); ++e) {
        Edge edge = shape.edge(static_cast<EdgeId>(e));
        if (e == 0) edge.label = 0;
        if (e + 1 == shape.num_edges()) edge.label = 1;
        AddEdgeOrDie(&relabeled, edge.src, edge.dst, edge.label);
      }
      out.instance = AttachRandomProbabilities(rng, std::move(relabeled), 3);
      out.expect_tractable = false;
      break;
    }
  }
  return out;
}

/// A Prop. 3.3 hard cell whose exact solve enumerates 2^edges worlds while
/// a Monte Carlo estimate needs only its sample budget: a disconnected
/// R ⊔ S query over a connected 2-label instance whose `edges` edges are
/// all uncertain. The first/last edges are forced to labels 0/1 so the
/// full world has a match while the empty world has none — neither of the
/// world-enumeration short-circuits fires, and the loop really runs.
/// Shared by the degradation test suites and bench_serve_degrade (the
/// bench must measure exactly the workload the tests pin down).
struct HardCellEnumerationCase {
  DiGraph query;
  ProbGraph instance;

  explicit HardCellEnumerationCase(Rng* rng, size_t edges = 20)
      : query(DisjointUnion({MakeLabeledPath({0}), MakeLabeledPath({1})})),
        instance(0) {
    size_t vertices = edges / 2 + 2;
    DiGraph shape = RandomConnected(rng, vertices, edges - (vertices - 1), 2);
    DiGraph relabeled(shape.num_vertices());
    for (EdgeId e = 0; e < shape.num_edges(); ++e) {
      Edge edge = shape.edge(e);
      if (e == 0) edge.label = 0;
      if (e + 1 == shape.num_edges()) edge.label = 1;
      AddEdgeOrDie(&relabeled, edge.src, edge.dst, edge.label);
    }
    std::vector<Rational> probs(relabeled.num_edges(), Rational(1, 3));
    instance = ProbGraph(relabeled, std::move(probs));
  }
};

// ---------------------------------------------------------------------------
// The serve-layer timing harness: a deterministic "slow" engine whose Solve
// blocks on a process-wide gate until the test opens it. Forced per request
// via overrides.force_engine, so a test controls exactly when a worker is
// busy (register-before-serve: registration happens on first use, before
// any pool touches the registry).
// ---------------------------------------------------------------------------

struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;    ///< guarded by mu
  bool open = false;  ///< guarded by mu

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void AwaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this, n] { return entered >= n; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mu);
    open = false;
    entered = 0;
  }
};

/// The per-binary gate instance (leaked intentionally: engines registered
/// in the global registry may outlive static teardown order).
inline Gate* TestGate() {
  static Gate* gate = new Gate();
  return gate;
}

/// Parks on TestGate(), then answers 1/2 in the requested backend.
class GateEngine : public Engine {
 public:
  explicit GateEngine(std::string name) : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  Algorithm algorithm() const override { return Algorithm::kFallback; }
  bool exact() const override { return false; }
  bool Applies(const CaseAnalysis&) const override { return true; }
  bool AutoMatch(const CaseAnalysis&) const override { return false; }
  Result<EngineAnswer> Solve(const PreparedProblem&,
                             const SolveOptions& options,
                             SolveStats*) const override {
    TestGate()->Enter();
    EngineAnswer out;
    out.backend = options.numeric;
    out.approx = 0.5;
    if (options.numeric == NumericBackend::kExact) out.exact = Rational(1, 2);
    return out;
  }

 private:
  std::string name_;
};

/// Registers a GateEngine under `name`, at most once per name.
inline void EnsureGateEngineRegistered(const std::string& name) {
  static std::mutex* mu = new std::mutex();
  static std::set<std::string>* registered = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  if (registered->insert(name).second) {
    EngineRegistry::Global().Register(std::make_unique<GateEngine>(name));
  }
}

/// Opens the gate on scope exit so a failing ASSERT cannot leave a worker
/// parked forever (declare AFTER the executor: destroyed first, the
/// executor's draining destructor then finds the gate open).
struct GateOpener {
  ~GateOpener() { TestGate()->Open(); }
};

/// Independent brute-force oracle: counts the subgraphs of `instance` that
/// `query` maps into by enumerating all 2^edges edge subsets directly — no
/// shared code with the solver's own fallback beyond the homomorphism test.
inline BigInt CountWorldsByEnumeration(const DiGraph& query,
                                       const DiGraph& instance) {
  size_t m = instance.num_edges();
  PHOM_CHECK(m <= 20);
  BigInt count(0);
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    DiGraph world(instance.num_vertices());
    for (size_t e = 0; e < m; ++e) {
      if ((mask >> e) & 1) {
        const Edge& edge = instance.edge(e);
        AddEdgeOrDie(&world, edge.src, edge.dst, edge.label);
      }
    }
    if (*HasHomomorphism(query, world)) count += BigInt(1);
  }
  return count;
}

/// Exact UCQ oracle, sharing no code with the lifted engine: enumerates all
/// 2^edges worlds of `instance` directly and sums the probability of every
/// world that ANY disjunct maps into. The weight of a world multiplies
/// π(e) / 1−π(e) per kept/dropped edge in exact rationals, so the result is
/// the exact union probability whatever the disjuncts' overlap structure.
inline Rational UcqProbabilityByEnumeration(
    const std::vector<DiGraph>& disjuncts, const ProbGraph& instance) {
  const DiGraph& g = instance.graph();
  const size_t m = g.num_edges();
  PHOM_CHECK(m <= 20);
  Rational total = Rational::Zero();
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    Rational weight = Rational::One();
    DiGraph world(g.num_vertices());
    for (size_t e = 0; e < m; ++e) {
      const Rational& p = instance.prob(static_cast<EdgeId>(e));
      if ((mask >> e) & 1) {
        weight *= p;
        const Edge& edge = g.edge(static_cast<EdgeId>(e));
        AddEdgeOrDie(&world, edge.src, edge.dst, edge.label);
      } else {
        weight *= p.Complement();
      }
    }
    if (weight.is_zero()) continue;
    for (const DiGraph& d : disjuncts) {
      if (*HasHomomorphism(d, world)) {
        total += weight;
        break;
      }
    }
  }
  return total;
}

struct UcqCrosscheckCase {
  Ucq ucq;
  ProbGraph instance;

  UcqCrosscheckCase() : instance(0) {}
};

/// Class-conditioned UCQ corpus maker: 1–3 small disjuncts over 2 labels
/// spanning the dichotomy's query classes, on a small 2-label instance with
/// both labels forced present (≤ 9 edges, so the world-enumeration oracle is
/// instant). The mix deliberately produces liftable unions (label-disjoint
/// disjuncts over PTIME cells), inclusion–exclusion plans (overlapping
/// labels) and not-liftable verdicts (#P-hard units) alike — the crosscheck
/// suites assert exact agreement with UcqProbabilityByEnumeration on all of
/// them, whatever the verdict.
inline UcqCrosscheckCase MakeUcqCrosscheckCase(Rng* rng) {
  UcqCrosscheckCase out;
  const size_t disjuncts = static_cast<size_t>(rng->UniformInt(1, 3));
  const std::vector<phom::GraphClass> classes = {
      phom::GraphClass::kOneWayPath, phom::GraphClass::kTwoWayPath,
      phom::GraphClass::kDownwardTree, phom::GraphClass::kConnected};
  out.ucq = RandomUcq(rng, disjuncts, classes,
                      static_cast<size_t>(rng->UniformInt(1, 3)), 2);
  DiGraph shape = RandomTwoWayPath(rng, rng->UniformInt(3, 9), 2);
  // Force both labels to appear so answers are rarely trivially zero.
  DiGraph relabeled(shape.num_vertices());
  for (EdgeId e = 0; e < shape.num_edges(); ++e) {
    Edge edge = shape.edge(e);
    if (e == 0) edge.label = 0;
    if (e + 1 == shape.num_edges()) edge.label = 1;
    AddEdgeOrDie(&relabeled, edge.src, edge.dst, edge.label);
  }
  out.instance = AttachRandomProbabilities(rng, std::move(relabeled), 3);
  return out;
}

}  // namespace phom::test_util
