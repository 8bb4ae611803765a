#include "src/lifted/lift.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "src/core/engine.h"
#include "src/graph/builders.h"
#include "src/graph/classify.h"
#include "src/lifted/shatter.h"
#include "src/util/numeric.h"

namespace phom::lifted {

namespace {

/// Subgraph induced by `vertices`; edges keep the parent graph's id order,
/// so extraction is deterministic.
DiGraph InducedSubgraph(const DiGraph& g,
                        const std::vector<VertexId>& vertices) {
  std::vector<int64_t> remap(g.num_vertices(), -1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    remap[vertices[i]] = static_cast<int64_t>(i);
  }
  DiGraph out(vertices.size());
  for (const Edge& e : g.edges()) {
    if (remap[e.src] < 0) continue;  // component edges never cross the cut
    AddEdgeOrDie(&out, static_cast<VertexId>(remap[e.src]),
                 static_cast<VertexId>(remap[e.dst]), e.label);
  }
  return out;
}

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    // Smaller root wins, so group identity is the smallest member index.
    if (a < b) parent_[b] = a;
    else if (b < a) parent_[a] = b;
  }

 private:
  std::vector<size_t> parent_;
};

/// Groups items by label overlap (transitively): items sharing any label land
/// in the same group. Groups are ordered by smallest member; members are
/// ascending. Label-disjoint groups have edge-disjoint lineages in the
/// tuple-independent instance — the independence the lifted operators exploit.
std::vector<std::vector<uint32_t>> GroupByLabelOverlap(
    const std::vector<std::vector<LabelId>>& label_sets) {
  UnionFind uf(label_sets.size());
  std::vector<std::pair<LabelId, uint32_t>> first_owner;
  for (uint32_t i = 0; i < label_sets.size(); ++i) {
    for (LabelId label : label_sets[i]) {
      bool seen = false;
      for (const auto& [l, owner] : first_owner) {
        if (l == label) {
          uf.Union(owner, i);
          seen = true;
          break;
        }
      }
      if (!seen) first_owner.emplace_back(label, i);
    }
  }
  std::vector<std::vector<uint32_t>> groups;
  std::vector<int64_t> group_of(label_sets.size(), -1);
  for (uint32_t i = 0; i < label_sets.size(); ++i) {
    const size_t root = uf.Find(i);
    if (group_of[root] < 0) {
      group_of[root] = static_cast<int64_t>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<size_t>(group_of[root])].push_back(i);
  }
  return groups;
}

/// The compiler's working state: builds plan nodes children-before-parents,
/// deduplicates leaves by canonical pattern encoding, and records the first
/// reason the plan is not a safe ("lifted") one.
struct PlanBuilder {
  const std::vector<DiGraph>& disjuncts;
  size_t instance_num_vertices;
  const InstanceContextProvider& provider;
  /// The union-label-restricted instance, for the easy-fact folds.
  const ProbGraph& restricted;

  UcqEvalPlan plan;
  std::vector<std::pair<std::vector<uint64_t>, int32_t>> leaf_memo;
  std::string cap_failure;

  int32_t AddNode(LiftedNode node) {
    plan.nodes.push_back(std::move(node));
    return static_cast<int32_t>(plan.nodes.size()) - 1;
  }

  int32_t AddConstant(Rational value) {
    LiftedNode node;
    node.op = LiftedOp::kConstant;
    node.constant = std::move(value);
    return AddNode(std::move(node));
  }

  bool IsConstZero(int32_t index) const {
    const LiftedNode& node = plan.nodes[static_cast<size_t>(index)];
    return node.op == LiftedOp::kConstant && node.constant.is_zero();
  }

  /// One engine-solved leaf for `graph` (a label-disjoint part of a subset
  /// conjunction), deduplicated across the whole plan: identical patterns
  /// recur across inclusion–exclusion subsets and must be solved once.
  int32_t MakeLeaf(DiGraph graph, const std::vector<uint32_t>& sources) {
    std::vector<uint64_t> key = CanonicalDisjunctKey(graph);
    for (const auto& [memo_key, memo_node] : leaf_memo) {
      if (memo_key != key) continue;
      const LiftedNode& node = plan.nodes[static_cast<size_t>(memo_node)];
      if (node.op == LiftedOp::kLeaf) {
        std::vector<uint32_t>& dst =
            plan.units[static_cast<size_t>(node.unit)].disjuncts;
        dst.insert(dst.end(), sources.begin(), sources.end());
        std::sort(dst.begin(), dst.end());
        dst.erase(std::unique(dst.begin(), dst.end()), dst.end());
      }
      return memo_node;
    }
    PreparedProblem leaf =
        PrepareProblemWithProvider(graph, instance_num_vertices, provider);
    int32_t node_index;
    if (leaf.immediate.has_value()) {
      node_index = AddConstant(*leaf.immediate);
    } else {
      if (!leaf.analysis.tractable && plan.not_liftable_reason.empty()) {
        plan.not_liftable_reason =
            "unit " + std::to_string(plan.units.size()) +
            " falls in #P-hard cell " + leaf.analysis.cell + " (" +
            leaf.analysis.proposition + "); it runs an exponential engine";
      }
      LiftedNode node;
      node.op = LiftedOp::kLeaf;
      node.unit = static_cast<int32_t>(plan.units.size());
      LiftedUnit unit;
      unit.query = std::move(graph);
      unit.prepared = std::move(leaf);
      unit.disjuncts = sources;
      plan.units.push_back(std::move(unit));
      node_index = AddNode(std::move(node));
    }
    leaf_memo.emplace_back(std::move(key), node_index);
    return node_index;
  }

  /// Compiles the conjunction ∧_{i∈subset} Q_i: disjoint union of the
  /// pattern graphs → core reduction → easy-fact folds → independent join
  /// over label-disjoint parts.
  int32_t CompileConjunction(const std::vector<uint32_t>& subset) {
    DiGraph conj;
    if (subset.size() == 1) {
      conj = disjuncts[subset[0]];
    } else {
      std::vector<DiGraph> graphs;
      graphs.reserve(subset.size());
      for (uint32_t i : subset) graphs.push_back(disjuncts[i]);
      conj = DisjointUnion(graphs);
    }
    conj = CoreReduceQuery(conj);

    std::vector<DiGraph> parts;
    std::vector<std::vector<VertexId>> comps = ConnectedComponents(conj);
    if (comps.size() <= 1) {
      parts.push_back(std::move(conj));
    } else {
      std::vector<DiGraph> comp_graphs;
      std::vector<std::vector<LabelId>> comp_labels;
      comp_graphs.reserve(comps.size());
      comp_labels.reserve(comps.size());
      for (const std::vector<VertexId>& c : comps) {
        comp_graphs.push_back(InducedSubgraph(conj, c));
        comp_labels.push_back(comp_graphs.back().UsedLabels());
      }
      for (const std::vector<uint32_t>& group :
           GroupByLabelOverlap(comp_labels)) {
        if (group.size() == 1) {
          parts.push_back(std::move(comp_graphs[group[0]]));
        } else {
          std::vector<DiGraph> members;
          members.reserve(group.size());
          for (uint32_t ci : group) members.push_back(std::move(comp_graphs[ci]));
          parts.push_back(DisjointUnion(members));
        }
      }
    }

    // Easy-fact folds BEFORE any unit is created: a provably-never part
    // zeroes the conjunction; certain parts are factors of 1.
    std::vector<EasyFact> facts;
    facts.reserve(parts.size());
    for (const DiGraph& part : parts) {
      facts.push_back(ClassifyEasyFact(part, restricted));
      if (facts.back() == EasyFact::kNever) {
        return AddConstant(Rational::Zero());
      }
    }
    std::vector<int32_t> children;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (facts[i] == EasyFact::kAlways) continue;
      children.push_back(MakeLeaf(std::move(parts[i]), subset));
    }
    if (children.empty()) return AddConstant(Rational::One());
    if (children.size() == 1) return children[0];
    LiftedNode node;
    node.op = LiftedOp::kIndependentJoin;
    node.children = std::move(children);
    return AddNode(std::move(node));
  }

  /// Compiles one entangled group: a single disjunct directly, otherwise
  /// inclusion–exclusion over its non-empty subsets in ascending mask order
  /// (sign (−1)^{|S|+1}), pruning subset conjunctions that folded to 0.
  /// When every cross term folded to 0 the signed sum degenerates to a plain
  /// sum over the singletons: kExclusiveUnion. Returns -1 past the cap.
  int32_t CompileGroup(const std::vector<uint32_t>& group) {
    if (group.size() == 1) return CompileConjunction(group);
    if (group.size() > kMaxEntangledDisjuncts) {
      cap_failure = "inclusion-exclusion over " +
                    std::to_string(group.size()) +
                    " entangled disjuncts exceeds the cap of " +
                    std::to_string(kMaxEntangledDisjuncts);
      return -1;
    }
    const uint32_t k = static_cast<uint32_t>(group.size());
    LiftedNode node;
    bool any_cross = false;
    for (uint32_t mask = 1; mask < (1u << k); ++mask) {
      std::vector<uint32_t> subset;
      for (uint32_t b = 0; b < k; ++b) {
        if (mask & (1u << b)) subset.push_back(group[b]);
      }
      const int32_t child = CompileConjunction(subset);
      if (IsConstZero(child)) continue;  // contributes 0 under either sign
      node.children.push_back(child);
      node.signs.push_back(std::popcount(mask) % 2 == 1 ? int8_t{1}
                                                        : int8_t{-1});
      if (std::popcount(mask) >= 2) any_cross = true;
    }
    if (node.children.empty()) return AddConstant(Rational::Zero());
    if (node.children.size() == 1 && node.signs[0] > 0) {
      return node.children[0];
    }
    node.op = any_cross ? LiftedOp::kInclusionExclusion
                        : LiftedOp::kExclusiveUnion;
    return AddNode(std::move(node));
  }

  void Compile() {
    std::vector<std::vector<LabelId>> label_sets;
    label_sets.reserve(disjuncts.size());
    for (const DiGraph& d : disjuncts) label_sets.push_back(d.UsedLabels());
    std::vector<int32_t> children;
    for (const std::vector<uint32_t>& group : GroupByLabelOverlap(label_sets)) {
      const int32_t node = CompileGroup(group);
      if (node < 0) {
        plan.nodes.clear();
        plan.units.clear();
        plan.root = -1;
        plan.lifted = false;
        plan.not_liftable_reason = cap_failure;
        return;
      }
      children.push_back(node);
    }
    if (children.size() == 1) {
      plan.root = children[0];
    } else {
      LiftedNode node;
      node.op = LiftedOp::kIndependentUnion;
      node.children = std::move(children);
      plan.root = AddNode(std::move(node));
    }
    plan.lifted = plan.not_liftable_reason.empty();
  }
};

class LiftedUcqEngine : public Engine {
 public:
  std::string_view name() const override { return "lifted-ucq"; }
  Algorithm algorithm() const override { return Algorithm::kLiftedUcq; }
  bool componentwise() const override { return true; }
  bool Applies(const CaseAnalysis& analysis) const override {
    return analysis.algorithm == Algorithm::kLiftedUcq;
  }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    if (prepared.ucq == nullptr) {
      return Status::NotSupported(
          "lifted-ucq requires a UCQ prepared by lifted::PrepareUcq");
    }
    return SolveComponentwise(*this, prepared, options, stats);
  }
};

}  // namespace

template <class Num>
Result<Num> EvaluatePlan(const UcqEvalPlan& plan,
                         const std::vector<Num>& units) {
  if (plan.root < 0) {
    return Status::NotSupported(plan.not_liftable_reason.empty()
                                    ? std::string("UCQ plan compilation failed")
                                    : plan.not_liftable_reason);
  }
  using Ops = NumericOps<Num>;
  std::vector<Num> value(plan.nodes.size(), Ops::Zero());
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const LiftedNode& node = plan.nodes[i];
    switch (node.op) {
      case LiftedOp::kConstant:
        value[i] = Ops::From(node.constant);
        break;
      case LiftedOp::kLeaf:
        value[i] = units[static_cast<size_t>(node.unit)];
        break;
      case LiftedOp::kIndependentUnion: {
        IndependentUnionAccumulator<Num> any;
        for (int32_t c : node.children) any.Add(value[static_cast<size_t>(c)]);
        value[i] = any.Total();
        break;
      }
      case LiftedOp::kIndependentJoin: {
        Num all = Ops::One();
        for (int32_t c : node.children) all *= value[static_cast<size_t>(c)];
        value[i] = all;
        break;
      }
      case LiftedOp::kExclusiveUnion:
      case LiftedOp::kInclusionExclusion: {
        // Signed partial sums may leave [0, 1]; only the final node value is
        // an event probability. The interval backend therefore accumulates
        // UNCLAMPED (WideAdd/WideSub) and clamps once at the end.
        if constexpr (std::is_same_v<Num, IntervalDouble>) {
          // Compensated signed accumulation (interval_double.h): the lower
          // endpoint collects +lo for added terms and −hi for subtracted
          // ones (crosswise, as WideSub pairs endpoints), the upper the
          // mirror — each through a TwoSum-compensated directed
          // accumulator, so an n-term alternating sum costs residual-sized
          // ulps instead of n full outward roundings per endpoint.
          interval_internal::DownSum lo;
          interval_internal::UpSum hi;
          for (size_t j = 0; j < node.children.size(); ++j) {
            const IntervalDouble& v = value[static_cast<size_t>(node.children[j])];
            if (node.signs[j] >= 0) {
              lo.Add(v.lo);
              hi.Add(v.hi);
            } else {
              lo.Add(-v.hi);
              hi.Add(-v.lo);
            }
          }
          value[i] = IntervalDouble(lo.Value(), hi.Value()).ClampedToUnit();
        } else if constexpr (std::is_same_v<Num, Rational>) {
          Rational acc = Rational::Zero();
          for (size_t j = 0; j < node.children.size(); ++j) {
            const Rational& v = value[static_cast<size_t>(node.children[j])];
            if (node.signs[j] >= 0) acc += v;
            else acc -= v;
          }
          value[i] = std::move(acc);
        } else {
          double acc = 0.0;
          for (size_t j = 0; j < node.children.size(); ++j) {
            const double v = value[static_cast<size_t>(node.children[j])];
            acc = node.signs[j] >= 0 ? acc + v : acc - v;
          }
          value[i] = std::min(1.0, std::max(0.0, acc));
        }
        break;
      }
    }
  }
  return value[static_cast<size_t>(plan.root)];
}

template Result<Rational> EvaluatePlan<Rational>(
    const UcqEvalPlan&, const std::vector<Rational>&);
template Result<double> EvaluatePlan<double>(const UcqEvalPlan&,
                                             const std::vector<double>&);
template Result<IntervalDouble> EvaluatePlan<IntervalDouble>(
    const UcqEvalPlan&, const std::vector<IntervalDouble>&);

PreparedProblem PrepareUcqWithProvider(
    const Ucq& ucq, size_t instance_num_vertices,
    const InstanceContextProvider& provider) {
  PreparedProblem out{DiGraph(0), nullptr, std::nullopt, {}};
  if (ucq.disjuncts.empty()) {
    // The empty union is constant false.
    out.analysis.algorithm = Algorithm::kTrivial;
    out.analysis.tractable = true;
    out.analysis.proposition = "trivial (empty union)";
    out.immediate = Rational::Zero();
    return out;
  }
  Ucq normalized = NormalizeUcq(ucq);
  if (normalized.disjuncts.size() == 1) {
    // Bit-identical single-CQ path: no lifting machinery runs at all.
    return PrepareProblemWithProvider(normalized.disjuncts[0],
                                      instance_num_vertices, provider);
  }
  // >= 2 disjuncts survived subsumption, so every one has >= 1 edge after
  // dropping isolated vertices: an effectively-edgeless disjunct has a
  // homomorphism into every non-empty disjunct and would have subsumed them
  // all, collapsing the union to a single disjunct above.
  if (instance_num_vertices == 0) {
    out.analysis.algorithm = Algorithm::kTrivial;
    out.analysis.tractable = true;
    out.analysis.proposition = "trivial (empty instance)";
    out.immediate = Rational::Zero();
    return out;
  }
  // Drop isolated disjunct vertices (sound: the instance is non-empty) and
  // re-normalize, so the stored union, its fingerprint, and the compiler all
  // see the same cleaned canonical form.
  Ucq cleaned;
  cleaned.disjuncts.reserve(normalized.disjuncts.size());
  for (const DiGraph& d : normalized.disjuncts) {
    cleaned.disjuncts.push_back(DropIsolatedVertices(d));
  }
  normalized = NormalizeUcq(cleaned);
  if (normalized.disjuncts.size() == 1) {
    // Only reachable when a hom test's budget behaved differently on the
    // cleaned graphs; defensively keep the single-CQ contract.
    return PrepareProblemWithProvider(normalized.disjuncts[0],
                                      instance_num_vertices, provider);
  }

  auto prepared_ucq = std::make_shared<PreparedUcq>();
  prepared_ucq->normalized = std::move(normalized);
  prepared_ucq->fingerprint = UcqFingerprint(prepared_ucq->normalized);
  out.context = provider(prepared_ucq->normalized.UsedLabels());
  PHOM_CHECK_MSG(out.context != nullptr, "context provider returned null");

  PlanBuilder builder{prepared_ucq->normalized.disjuncts,
                      instance_num_vertices,
                      provider,
                      out.context->instance(),
                      /*plan=*/{},
                      /*leaf_memo=*/{},
                      /*cap_failure=*/{}};
  builder.Compile();
  prepared_ucq->plan = std::move(builder.plan);

  out.analysis.algorithm = Algorithm::kLiftedUcq;
  out.analysis.tractable = prepared_ucq->plan.lifted;
  out.analysis.query_class =
      Classify(DisjointUnion(prepared_ucq->normalized.disjuncts));
  out.analysis.instance_class = out.context->instance_class;
  out.analysis.cell =
      "PHomUCQ(" + std::to_string(prepared_ucq->normalized.disjuncts.size()) +
      " disjuncts, " + TableClassLabel(out.analysis.instance_class) + ")";
  out.analysis.proposition =
      prepared_ucq->plan.lifted
          ? "Dalvi-Suciu safe plan"
          : "not liftable: " + prepared_ucq->plan.not_liftable_reason;
  out.query = prepared_ucq->normalized.disjuncts[0];
  out.ucq = std::move(prepared_ucq);
  return out;
}

PreparedProblem PrepareUcq(const Ucq& ucq, const ProbGraph& instance) {
  return PrepareUcqWithProvider(
      ucq, instance.num_vertices(),
      [&instance](const std::vector<LabelId>& labels) {
        return BuildInstanceContext(instance, labels);
      });
}

std::unique_ptr<Engine> MakeLiftedUcqEngine() {
  return std::make_unique<LiftedUcqEngine>();
}

}  // namespace phom::lifted
