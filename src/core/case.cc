#include "src/core/case.h"

#include "src/graph/builders.h"

namespace phom {

const char* ToString(Algorithm a) {
  switch (a) {
    case Algorithm::kTrivial: return "trivial";
    case Algorithm::kConnectedOn2wp: return "connected-on-2wp";
    case Algorithm::kPathOnDwt: return "path-on-dwt";
    case Algorithm::kUnlabeledDwtInstance: return "unlabeled-dwt-instance";
    case Algorithm::kUnlabeledPolytree: return "unlabeled-polytree";
    case Algorithm::kPerComponent: return "per-component";
    case Algorithm::kFallback: return "fallback";
    case Algorithm::kLiftedUcq: return "lifted-ucq";
  }
  return "?";
}

DiGraph DropIsolatedVertices(const DiGraph& g) {
  std::vector<int64_t> remap(g.num_vertices(), -1);
  size_t kept = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.UndirectedDegree(v) > 0) remap[v] = static_cast<int64_t>(kept++);
  }
  DiGraph out(kept);
  for (const Edge& e : g.edges()) {
    AddEdgeOrDie(&out, static_cast<VertexId>(remap[e.src]),
                 static_cast<VertexId>(remap[e.dst]), e.label);
  }
  return out;
}

std::string TableClassLabel(const Classification& c) {
  if (c.connected) return ToString(c.finest);
  if (c.all_1wp) return "u1WP";
  if (c.all_2wp && c.all_dwt) return "u(2WP|DWT)";
  if (c.all_2wp) return "u2WP";
  if (c.all_dwt) return "uDWT";
  if (c.all_pt) return "uPT";
  return "All";
}

namespace {

/// Can this instance component be solved in PTIME for this query shape?
/// Mirrors the per-component dispatch in solver.cc.
bool ComponentPolySolvable(const Classification& comp, bool query_is_1wp,
                           bool unlabeled) {
  if (comp.is_2wp) return true;                                  // Prop. 4.11
  if (comp.is_dwt) return query_is_1wp || unlabeled;  // Props. 4.10 / 3.6
  if (comp.is_pt) return unlabeled && query_is_1wp;   // Props. 5.4/5.5
  return false;
}

std::string HardnessCitation(bool unlabeled, const Classification& query,
                             const Classification& instance) {
  if (!unlabeled) {
    if (!query.connected) return "Prop. 3.3 (#P-hard)";
    if (instance.all_dwt) {
      if (query.is_2wp) return "Prop. 4.5 (#P-hard)";
      return "Prop. 4.4 (#P-hard)";
    }
    if (instance.all_pt) return "Prop. 4.1 (#P-hard)";
    return "Prop. 4.1 / [Dalvi & Suciu] (#P-hard)";
  }
  if (!query.connected) return "Prop. 3.4 (#P-hard)";
  if (instance.all_pt) return "Prop. 5.6 (#P-hard)";
  return "Prop. 5.1 / [Suciu et al.] (#P-hard)";
}

}  // namespace

InstanceContext::InstanceContext(std::vector<ComponentView> split)
    : components(std::move(split)), compiled_(components.size()) {
  component_classes.reserve(components.size());
  for (size_t i = 0; i < components.size(); ++i) {
    component_classes.push_back(Classify(components[i].graph.graph()));
    compiled_[i].emplace(components[i].graph);
  }
  instance_class = ClassifyUnion(component_classes);
}

const ProbGraph& InstanceContext::instance() const {
  std::call_once(instance_once_, [this] {
    instance_ = MergeComponents(components);
    instance_compiled_ = std::make_unique<CompiledComponent>(instance_);
  });
  return instance_;
}

const CompiledComponent& InstanceContext::compiled_instance() const {
  instance();  // builds instance_compiled_ too
  return *instance_compiled_;
}

size_t InstanceContext::NumUncertainEdges() const {
  size_t count = 0;
  for (const ComponentView& comp : components) {
    count += comp.graph.NumUncertainEdges();
  }
  return count;
}

const ProbGraph& PreparedProblem::instance() const {
  static const ProbGraph kEmpty(0);
  return context != nullptr ? context->instance() : kEmpty;
}

std::shared_ptr<const InstanceContext> BuildInstanceContext(
    const ProbGraph& instance, const std::vector<LabelId>& labels) {
  return std::make_shared<InstanceContext>(
      SplitComponents(instance, labels));
}

PreparedProblem PrepareProblem(const DiGraph& query,
                               const ProbGraph& instance) {
  return PrepareProblemWithProvider(
      query, instance.num_vertices(),
      [&instance](const std::vector<LabelId>& labels) {
        return BuildInstanceContext(instance, labels);
      });
}

PreparedProblem PrepareProblemWithProvider(
    const DiGraph& query, size_t instance_num_vertices,
    const InstanceContextProvider& provider) {
  PreparedProblem out{DiGraph(0), nullptr, std::nullopt, {}};

  // Trivial shells: empty vertex sets.
  if (query.num_vertices() == 0) {
    out.analysis.algorithm = Algorithm::kTrivial;
    out.analysis.tractable = true;
    out.analysis.proposition = "trivial (empty query)";
    out.immediate = Rational::One();
    return out;
  }
  if (instance_num_vertices == 0) {
    out.analysis.algorithm = Algorithm::kTrivial;
    out.analysis.tractable = true;
    out.analysis.proposition = "trivial (empty instance)";
    out.immediate = Rational::Zero();
    return out;
  }

  // 1. Drop isolated query vertices (instance is non-empty).
  DiGraph q = DropIsolatedVertices(query);
  if (q.num_edges() == 0) {
    out.analysis.algorithm = Algorithm::kTrivial;
    out.analysis.tractable = true;
    out.analysis.proposition = "trivial (edgeless query)";
    out.immediate = Rational::One();
    return out;
  }

  // 2. Restrict the instance to the query's labels (delegated so sessions
  // can reuse a cached context for the label set).
  std::vector<LabelId> labels = q.UsedLabels();
  out.context = provider(labels);
  PHOM_CHECK_MSG(out.context != nullptr, "context provider returned null");
  bool unlabeled = labels.size() <= 1;
  out.analysis.effective_unlabeled = unlabeled;

  Classification qc = Classify(q);
  const Classification& ic = out.context->instance_class;

  // 3. Unlabeled collapses to a 1WP query.
  if (unlabeled) {
    if (qc.all_dwt) {
      // Prop. 5.5: a ⊔DWT query is equivalent to →^maxheight everywhere.
      GradedAnalysis ga = AnalyzeGraded(q);
      PHOM_CHECK(ga.is_graded);  // trees are graded
      out.analysis.query_collapsed = true;
      out.analysis.collapsed_length = ga.difference_of_levels;
      q = MakeOneWayPath(static_cast<size_t>(ga.difference_of_levels),
                         labels[0]);
      qc = Classify(q);
    } else if (ic.all_dwt) {
      // Prop. 3.6: on forest instances any graded query collapses; a
      // non-graded query has probability 0.
      GradedAnalysis ga = AnalyzeGraded(q);
      if (!ga.is_graded) {
        out.analysis.algorithm = Algorithm::kUnlabeledDwtInstance;
        out.analysis.tractable = true;
        out.analysis.proposition = "Prop. 3.6 (non-graded query)";
        out.analysis.query_class = qc;
        out.analysis.instance_class = ic;
        out.analysis.cell = "PHom!L(" + TableClassLabel(qc) + ", " +
                            TableClassLabel(ic) + ")";
        out.immediate = Rational::Zero();
        return out;
      }
      out.analysis.query_collapsed = true;
      out.analysis.collapsed_length = ga.difference_of_levels;
      q = MakeOneWayPath(static_cast<size_t>(ga.difference_of_levels),
                         labels[0]);
      qc = Classify(q);
    }
  }

  out.analysis.query_class = qc;
  out.analysis.instance_class = ic;
  if (qc.is_1wp) out.query_path_labels = OneWayPathLabels(q);
  out.analysis.cell = std::string(unlabeled ? "PHom!L(" : "PHomL(") +
                      TableClassLabel(qc) + ", " + TableClassLabel(ic) + ")";

  // 4. Verdict + algorithm.
  bool query_is_1wp = qc.is_1wp;
  if (!qc.connected) {
    out.analysis.tractable = false;
    out.analysis.algorithm = Algorithm::kFallback;
    out.analysis.proposition = HardnessCitation(unlabeled, qc, ic);
  } else {
    // Per-component solvability over the instance (classifications cached
    // in the context).
    bool all_poly = true;
    bool any_dwt = false;
    bool any_pt_strict = false;
    bool all_2wp = true;
    for (const Classification& cc : out.context->component_classes) {
      all_poly =
          all_poly && ComponentPolySolvable(cc, query_is_1wp, unlabeled);
      any_dwt = any_dwt || (cc.is_dwt && !cc.is_2wp);
      any_pt_strict = any_pt_strict || (cc.is_pt && !cc.is_dwt && !cc.is_2wp);
      all_2wp = all_2wp && cc.is_2wp;
    }
    out.analysis.tractable = all_poly;
    if (!all_poly) {
      out.analysis.algorithm = Algorithm::kFallback;
      out.analysis.proposition = HardnessCitation(unlabeled, qc, ic);
    } else if (all_2wp) {
      out.analysis.algorithm = Algorithm::kConnectedOn2wp;
      out.analysis.proposition = "Prop. 4.11";
    } else if (unlabeled && ic.all_dwt) {
      out.analysis.algorithm = out.analysis.query_collapsed
                                   ? Algorithm::kUnlabeledDwtInstance
                                   : Algorithm::kPathOnDwt;
      out.analysis.proposition =
          out.analysis.query_collapsed ? "Prop. 3.6" : "Prop. 4.10";
    } else if (!unlabeled && ic.all_dwt) {
      out.analysis.algorithm = Algorithm::kPathOnDwt;
      out.analysis.proposition = "Prop. 4.10";
    } else if (unlabeled && any_pt_strict && !any_dwt && ic.all_pt) {
      out.analysis.algorithm = Algorithm::kUnlabeledPolytree;
      out.analysis.proposition = "Props. 5.4/5.5";
    } else {
      out.analysis.algorithm = Algorithm::kPerComponent;
      out.analysis.proposition = "Props. 4.11/4.10/3.6/5.4 + Lemma 3.7";
    }
  }

  out.query = std::move(q);
  return out;
}

CaseAnalysis AnalyzeCase(const DiGraph& query, const ProbGraph& instance) {
  return PrepareProblem(query, instance).analysis;
}

}  // namespace phom
