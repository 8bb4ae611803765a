#include <algorithm>
#include <type_traits>

#include "src/core/algo_dwt.h"
#include "src/core/algo_polytree.h"
#include "src/core/algo_two_way_path.h"
#include "src/core/engine.h"
#include "src/core/fallback.h"
#include "src/core/monte_carlo.h"
#include "src/graph/graded.h"
#include "src/lifted/lift.h"

/// \file engines.cc
/// The built-in engines. Each engine is a thin adapter from the registry
/// interface onto the templated kernels (algo_*.h, fallback.h); the numeric
/// backend is threaded through with RunInBackend so every engine answers in
/// exact rationals or doubles as requested.

namespace phom {

namespace {

/// Runs `fn` — a generic callable invoked with a std::type_identity<Num>
/// tag and returning Result<Num> — in the requested backend and packages
/// the answer. The exact and plain-double arms are untouched relative to the
/// two-backend era (bit-identity contract); the interval arm reports the
/// kernel's enclosure as a certified bound and its midpoint as the double.
template <class Fn>
Result<EngineAnswer> RunInBackend(NumericBackend backend, Fn&& fn) {
  EngineAnswer out;
  out.backend = backend;
  if (backend == NumericBackend::kExact) {
    PHOM_ASSIGN_OR_RETURN(out.exact, fn(std::type_identity<Rational>{}));
    out.approx = out.exact.ToDouble();
    out.bound = CertifiedPointBound(out.exact);
  } else if (backend == NumericBackend::kIntervalDouble) {
    PHOM_ASSIGN_OR_RETURN(IntervalDouble enclosure,
                          fn(std::type_identity<IntervalDouble>{}));
    out.approx = enclosure.midpoint();
    out.bound = ProbabilityBound{enclosure.lo, enclosure.hi,
                                 /*certified=*/true};
  } else {
    PHOM_ASSIGN_OR_RETURN(out.approx, fn(std::type_identity<double>{}));
  }
  return out;
}

/// FallbackOptions with SolveOptions::cancel threaded in, so the exact
/// exponential loops yield INSIDE a single hard component (fallback.h) —
/// not just between components.
FallbackOptions FallbackWithCancel(const SolveOptions& options) {
  FallbackOptions fb = options.fallback;
  if (options.cancel != nullptr) fb.cancel = options.cancel;
  return fb;
}

/// Per-component dispatch for a connected query with >= 1 edge: the finest
/// applicable algorithm per component class, exact exponential enumeration
/// on #P-hard components.
template <class Num>
Result<Num> SolveComponentT(const PreparedProblem& prepared,
                            const CompiledComponent& compiled,
                            const Classification& cc,
                            const SolveOptions& options, SolveStats* stats) {
  using Ops = NumericOps<Num>;
  const DiGraph& query = prepared.query;
  const bool query_is_1wp = prepared.analysis.query_class.is_1wp;
  const bool unlabeled = prepared.analysis.effective_unlabeled;
  // Hard cells (Props. 4.1/4.4/4.5/5.6/5.1): exact fallback on this
  // component.
  auto fallback = [&]() -> Result<Num> {
    ++stats->fallback_components;
    FallbackStats fs;
    PHOM_ASSIGN_OR_RETURN(
        Num p, SolveByWorldEnumerationT<Num>(query, compiled,
                                             FallbackWithCancel(options), &fs));
    stats->worlds += fs.worlds;
    return p;
  };
  if (compiled.graph().num_edges() == 0) return Ops::Zero();

  if (cc.is_2wp) {
    TwoWayPathStats s;
    PHOM_ASSIGN_OR_RETURN(Num p, SolveConnectedOn2wpComponentT<Num>(
                                     query, compiled, &s, nullptr));
    stats->hom_tests += s.hom_tests;
    stats->lineage_clauses += s.minimal_intervals;
    return p;
  }

  if (cc.is_dwt) {
    const std::vector<LabelId>* pattern = &prepared.query_path_labels;
    std::vector<LabelId> graded_pattern;
    if (!query_is_1wp) {
      if (!unlabeled) return fallback();
      // Prop. 3.6 applied to this component.
      GradedAnalysis graded = AnalyzeGraded(query);
      if (!graded.is_graded) return Ops::Zero();
      graded_pattern.assign(static_cast<size_t>(graded.difference_of_levels),
                            query.UsedLabels()[0]);
      pattern = &graded_pattern;
    }
    DwtStats s;
    Result<Num> result =
        options.dwt_via_lineage
            ? SolvePathOnDwtForestViaLineageT<Num>(*pattern, compiled,
                                                   nullptr, &s)
            : SolvePathOnDwtForestT<Num>(*pattern, compiled, &s);
    if (result.ok()) stats->match_ends += s.match_ends;
    return result;
  }

  if (cc.is_pt && unlabeled && query_is_1wp) {
    PolytreeStats s;
    PHOM_ASSIGN_OR_RETURN(
        Num p, SolvePathProbabilityOnPolytreeT<Num>(
                   static_cast<uint32_t>(query.num_edges()), compiled, &s));
    stats->circuit_gates += s.circuit_gates;
    return p;
  }
  return fallback();
}

/// Lemma 3.7 over the cached component split.
template <class Num>
Result<Num> SolvePerComponentT(const PreparedProblem& prepared,
                               const SolveOptions& options,
                               SolveStats* stats) {
  using Ops = NumericOps<Num>;
  const InstanceContext& ctx = *prepared.context;
  Num none = Ops::One();
  for (size_t i = 0; i < ctx.components.size(); ++i) {
    // The cooperative-interruption yield point (CancelToken, solver.h):
    // components are the natural work quanta of this dispatch, and checking
    // before each one mirrors the serve layer's per-component-task gate.
    if (options.cancel != nullptr) {
      PHOM_RETURN_NOT_OK(options.cancel->Check());
    }
    ++stats->components;
    PHOM_ASSIGN_OR_RETURN(
        Num p, SolveComponentT<Num>(prepared, ctx.compiled(i),
                                    ctx.component_classes[i], options, stats));
    none *= Ops::Complement(p);
  }
  return Ops::Complement(none);
}

// ---------------------------------------------------------------------------
// The dichotomy's PTIME engines.
// ---------------------------------------------------------------------------

class TwoWayPathEngine : public Engine {
 public:
  std::string_view name() const override { return "connected-on-2wp"; }
  Algorithm algorithm() const override { return Algorithm::kConnectedOn2wp; }
  bool componentwise() const override { return true; }
  bool Applies(const CaseAnalysis& a) const override {
    return a.query_class.connected && a.instance_class.all_2wp;
  }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    return RunInBackend(options.numeric, [&](auto tag) {
      using Num = typename decltype(tag)::type;
      return SolvePerComponentT<Num>(prepared, options, stats);
    });
  }
};

class DwtPathEngine : public Engine {
 public:
  std::string_view name() const override { return "path-on-dwt"; }
  Algorithm algorithm() const override { return Algorithm::kPathOnDwt; }
  bool componentwise() const override { return true; }
  bool Applies(const CaseAnalysis& a) const override {
    return a.query_class.is_1wp && a.instance_class.all_dwt;
  }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    return RunInBackend(options.numeric, [&](auto tag) {
      using Num = typename decltype(tag)::type;
      return SolvePerComponentT<Num>(prepared, options, stats);
    });
  }
};

class UnlabeledDwtInstanceEngine : public Engine {
 public:
  std::string_view name() const override { return "unlabeled-dwt-instance"; }
  Algorithm algorithm() const override {
    return Algorithm::kUnlabeledDwtInstance;
  }
  bool Applies(const CaseAnalysis& a) const override {
    return a.effective_unlabeled && a.instance_class.all_dwt;
  }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    // PrepareProblem (step 3) collapsed the query to →^m over its one
    // label, or answered a non-graded one without an engine (Prop. 3.6).
    const std::vector<LabelId> pattern(prepared.query.num_edges(),
                                       prepared.query.edge(0).label);
    return RunInBackend(options.numeric, [&](auto tag) -> Result<
                                              typename decltype(tag)::type> {
      using Num = typename decltype(tag)::type;
      DwtStats s;
      PHOM_ASSIGN_OR_RETURN(
          Num p, SolvePathOnDwtForestT<Num>(
                     pattern, prepared.context->compiled_instance(), &s));
      stats->match_ends += s.match_ends;
      return p;
    });
  }
};

class PolytreeEngine : public Engine {
 public:
  std::string_view name() const override { return "unlabeled-polytree"; }
  Algorithm algorithm() const override {
    return Algorithm::kUnlabeledPolytree;
  }
  bool Applies(const CaseAnalysis& a) const override {
    return a.effective_unlabeled && a.query_class.all_dwt &&
           a.instance_class.all_pt;
  }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    // PrepareProblem (step 3) collapsed the unlabeled ⊔DWT query to →^m
    // (Prop. 5.5); Prop. 5.4 runs per compiled component, combined by
    // Lemma 3.7.
    const uint32_t m = static_cast<uint32_t>(prepared.query.num_edges());
    const InstanceContext& ctx = *prepared.context;
    return RunInBackend(options.numeric, [&](auto tag) -> Result<
                                              typename decltype(tag)::type> {
      using Num = typename decltype(tag)::type;
      using Ops = NumericOps<Num>;
      PolytreeStats s;
      Num none = Ops::One();
      for (size_t i = 0; i < ctx.components.size(); ++i) {
        PHOM_ASSIGN_OR_RETURN(
            Num p, SolvePathProbabilityOnPolytreeT<Num>(m, ctx.compiled(i), &s));
        none *= Ops::Complement(p);
      }
      stats->circuit_gates += s.circuit_gates;
      return Ops::Complement(none);
    });
  }
};

class PerComponentEngine : public Engine {
 public:
  std::string_view name() const override { return "per-component"; }
  Algorithm algorithm() const override { return Algorithm::kPerComponent; }
  bool componentwise() const override { return true; }
  bool Applies(const CaseAnalysis& a) const override {
    return a.query_class.connected;
  }
  bool AutoMatch(const CaseAnalysis& a) const override {
    // Claims its own cells AND connected-query hard cells: enumerating
    // worlds per component is exponentially cheaper than on the whole
    // instance, and the tractable components still use their fine engines.
    return a.query_class.connected && (a.algorithm == Algorithm::kPerComponent ||
                                       a.algorithm == Algorithm::kFallback);
  }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    return RunInBackend(options.numeric, [&](auto tag) {
      using Num = typename decltype(tag)::type;
      return SolvePerComponentT<Num>(prepared, options, stats);
    });
  }
};

// ---------------------------------------------------------------------------
// Exponential oracles and the estimator.
// ---------------------------------------------------------------------------

class FallbackEngine : public Engine {
 public:
  std::string_view name() const override { return "fallback"; }
  Algorithm algorithm() const override { return Algorithm::kFallback; }
  bool Applies(const CaseAnalysis&) const override { return true; }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    return RunInBackend(options.numeric, [&](auto tag) -> Result<
                                              typename decltype(tag)::type> {
      using Num = typename decltype(tag)::type;
      FallbackStats fs;
      PHOM_ASSIGN_OR_RETURN(
          Num p, SolveByWorldEnumerationT<Num>(
                     prepared.query, prepared.context->compiled_instance(),
                     FallbackWithCancel(options), &fs));
      stats->worlds += fs.worlds;
      return p;
    });
  }
};

class DwtLineageShannonEngine : public Engine {
 public:
  std::string_view name() const override { return "dwt-lineage-shannon"; }
  Algorithm algorithm() const override { return Algorithm::kPathOnDwt; }
  bool Applies(const CaseAnalysis& a) const override {
    return a.query_class.is_1wp && a.instance_class.all_dwt;
  }
  bool AutoMatch(const CaseAnalysis&) const override { return false; }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    return RunInBackend(options.numeric, [&](auto tag) -> Result<
                                              typename decltype(tag)::type> {
      using Num = typename decltype(tag)::type;
      DwtStats s;
      PHOM_ASSIGN_OR_RETURN(
          Num p, SolvePathOnDwtForestViaLineageT<Num>(
                     prepared.query_path_labels,
                     prepared.context->compiled_instance(), nullptr, &s));
      stats->match_ends += s.match_ends;
      return p;
    });
  }
};

class MatchLineageEngine : public Engine {
 public:
  std::string_view name() const override { return "match-lineage"; }
  Algorithm algorithm() const override { return Algorithm::kFallback; }
  bool Applies(const CaseAnalysis& a) const override {
    return a.query_class.connected;
  }
  bool AutoMatch(const CaseAnalysis&) const override { return false; }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    return RunInBackend(options.numeric, [&](auto tag) -> Result<
                                              typename decltype(tag)::type> {
      using Num = typename decltype(tag)::type;
      FallbackStats fs;
      PHOM_ASSIGN_OR_RETURN(
          Num p, SolveByMatchLineageT<Num>(
                     prepared.query, prepared.context->compiled_instance(),
                     FallbackWithCancel(options), &fs));
      stats->lineage_clauses += fs.matches;
      return p;
    });
  }
};

class MonteCarloEngine : public Engine {
 public:
  std::string_view name() const override { return "monte-carlo"; }
  Algorithm algorithm() const override { return Algorithm::kFallback; }
  bool exact() const override { return false; }
  bool Applies(const CaseAnalysis&) const override { return true; }
  bool AutoMatch(const CaseAnalysis&) const override { return false; }
  Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                             const SolveOptions& options,
                             SolveStats* stats) const override {
    // With the default min_samples = 0 an expired deadline aborts sampling
    // like any other kernel.
    return MonteCarloAnswer(prepared, options, options.monte_carlo,
                            /*degraded=*/false, stats);
  }
};

}  // namespace

Result<EngineAnswer> MonteCarloAnswer(const PreparedProblem& prepared,
                                      const SolveOptions& options,
                                      MonteCarloOptions mc, bool degraded,
                                      SolveStats* stats) {
  const CancelToken::Clock::time_point start = CancelToken::Clock::now();
  // Thread the dispatch-level token into the per-sample yield points
  // (monte_carlo.h).
  if (options.cancel != nullptr) mc.cancel = options.cancel;
  PHOM_ASSIGN_OR_RETURN(
      MonteCarloEstimate est,
      prepared.ucq != nullptr
          ? EstimateUcqProbabilityMonteCarlo(
                prepared.ucq->normalized.disjuncts, prepared.instance(),
                options.monte_carlo_seed, mc)
          : EstimateProbabilityMonteCarlo(prepared.query, prepared.instance(),
                                          options.monte_carlo_seed, mc));
  stats->worlds += est.samples;
  EngineAnswer out;
  out.backend = options.numeric;
  out.approx = est.estimate;
  if (est.exact_zero) {
    // The lower-bound pre-pass PROVED p == 0 without sampling; this is an
    // exact answer (certified point bound), not an estimate.
    out.bound = ProbabilityBound{0.0, 0.0, /*certified=*/true};
    return out;
  }
  if (options.numeric == NumericBackend::kExact) {
    // hits/samples is exactly representable; still only an estimate.
    out.exact = Rational(static_cast<int64_t>(est.hits),
                         static_cast<int64_t>(est.samples));
  }
  // Statistical bracket: estimate ± half-width, clamped into [0, 1] — a 95%
  // confidence statement, NOT a certificate.
  out.bound = ProbabilityBound{std::max(0.0, est.estimate - est.half_width_95),
                               std::min(1.0, est.estimate + est.half_width_95),
                               /*certified=*/false};
  out.relative_error_95 =
      mc.target_relative_error > 0.0 ? est.relative_error_95 : 0.0;
  out.degrade.lower_bound = est.lower_bound;
  out.degrade.relative_error_95 = out.relative_error_95;
  if (degraded || est.deadline_truncated) {
    // A truncated run got fewer samples than it budgeted for: it carries the
    // same provenance as a degraded one, so a floor-sized estimate is never
    // mistaken for the requested precision.
    out.degrade.degraded = true;
    out.degrade.estimate = est.estimate;
    out.degrade.half_width_95 = est.half_width_95;
    out.degrade.samples_used = est.samples;
    out.degrade.budget_spent = CancelToken::Clock::now() - start;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Within-query component parallelism (solver.h). Lives here because it reuses
// the same SolveComponentT kernel adapters as the serial componentwise
// engines — that sharing is what makes the parallel merge bit-identical.
// ---------------------------------------------------------------------------

ComponentDispatch PlanComponentDispatch(const PreparedProblem& prepared,
                                        const SolveOptions& options) {
  ComponentDispatch plan;
  if (prepared.immediate.has_value() || prepared.context == nullptr) {
    return plan;
  }
  // A UCQ fans out over its plan's UNITS (the leaves of the lifted plan),
  // not over instance components: each unit is itself a full single-CQ
  // solve. A non-compilable plan has no units and stays serial, so its
  // typed error surfaces through the ordinary SolvePrepared path.
  const size_t n = prepared.ucq != nullptr
                       ? prepared.ucq->plan.units.size()
                       : prepared.context->components.size();
  if (n < 2) return plan;  // one component: a single SolvePrepared task is best
  // The ONE registry scan of a componentwise query (shared_mutex inside):
  // every component task reuses this plan instead of re-resolving.
  bool forced = false;
  Result<const Engine*> engine = SelectEngineForProblem(
      EngineRegistry::Global(), prepared, options, &forced);
  // Selection errors (typo'd names, inapplicable forced engines) must
  // surface through the ordinary SolvePrepared path, identically.
  if (!engine.ok() || *engine == nullptr || !(*engine)->componentwise()) {
    return plan;
  }
  plan.engine = *engine;
  plan.forced = forced;
  plan.components = n;
  return plan;
}

size_t PreparedComponentParallelism(const PreparedProblem& prepared,
                                    const SolveOptions& options) {
  return PlanComponentDispatch(prepared, options).components;
}

Result<SolveResult> SolvePreparedComponent(const PreparedProblem& prepared,
                                           const ComponentDispatch& dispatch,
                                           size_t component_index,
                                           const SolveOptions& options) {
  // Same yield point as the serial per-component loop, so an interrupted
  // parallel dispatch fails exactly where its serial twin would.
  if (options.cancel != nullptr) {
    PHOM_RETURN_NOT_OK(options.cancel->Check());
  }
  if (prepared.ucq != nullptr) {
    // UCQ fan-out: one task per lifted-plan unit (PlanComponentDispatch
    // sized the dispatch accordingly); the combine replays the safe plan.
    PHOM_CHECK_MSG(dispatch.components == prepared.ucq->plan.units.size() &&
                       component_index < dispatch.components,
                   "SolvePreparedComponent outside a UCQ unit dispatch");
    return lifted::SolveUcqUnit(prepared, component_index, options);
  }
  const Engine* engine = dispatch.engine;
  PHOM_CHECK_MSG(engine != nullptr && engine->componentwise() &&
                     prepared.context != nullptr &&
                     dispatch.components ==
                         prepared.context->components.size() &&
                     component_index < dispatch.components,
                 "SolvePreparedComponent outside a componentwise dispatch");
  SolveResult out;
  out.analysis = prepared.analysis;
  out.numeric = options.numeric;
  out.stats.primary =
      dispatch.forced ? engine->algorithm() : prepared.analysis.algorithm;
  out.stats.engine = std::string(engine->name());
  const InstanceContext& ctx = *prepared.context;
  ++out.stats.components;
  const CancelToken::Clock::time_point kernel_start =
      CancelToken::Clock::now();
  PHOM_ASSIGN_OR_RETURN(
      EngineAnswer answer,
      RunInBackend(options.numeric, [&](auto tag) {
        using Num = typename decltype(tag)::type;
        return SolveComponentT<Num>(prepared, ctx.compiled(component_index),
                                    ctx.component_classes[component_index],
                                    options, &out.stats);
      }));
  out.stats.duration = CancelToken::Clock::now() - kernel_start;
  out.probability = std::move(answer.exact);
  out.probability_double = answer.approx;
  out.bound = answer.bound;
  out.numeric = answer.backend;
  return out;
}

Result<SolveResult> CombinePreparedComponents(
    const PreparedProblem& prepared, const ComponentDispatch& dispatch,
    const SolveOptions& options,
    std::vector<Result<SolveResult>> components) {
  if (prepared.ucq != nullptr) {
    // Unit answers merge through the lifted plan's evaluator, not through
    // Lemma 3.7 (units are NOT independent instance components).
    return lifted::CombineUcqUnitResults(prepared, options,
                                         std::move(components));
  }
  const Engine* engine = dispatch.engine;
  PHOM_CHECK_MSG(engine != nullptr && prepared.context != nullptr &&
                     components.size() == prepared.context->components.size(),
                 "CombinePreparedComponents arity mismatch");
  SolveResult out;
  out.analysis = prepared.analysis;
  out.numeric = options.numeric;
  out.stats.primary =
      dispatch.forced ? engine->algorithm() : prepared.analysis.algorithm;
  out.stats.engine = std::string(engine->name());
  for (size_t i = 0; i < components.size(); ++i) {
    // Serial SolvePerComponentT stops at the first failing component in
    // index order; reproduce exactly that error.
    if (!components[i].ok()) return components[i].status();
    const SolveStats& s = components[i]->stats;
    out.stats.components += s.components;
    out.stats.fallback_components += s.fallback_components;
    out.stats.worlds += s.worlds;
    out.stats.hom_tests += s.hom_tests;
    out.stats.lineage_clauses += s.lineage_clauses;
    out.stats.circuit_gates += s.circuit_gates;
    out.stats.match_ends += s.match_ends;
    out.stats.duration += s.duration;
  }
  // Lemma 3.7 in component-index order — the same operations, in the same
  // order, as the serial combine in SolvePerComponentT, so the merged answer
  // is bit-identical in every backend.
  if (options.numeric == NumericBackend::kExact) {
    Rational none = Rational::One();
    for (const Result<SolveResult>& c : components) {
      none *= c->probability.Complement();
    }
    out.probability = none.Complement();
    out.probability_double = out.probability.ToDouble();
    out.bound = CertifiedPointBound(out.probability);
  } else if (options.numeric == NumericBackend::kIntervalDouble) {
    // Each component's bound IS its kernel enclosure (SolvePreparedComponent
    // copies it verbatim), so replaying the serial combine on the intervals
    // reproduces the serial interval answer — and its certificate — bit for
    // bit. A component that fell back to an uncertified bound (impossible
    // today, defensive tomorrow) taints the merged certificate.
    using Ops = NumericOps<IntervalDouble>;
    IntervalDouble none = Ops::One();
    bool certified = true;
    for (const Result<SolveResult>& c : components) {
      none *= Ops::Complement(IntervalDouble(c->bound.lo, c->bound.hi));
      certified = certified && c->bound.certified;
    }
    const IntervalDouble enclosure = Ops::Complement(none);
    out.probability_double = enclosure.midpoint();
    out.bound = ProbabilityBound{enclosure.lo, enclosure.hi, certified};
  } else {
    double none = 1.0;
    for (const Result<SolveResult>& c : components) {
      none *= 1.0 - c->probability_double;
    }
    out.probability_double = 1.0 - none;
  }
  return out;
}

void RegisterDefaultEngines(EngineRegistry* registry) {
  registry->Register(std::make_unique<TwoWayPathEngine>());
  registry->Register(std::make_unique<DwtPathEngine>());
  registry->Register(std::make_unique<UnlabeledDwtInstanceEngine>());
  registry->Register(std::make_unique<PolytreeEngine>());
  registry->Register(std::make_unique<PerComponentEngine>());
  registry->Register(std::make_unique<FallbackEngine>());
  registry->Register(std::make_unique<DwtLineageShannonEngine>());
  registry->Register(std::make_unique<MatchLineageEngine>());
  registry->Register(std::make_unique<MonteCarloEngine>());
  registry->Register(lifted::MakeLiftedUcqEngine());
}

}  // namespace phom
