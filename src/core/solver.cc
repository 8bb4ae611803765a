#include "src/core/solver.h"

#include <algorithm>

#include "src/core/engine.h"
#include "src/lifted/lift.h"

namespace phom {

SolveOptions ApplyOverrides(SolveOptions base, const SolveOverrides& overrides) {
  if (overrides.numeric.has_value()) base.numeric = *overrides.numeric;
  if (overrides.force_engine.has_value()) {
    base.force_engine = *overrides.force_engine;
  }
  if (overrides.monte_carlo_seed.has_value()) {
    base.monte_carlo_seed = *overrides.monte_carlo_seed;
  }
  if (overrides.degrade.has_value()) base.degrade = *overrides.degrade;
  // After `degrade` on purpose: the field-level override composes with (or
  // on top of) a whole-policy override in the same request.
  if (overrides.target_relative_error.has_value()) {
    base.degrade.target_relative_error = *overrides.target_relative_error;
  }
  if (overrides.escalate.has_value()) base.escalate = *overrides.escalate;
  // After `escalate` on purpose, mirroring target_relative_error above: the
  // field-level width override composes with a whole-policy override.
  if (overrides.max_width.has_value()) {
    base.escalate.max_width = *overrides.max_width;
    if (*overrides.max_width > 0.0) {
      base.escalate.mode = EscalationMode::kOnWideResult;
    }
  }
  return base;
}

ProbabilityBound CertifiedPointBound(const Rational& p) {
  const IntervalDouble iv = NumericOps<IntervalDouble>::From(p);
  return ProbabilityBound{iv.lo, iv.hi, /*certified=*/true};
}

Result<const Engine*> SelectEngineForProblem(const EngineRegistry& registry,
                                             const PreparedProblem& prepared,
                                             const SolveOptions& options,
                                             bool* forced) {
  *forced = false;
  const Engine* engine = nullptr;
  if (!options.force_engine.empty()) {
    // Name resolution errors even when the answer is immediate: a typo'd
    // engine name must not be masked by a trivial first input.
    engine = registry.FindByName(options.force_engine);
    if (engine == nullptr) {
      return Status::Invalid("no engine named '" + options.force_engine +
                             "' is registered");
    }
    *forced = true;
  }

  // Immediate answers are decided during preparation; no engine runs (and a
  // forced-but-inapplicable engine is not an error on them).
  if (prepared.immediate.has_value()) return static_cast<const Engine*>(nullptr);

  // UCQ inputs always route through the lifted engine: any single-CQ engine
  // handed the prepared problem would silently solve disjunct 0 only. A
  // forced engine still resolved above (typos error identically), and the
  // force passes through to the plan's unit solves — except "monte-carlo",
  // which samples the whole UNION directly (a signed sum of independent
  // per-unit estimates would be statistically far worse).
  if (prepared.ucq != nullptr) {
    if (*forced && engine->name() == "monte-carlo") return engine;
    const Engine* lifted = registry.FindByName("lifted-ucq");
    PHOM_CHECK_MSG(lifted != nullptr, "lifted-ucq engine is not registered");
    return lifted;
  }

  if (!*forced) {
    if (options.force_algorithm.has_value()) {
      engine = registry.FindByAlgorithm(*options.force_algorithm);
      if (engine == nullptr) {
        return Status::Invalid(
            std::string("no engine registered for algorithm ") +
            ToString(*options.force_algorithm));
      }
      *forced = true;
    } else {
      engine = registry.SelectAuto(prepared.analysis);
    }
  }
  PHOM_CHECK_MSG(engine != nullptr,
                 "engine registry has no engine for " + prepared.analysis.cell);
  if (*forced && !engine->Applies(prepared.analysis)) {
    return Status::NotSupported(std::string(engine->name()) +
                                " does not apply to " +
                                prepared.analysis.cell);
  }
  return engine;
}

namespace {

/// The result every solve starts from: analysis, backend and primary
/// algorithm — and, when preparation already decided the answer, that
/// answer, exactly, whatever the backend.
SolveResult ResultShell(const PreparedProblem& prepared,
                        const SolveOptions& options) {
  SolveResult out;
  out.analysis = prepared.analysis;
  out.numeric = options.numeric;
  out.stats.primary = prepared.analysis.algorithm;
  if (prepared.immediate.has_value()) {
    if (options.numeric == NumericBackend::kExact) {
      out.probability = *prepared.immediate;
    }
    out.probability_double = prepared.immediate->ToDouble();
    out.bound = CertifiedPointBound(*prepared.immediate);
  }
  return out;
}

/// Runs `solve` (SolveStats* -> Result<EngineAnswer>) as engine `engine`,
/// timing it, and publishes its answer in `out`.
template <class SolveFn>
Result<SolveResult> RunEngine(SolveResult out, std::string_view engine,
                              SolveFn&& solve) {
  out.stats.engine = std::string(engine);
  const CancelToken::Clock::time_point engine_start =
      CancelToken::Clock::now();
  PHOM_ASSIGN_OR_RETURN(EngineAnswer answer, solve(&out.stats));
  out.stats.duration = CancelToken::Clock::now() - engine_start;
  PublishAnswer(std::move(answer), &out);
  return out;
}

}  // namespace

void PublishAnswer(EngineAnswer answer, SolveResult* out) {
  out->probability = std::move(answer.exact);
  out->probability_double = answer.approx;
  out->bound = answer.bound;
  out->relative_error_95 = answer.relative_error_95;
  out->numeric = answer.backend;  // what the engine actually computed in
  out->degrade = answer.degrade;  // truncation provenance (Monte Carlo)
}

Result<SolveResult> SolvePrepared(const PreparedProblem& prepared,
                                  const SolveOptions& options) {
  SolveResult out = ResultShell(prepared, options);
  bool forced = false;
  PHOM_ASSIGN_OR_RETURN(
      const Engine* engine,
      SelectEngineForProblem(EngineRegistry::Global(), prepared, options,
                             &forced));
  if (engine == nullptr) return out;  // immediate answer
  if (forced) out.stats.primary = engine->algorithm();
  return RunEngine(std::move(out), engine->name(), [&](SolveStats* stats) {
    return engine->Solve(prepared, options, stats);
  });
}

Result<SolveResult> SolveDegradedMonteCarlo(const PreparedProblem& prepared,
                                            const SolveOptions& options) {
  SolveResult out = ResultShell(prepared, options);
  // Preparation already decided the answer; "degrading" it would only
  // replace a free exact answer by an estimate of itself.
  if (prepared.immediate.has_value()) return out;
  const DegradePolicy& policy = options.degrade;
  MonteCarloOptions mc = options.monte_carlo;
  // min_samples >= 1 keeps the estimator from answering DeadlineExceeded:
  // the whole point of this path is an estimate instead of that error.
  mc.min_samples = policy.min_samples == 0 ? 1 : policy.min_samples;
  mc.samples = std::max(policy.max_samples, mc.min_samples);
  mc.target_half_width = policy.target_half_width;
  mc.target_relative_error = policy.target_relative_error;
  out.stats.primary = Algorithm::kFallback;
  return RunEngine(std::move(out), "monte-carlo", [&](SolveStats* stats) {
    return MonteCarloAnswer(prepared, options, mc, /*degraded=*/true, stats);
  });
}

bool DegradeOnDeadlineMiss(const PreparedProblem& prepared,
                           const SolveOptions& options,
                           Result<SolveResult>* result) {
  if (result->ok() ||
      !ShouldDegradeStatus(result->status(), options.degrade)) {
    return false;
  }
  *result = SolveDegradedMonteCarlo(prepared, options);
  return true;
}

Result<SolveResult> Solver::Solve(const DiGraph& query,
                                  const ProbGraph& instance) const {
  return SolvePrepared(PrepareProblem(query, instance), options_);
}

Result<SolveResult> Solver::SolveUcq(const Ucq& ucq,
                                     const ProbGraph& instance) const {
  return SolvePrepared(lifted::PrepareUcq(ucq, instance), options_);
}

Result<Rational> SolveProbability(const DiGraph& query,
                                  const ProbGraph& instance,
                                  const SolveOptions& options) {
  SolveOptions exact_options = options;
  // The Rational return type promises an exact answer; ignore a stray
  // double-backend setting rather than silently returning zero.
  exact_options.numeric = NumericBackend::kExact;
  Solver solver(std::move(exact_options));
  PHOM_ASSIGN_OR_RETURN(SolveResult result, solver.Solve(query, instance));
  return result.probability;
}

Result<double> SolveProbabilityDouble(const DiGraph& query,
                                      const ProbGraph& instance,
                                      SolveOptions options) {
  options.numeric = NumericBackend::kDouble;
  Solver solver(std::move(options));
  PHOM_ASSIGN_OR_RETURN(SolveResult result, solver.Solve(query, instance));
  return result.probability_double;
}

Result<BigInt> CountSatisfyingWorlds(const DiGraph& query,
                                     const DiGraph& instance,
                                     const SolveOptions& options) {
  std::vector<Rational> halves(instance.num_edges(), Rational::Half());
  ProbGraph h(instance, std::move(halves));
  // SolveProbability pins the exact backend, which counting requires.
  PHOM_ASSIGN_OR_RETURN(Rational prob, SolveProbability(query, h, options));
  Rational scaled = prob * Rational(BigInt::Pow2(instance.num_edges()),
                                    BigInt(1));
  PHOM_CHECK_MSG(scaled.den() == BigInt(1),
                 "world count must be integral with uniform 1/2 weights");
  return scaled.num();
}

}  // namespace phom
