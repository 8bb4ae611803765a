#pragma once

#include <memory>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "src/core/case.h"
#include "src/core/solver.h"
#include "src/util/numeric.h"
#include "src/util/result.h"

/// \file engine.h
/// The engine layer: every solving strategy of the library (the paper's
/// PTIME algorithms, the exact exponential fallbacks, and the Monte Carlo
/// estimator) is an Engine registered in an EngineRegistry. Solver::Solve
/// is pure dispatch: prepare the problem (case.h), pick an engine, run it in
/// the requested numeric backend. Ablation benches and cross-checks select
/// engines by name or by Algorithm instead of hard-coded branches, and new
/// strategies plug in by registering — no solver changes.

namespace phom {

/// One engine run's answer in the backend it was computed in.
struct EngineAnswer {
  Rational exact;          ///< set iff backend == kExact
  double approx = 0.0;     ///< set for every backend
  /// Bracket on the true probability (solver.h): certified outward-rounded
  /// point for kExact, the kernel's directed-rounding enclosure for
  /// kIntervalDouble, the statistical estimate ± half-width for Monte Carlo
  /// runs, vacuous [0, 1] for plain kDouble.
  ProbabilityBound bound;
  /// Certified relative 95% error of a Monte Carlo run (0 otherwise).
  double relative_error_95 = 0.0;
  NumericBackend backend = NumericBackend::kExact;
  /// Filled by the Monte Carlo engine when a lapsed deadline truncated its
  /// sampling (solver.h): the caller must be able to tell a floor-sized
  /// estimate from the full-budget run it asked for. All-default otherwise.
  DegradeInfo degrade;
};

/// A solving strategy for prepared problems. Implementations must be
/// stateless (a registry instance is shared; per-call state lives on the
/// stack) and must answer in the backend requested by options.numeric.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Registry name, e.g. "path-on-dwt" (stable; used by force_engine).
  virtual std::string_view name() const = 0;
  /// The dichotomy algorithm this engine realizes. Engines outside the
  /// dichotomy's own cells (oracles, estimators) report kFallback.
  virtual Algorithm algorithm() const = 0;
  /// False for estimators (Monte Carlo): never eligible for auto dispatch,
  /// and their "exact" answer is only an exactly-represented estimate.
  virtual bool exact() const { return true; }

  /// True for engines that solve independent parts — the instance
  /// components of a CQ (Lemma 3.7) or the units of a UCQ plan — and merge
  /// them. Their Solve is SolveComponentwise: SolvePreparedComponent per part
  /// and one CombinePreparedComponents merge (solver.h). The serve layer
  /// resolves the engine once per query with PlanComponentDispatch and runs
  /// the same two functions with the parts on different threads, so its
  /// answer is this engine's serial one bit for bit.
  virtual bool componentwise() const { return false; }

  /// Whether this engine can answer the analyzed cell at all (used to
  /// validate forced selection). Must be conservative: if this returns
  /// true, Solve must not give a wrong answer (it may still error).
  virtual bool Applies(const CaseAnalysis& analysis) const = 0;

  /// Whether auto dispatch should pick this engine for the analyzed cell.
  /// The default claims exactly the cells the dichotomy assigns to this
  /// engine's algorithm; oracle/estimator engines override to false.
  virtual bool AutoMatch(const CaseAnalysis& analysis) const {
    return analysis.algorithm == algorithm() && Applies(analysis);
  }

  /// Solves the prepared problem (immediate answers are handled by the
  /// caller; prepared.context is non-null here).
  virtual Result<EngineAnswer> Solve(const PreparedProblem& prepared,
                                     const SolveOptions& options,
                                     SolveStats* stats) const = 0;
};

/// Ordered collection of engines. Auto dispatch scans registration order and
/// picks the first exact engine whose AutoMatch claims the cell, so finer
/// strategies must be registered before coarser ones.
///
/// Thread safety: all members lock an internal shared_mutex — lookups
/// (FindByName/FindByAlgorithm/SelectAuto/engines) take a shared lock and
/// may run concurrently from any number of serving threads; Register takes
/// an exclusive lock. The intended invariant is REGISTER BEFORE SERVE:
/// perform all registration at process startup (Global() populates the
/// default engines exactly once, via thread-safe static initialization),
/// before the first solving thread starts. Registration while serving is
/// memory-safe under the lock, but whether in-flight queries observe the new
/// engine is then a race the caller owns. Engine pointers returned by
/// lookups stay valid for the registry's lifetime (engines are never
/// removed).
class EngineRegistry {
 public:
  /// The process-wide registry, populated with the default engines on first
  /// use (thread-safe: C++ static-local initialization guarantees exactly
  /// one RegisterDefaultEngines run even under concurrent first calls).
  /// Register additional engines on it at startup, before serving.
  static EngineRegistry& Global();

  void Register(std::unique_ptr<Engine> engine);

  /// nullptr when absent. FindByAlgorithm returns the first registered
  /// engine realizing the algorithm.
  const Engine* FindByName(std::string_view name) const;
  const Engine* FindByAlgorithm(Algorithm algorithm) const;

  /// The engine auto dispatch runs for this analysis (never null once the
  /// default engines are registered: the fallback engine accepts anything).
  const Engine* SelectAuto(const CaseAnalysis& analysis) const;

  std::vector<const Engine*> engines() const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Engine>> engines_;  ///< guarded by mu_
};

/// Engine selection exactly as SolvePrepared performs it: a forced engine
/// name resolves first (Invalid on a typo, even when the prepared answer is
/// immediate), then immediate answers return a null engine (no engine runs),
/// then a forced algorithm resolves (Invalid when unregistered), then auto
/// dispatch. Forced selections that do not apply to the analyzed cell are
/// NotSupported. `*forced` reports whether the selection was forced (the
/// caller then reports the engine's own algorithm as primary).
Result<const Engine*> SelectEngineForProblem(const EngineRegistry& registry,
                                             const PreparedProblem& prepared,
                                             const SolveOptions& options,
                                             bool* forced);

/// The Monte Carlo estimate of `prepared` as an engine answer: the one
/// estimate-to-answer conversion behind the "monte-carlo" engine and the
/// DegradePolicy path (SolveDegradedMonteCarlo, solver.h), which differ only
/// in the `mc` they pass and in `degraded`. Samples the CQ — or a UCQ
/// problem's whole union per world, never one disjunct — under `mc` with
/// options.cancel threaded in, seed options.monte_carlo_seed, in backend
/// options.numeric. A certified p == 0 (MonteCarloEstimate::exact_zero)
/// answers the certified point 0. Otherwise the answer is the estimate,
/// hits/samples as an exact Rational on the exact backend, the uncertified
/// 95% bracket clamped into [0, 1], and relative_error_95 when
/// mc.target_relative_error asks for it. DegradeInfo carries the lower bound
/// and relative error always, and the full estimate provenance when the
/// answer stands in for an exact one: `degraded`, or a lapsed deadline
/// truncated the sampling. Adds the samples drawn to stats->worlds.
Result<EngineAnswer> MonteCarloAnswer(const PreparedProblem& prepared,
                                      const SolveOptions& options,
                                      MonteCarloOptions mc, bool degraded,
                                      SolveStats* stats);

/// The serial Solve of every componentwise engine: SolvePreparedComponent
/// per part in index order, stopping at the first error, then the
/// CombinePreparedComponents merge, whose counters land in *stats.
Result<EngineAnswer> SolveComponentwise(const Engine& engine,
                                        const PreparedProblem& prepared,
                                        const SolveOptions& options,
                                        SolveStats* stats);

/// Copies an engine's answer into `out`: the answer fields, the backend it
/// was computed in, and its Monte Carlo provenance.
void PublishAnswer(EngineAnswer answer, SolveResult* out);

/// Registers the built-in engines, in auto-dispatch priority order:
///   connected-on-2wp, path-on-dwt, unlabeled-dwt-instance,
///   unlabeled-polytree, per-component, fallback,
///   dwt-lineage-shannon, match-lineage, monte-carlo, lifted-ucq
/// (dwt-lineage-shannon, match-lineage and monte-carlo never auto-match:
/// they are oracles/ablation routes. lifted-ucq auto-matches exactly the
/// kLiftedUcq cells that PrepareUcq emits, so its position is immaterial.)
void RegisterDefaultEngines(EngineRegistry* registry);

}  // namespace phom
