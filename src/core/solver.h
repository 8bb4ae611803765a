#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/core/case.h"
#include "src/core/fallback.h"
#include "src/core/monte_carlo.h"
#include "src/graph/prob_graph.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"
#include "src/util/status.h"

/// \file solver.h
/// The PHom solver: Pr(G ⇝ H) for a query graph G and probabilistic
/// instance (H, π). Dispatches per the dichotomy of Tables 1–3:
///
///   * trivial/collapse preparation (case.h);
///   * the prepared problem is routed through the engine registry
///     (engine.h): connected queries are solved per instance component and
///     combined by Lemma 3.7, each component with the finest applicable
///     algorithm (Prop. 4.11 on 2WPs; Prop. 4.10 / 3.6 on DWTs; Props.
///     5.4/5.5 on polytrees) — this also covers instances mixing component
///     classes;
///   * anything in a #P-hard cell falls back to the exact exponential
///     solver, subject to FallbackOptions limits.
///
/// Probability arithmetic runs in the numeric backend selected by
/// SolveOptions::numeric (exact rationals by default; see util/numeric.h).

namespace phom {

class Engine;
struct Ucq;  // src/graph/ucq.h

// CancelToken (cooperative interruption) lives in src/util/status.h so the
// leaf kernels can hold one; dispatch consults it before each part of a
// componentwise engine (SolvePreparedComponent), and the kernels
// consult it INSIDE their world-enumeration / match-enumeration / sampling
// loops (FallbackOptions / MonteCarloOptions).

/// When a serving layer may convert a deadline-threatened exact solve into
/// a budgeted Monte Carlo estimate (à la Amarilli–van Bremen–Gaspard–Meel
/// 2023: an FPRAS exists for exactly the #P-hard cells that miss
/// deadlines).
enum class DegradeMode : uint8_t {
  kOff = 0,          ///< deadline misses fail with DeadlineExceeded (default)
  kOnDeadlineRisk,   ///< re-dispatch to the Monte Carlo estimator instead
};

/// Per-request (or session-default) graceful-degradation policy. With mode
/// kOnDeadlineRisk, a request whose exact solve hits DeadlineExceeded — at
/// dequeue, between components, or inside a hard cell via the in-component
/// yield points — is re-solved by budgeted Monte Carlo sampling with the
/// remaining time budget, and the result carries DegradeInfo provenance.
/// Explicit cancellation (CancelToken::Cancel) is never degraded: the
/// caller asked for the request to stop, not for an estimate.
struct DegradePolicy {
  DegradeMode mode = DegradeMode::kOff;
  /// A degraded estimate is backed by at least this many samples even when
  /// the deadline has already lapsed (bounded overrun: ~min_samples hom
  /// tests is the price of an answer instead of an error). Clamped to >= 1.
  uint64_t min_samples = 512;
  /// Stop sampling early once the 95% confidence half-width reaches this
  /// target ε (0 = sample until the deadline or max_samples).
  double target_half_width = 0.0;
  /// Stop sampling early once the RELATIVE 95% error — half-width divided by
  /// a certified deterministic lower bound on the answer (best single-match
  /// probability of the lineage; monte_carlo.h) — reaches this target
  /// (0 = disabled). The multiplicative guarantee of the FPRAS in
  /// Amarilli–van Bremen–Gaspard–Meel 2023: meaningful even when the answer
  /// itself is tiny, where an absolute ε is vacuously satisfied.
  double target_relative_error = 0.0;
  /// Hard cap on degraded sampling.
  uint64_t max_samples = 1'000'000;
};

/// THE degrade trigger (DegradeOnDeadlineMiss below, and the serve
/// executor's submit gate): only a deadline miss converts — explicit
/// cancellation and every other error pass through — and only under mode
/// kOnDeadlineRisk.
inline bool ShouldDegradeStatus(const Status& status,
                                const DegradePolicy& policy) {
  return status.code() == Status::Code::kDeadlineExceeded &&
         policy.mode == DegradeMode::kOnDeadlineRisk;
}

/// When a serving layer may RE-RUN a certified-interval answer under the
/// exact backend because its enclosure came back too wide — the mirror image
/// of DegradePolicy: degradation trades precision for latency under deadline
/// pressure; escalation trades latency for precision under width pressure.
enum class EscalationMode : uint8_t {
  kOff = 0,        ///< wide enclosures are published as-is (default)
  kOnWideResult,   ///< re-dispatch to the exact backend when too wide
};

/// Per-request (or session-default) width-escalation policy, acted on by the
/// serve executor (serve/executor.h). With mode kOnWideResult, a successful
/// kIntervalDouble solve whose certified enclosure width (hi − lo) exceeds
/// the target is re-solved under NumericBackend::kExact on the same thread —
/// provided the request's deadline (if any) has not lapsed and the cost
/// model (if any) predicts the exact re-run fits the remaining budget. The
/// escalated result carries SolveResult::escalate provenance and is exactly
/// the answer a cold exact solve would have produced (bit-identical: same
/// prepared problem, same engine resolution, exact arithmetic).
struct EscalationPolicy {
  EscalationMode mode = EscalationMode::kOff;
  /// Escalate when hi − lo > max_width (0 = the absolute trigger is off).
  double max_width = 0.0;
  /// Escalate when hi − lo > target_relative_width · hi (0 = the relative
  /// trigger is off). Relative to hi, the certified upper bound: sound even
  /// when lo == 0, where width / answer would divide by zero.
  double target_relative_width = 0.0;
};

/// THE escalation trigger, shared by every site that inspects a width (the
/// serve executor's finish hook and its admission pricing must never drift):
/// a certified enclosure escalates when EITHER enabled trigger fires. A
/// non-finite width (NaN from an invalid enclosure, inf) compares true
/// against any threshold — an invalid enclosure is the widest possible one.
inline bool ShouldEscalateWidth(double width, double hi,
                                const EscalationPolicy& policy) {
  if (policy.mode != EscalationMode::kOnWideResult) return false;
  // NaN or negative width: the enclosure invariant broke (hi < lo or a NaN
  // endpoint) — escalate on any armed trigger, never publish silently.
  const bool invalid = !(width >= 0.0);
  if (invalid) return policy.max_width > 0.0 || policy.target_relative_width > 0.0;
  if (policy.max_width > 0.0 && width > policy.max_width) return true;
  return policy.target_relative_width > 0.0 &&
         width > policy.target_relative_width * hi;
}

/// Degradation provenance, set on results produced by the Monte Carlo
/// degradation path (SolveDegradedMonteCarlo, reached through
/// DegradeOnDeadlineMiss), and on forced "monte-carlo" engine runs
/// whose sampling was truncated by a lapsed deadline. All-default on exact
/// results.
struct DegradeInfo {
  /// The result is a Monte Carlo ESTIMATE, not the exact probability.
  bool degraded = false;
  /// The degradation was decided PROACTIVELY at admission: the serve layer's
  /// cost model predicted the exact solve could not fit the remaining budget,
  /// so the exact attempt was skipped entirely (serve/cost_model.h). False
  /// for reactive conversions, which fire only after a deadline actually
  /// lapsed mid-solve or in the queue.
  bool proactive = false;
  /// The estimate (== probability_double; duplicated so provenance survives
  /// callers that only forward the numeric fields).
  double estimate = 0.0;
  /// 95% confidence half-width of the estimate.
  double half_width_95 = 0.0;
  /// Certified deterministic lower bound on the true probability (the best
  /// single-match product over the enumerated lineage; 0 when the relative
  /// stop rule was off or no positive-probability match was found).
  double lower_bound = 0.0;
  /// RELATIVE 95% error: half_width_95 / lower_bound. Infinity when no
  /// positive lower bound is available; 0 on the exact-zero certificate
  /// (no match exists, so the estimate is not an estimate at all).
  /// Meaningful only on degraded/Monte Carlo results (0 otherwise).
  double relative_error_95 = 0.0;
  /// Samples backing the estimate.
  uint64_t samples_used = 0;
  /// Wall time the degraded sampling run consumed.
  std::chrono::nanoseconds budget_spent{0};
};

/// Escalation provenance, set by the serve executor on results it re-ran
/// under the exact backend after a too-wide certified enclosure. All-default
/// on every other result (in particular on results whose width met the
/// target, and everywhere EscalationMode::kOff).
struct EscalateInfo {
  /// The published answer is the EXACT re-run, not the interval solve.
  bool escalated = false;
  /// Enclosure width (hi − lo) of the interval answer that triggered the
  /// re-run (NaN when the trigger was an invalid hi < lo enclosure).
  double width_before = 0.0;
  /// Wall time the exact re-run consumed (on top of the interval solve).
  std::chrono::nanoseconds budget_spent{0};
};

struct SolveOptions {
  /// Force a specific algorithm (ablations / cross-checks). NotSupported if
  /// the algorithm's engine does not apply to the prepared problem.
  std::optional<Algorithm> force_algorithm;
  /// Force an engine by registry name (see engine.h); takes precedence over
  /// force_algorithm. Invalid if no such engine is registered, NotSupported
  /// if it does not apply to the prepared problem.
  std::string force_engine;
  /// Use the lineage+Shannon engine instead of the direct DP on DWTs.
  bool dwt_via_lineage = false;
  /// Numeric backend for probability arithmetic (exact by default).
  NumericBackend numeric = NumericBackend::kExact;
  FallbackOptions fallback;
  /// Budget/seed for the (non-exact) "monte-carlo" engine, which is only
  /// reachable via force_engine or the degradation path.
  MonteCarloOptions monte_carlo;
  uint64_t monte_carlo_seed = 20170514;
  /// Graceful degradation under deadline pressure (serve layer /
  /// EvalSession::Solve): see DegradePolicy. Off by default.
  DegradePolicy degrade;
  /// Width-triggered escalation of too-wide interval enclosures (acted on by
  /// the serve executor only; see EscalationPolicy). Off by default.
  EscalationPolicy escalate;
  /// Cooperative interruption hook (non-owning; null = never interrupted).
  /// Checked before each component subproblem of a componentwise dispatch
  /// AND inside the fallback/Monte Carlo loops (dispatch copies this
  /// pointer into FallbackOptions/MonteCarloOptions, overriding any token
  /// set there when non-null; a token set directly on those options is
  /// honored otherwise); see CancelToken (util/status.h). The pointee must
  /// outlive the solve.
  const CancelToken* cancel = nullptr;
};

/// The per-request knobs a serving layer may override on top of a session's
/// base SolveOptions (serve::SolveRequest carries one of these). Unset
/// fields inherit the base; preparation/caching is unaffected because
/// instance contexts depend only on the query's label set.
struct SolveOverrides {
  std::optional<NumericBackend> numeric;
  std::optional<std::string> force_engine;
  std::optional<uint64_t> monte_carlo_seed;
  std::optional<DegradePolicy> degrade;
  /// Overrides degrade.target_relative_error ALONE, composing with a base
  /// policy (set `degrade` to replace the whole policy instead).
  std::optional<double> target_relative_error;
  /// Replaces the whole width-escalation policy (EscalationPolicy).
  std::optional<EscalationPolicy> escalate;
  /// Overrides escalate.max_width ALONE (and forces mode kOnWideResult when
  /// > 0), composing with a base policy — the WithMaxWidth fluent setter.
  std::optional<double> max_width;
};

SolveOptions ApplyOverrides(SolveOptions base, const SolveOverrides& overrides);

struct SolveStats {
  Algorithm primary = Algorithm::kTrivial;
  std::string engine;              ///< registry name of the engine that ran
  size_t components = 0;
  size_t fallback_components = 0;
  uint64_t worlds = 0;             ///< worlds enumerated/sampled by fallbacks
  size_t hom_tests = 0;            ///< AC fixpoints, one per 2WP component
  size_t lineage_clauses = 0;      ///< interval/match clauses built
  size_t circuit_gates = 0;        ///< provenance circuit size (Prop. 5.4)
  size_t match_ends = 0;           ///< DWT match ends (Prop. 4.10)
  /// UCQ provenance (lifted-ucq solves only; zero/empty otherwise):
  /// disjuncts of the normalized union and engine-solved plan units.
  size_t ucq_disjuncts = 0;
  size_t ucq_units = 0;
  /// "lifted" when the compiled plan is safe (every leaf in a PTIME cell),
  /// "not-liftable: <reason>" when hard leaves ran exponential engines;
  /// empty for non-UCQ solves.
  std::string ucq_verdict;
  /// Wall time of the engine run that produced this result (summed over
  /// component results by CombinePreparedComponents; zero for immediate
  /// answers, the sampling time for degraded estimates). Observability only
  /// — it feeds the serve layer's latency cost model (serve/cost_model.h)
  /// and never influences the answer.
  std::chrono::nanoseconds duration{0};
};

/// A [lo, hi] bracket on the true probability, attached to every answer.
struct ProbabilityBound {
  double lo = 0.0;
  double hi = 1.0;
  /// True when [lo, hi] PROVABLY contains the exact answer: the exact
  /// backend reports an outward-rounded point (proven by Rational::FromDouble
  /// comparison), the interval backend its directed-rounding enclosure.
  /// False for plain-double answers (vacuous [0, 1]) and Monte Carlo
  /// estimates (estimate ± half-width — a 95% statistical bracket, not a
  /// certificate).
  bool certified = false;
};

/// Certified outward-rounded point enclosure of an exactly-known answer
/// (NumericOps<IntervalDouble>::From proves it by Rational comparison).
/// Shared by dispatch and the componentwise merge.
ProbabilityBound CertifiedPointBound(const Rational& p);

/// The error story an answer carries — the provenance column the serve
/// layer surfaces per request (serve/request.h).
enum class Guarantee : uint8_t {
  kExact = 0,          ///< exact Rational answer (or exact-zero certificate)
  kIntervalEnclosure,  ///< machine-checked [lo, hi] enclosure (certified)
  kEmpiricalDouble,    ///< plain double: ~1e-12 validated empirically only
  kAbsolute95,         ///< MC estimate with additive 95% half-width
  kRelative95,         ///< MC estimate with certified relative 95% bound
};

inline const char* ToString(Guarantee g) {
  switch (g) {
    case Guarantee::kExact: return "exact";
    case Guarantee::kIntervalEnclosure: return "interval-enclosure";
    case Guarantee::kEmpiricalDouble: return "empirical-double";
    case Guarantee::kAbsolute95: return "absolute-95";
    case Guarantee::kRelative95: return "relative-95";
  }
  PHOM_CHECK_MSG(false, "unknown Guarantee value");
}

struct SolveResult {
  /// Exact answer; meaningful only with NumericBackend::kExact (it stays
  /// zero under the double backends — use probability_double there).
  Rational probability;
  /// The answer as a double under ALL backends (for kExact it is the
  /// rounded exact answer; for kIntervalDouble the enclosure midpoint).
  double probability_double = 0.0;
  /// Bracket on the true probability; see ProbabilityBound for when it is a
  /// certificate vs. a statistical/vacuous bracket.
  ProbabilityBound bound;
  /// Certified relative 95% error of a Monte Carlo answer (== the final
  /// degrade.relative_error_95); 0 for non-statistical answers.
  double relative_error_95 = 0.0;
  /// The backend the answer was computed in.
  NumericBackend numeric = NumericBackend::kExact;
  CaseAnalysis analysis;
  SolveStats stats;
  /// Degradation provenance: degrade.degraded is true iff this result is a
  /// budgeted Monte Carlo estimate produced under deadline pressure (then
  /// probability_double == degrade.estimate, and `probability` is the
  /// exactly-represented hits/samples under the exact backend).
  DegradeInfo degrade;
  /// Width-escalation provenance: escalate.escalated is true iff this result
  /// is an exact re-run of a too-wide interval answer (serve layer only).
  EscalateInfo escalate;
};

/// The guarantee `result` carries, derived from its provenance: exact-zero
/// certificates and immediate answers are kExact even on approximate
/// backends; statistical answers (degraded or the forced "monte-carlo"
/// engine) are kRelative95 when a certified positive lower bound made the
/// relative error finite, else kAbsolute95.
inline Guarantee GuaranteeOf(const SolveResult& result) {
  // A certified POINT bound means the answer is exactly known, whatever
  // route produced it — immediate answers on approximate backends, the
  // estimator's exact-zero certificate, point interval enclosures.
  if (result.bound.certified && result.bound.lo == result.bound.hi) {
    return Guarantee::kExact;
  }
  const bool statistical =
      result.degrade.degraded || result.stats.engine == "monte-carlo";
  if (statistical) {
    if (result.degrade.lower_bound > 0.0 &&
        result.relative_error_95 <
            std::numeric_limits<double>::infinity()) {
      return Guarantee::kRelative95;
    }
    return Guarantee::kAbsolute95;
  }
  switch (result.numeric) {
    case NumericBackend::kExact: return Guarantee::kExact;
    case NumericBackend::kIntervalDouble: return Guarantee::kIntervalEnclosure;
    case NumericBackend::kDouble: return Guarantee::kEmpiricalDouble;
  }
  PHOM_CHECK_MSG(false, "unknown NumericBackend value");
}

class Solver {
 public:
  explicit Solver(SolveOptions options = {}) : options_(std::move(options)) {}

  Result<SolveResult> Solve(const DiGraph& query,
                            const ProbGraph& instance) const;

  /// UCQ front door: prepares the union through lifted::PrepareUcq (a union
  /// that normalizes to one disjunct takes the single-CQ path above,
  /// bit-identically) and solves through the same engine registry.
  Result<SolveResult> SolveUcq(const Ucq& ucq,
                               const ProbGraph& instance) const;

 private:
  SolveOptions options_;
};

/// Solves an already-prepared problem through the engine registry. This is
/// the shared back half of Solver::Solve and EvalSession::Solve.
Result<SolveResult> SolvePrepared(const PreparedProblem& prepared,
                                  const SolveOptions& options);

/// Budgeted Monte Carlo degradation of a deadline-threatened request: the
/// back half of DegradePolicy. Re-solves `prepared` with the Monte Carlo
/// estimator under options.degrade's budget (min_samples floor, optional
/// target ε, max_samples cap), honoring options.cancel — an expired
/// deadline truncates sampling once min_samples are in; an explicit cancel
/// aborts with Cancelled. The result carries full DegradeInfo provenance
/// (estimate, half-width, samples_used, budget_spent). Problems whose
/// prepared answer is immediate return that EXACT answer un-degraded (it is
/// free). Deterministic per (prepared, seed, stop cause), and the same
/// answer as the forced "monte-carlo" engine given the same samples
/// (MonteCarloAnswer, engine.h).
Result<SolveResult> SolveDegradedMonteCarlo(const PreparedProblem& prepared,
                                            const SolveOptions& options);

/// THE degrade path, shared by EvalSession's solves and the serve executor's
/// completions: when `*result` missed its deadline and options.degrade
/// allows it (ShouldDegradeStatus), replaces it with
/// SolveDegradedMonteCarlo(prepared, options) and returns true. Any other
/// result (OK, cancelled, another error, or the policy off) is left as it
/// is and the answer is false.
bool DegradeOnDeadlineMiss(const PreparedProblem& prepared,
                           const SolveOptions& options,
                           Result<SolveResult>* result);

// ---------------------------------------------------------------------------
// Componentwise solving (used by the serve layer, serve/).
//
// A componentwise engine (Engine::componentwise()) solves independent PARTS
// — the instance components of a connected CQ (Lemma 3.7) or the units of a
// UCQ plan (lift.h) — each with SolvePreparedComponent, and merges them in
// index order with CombinePreparedComponents. Its serial Solve runs exactly
// these two functions, so a fan-out that solves the parts on different
// threads returns SolvePrepared's answer BIT FOR BIT, by construction.
// PlanComponentDispatch resolves the engine ONCE per query (the registry
// scan takes a shared_mutex — re-resolving per part task made the lock a
// hot spot).
// ---------------------------------------------------------------------------

/// A componentwise dispatch plan: the engine resolved once per query, shared
/// by every part task. Valid for the registry's lifetime (engines are never
/// removed).
struct ComponentDispatch {
  /// Non-null iff the problem should be fanned out (then componentwise).
  const Engine* engine = nullptr;
  /// The selection was forced (the caller reports the engine's own
  /// algorithm as primary, exactly like SolvePrepared).
  bool forced = false;
  /// Independent parts, 0 when the problem is not componentwise (immediate
  /// answers, whole-forest engines, engine-selection errors — which must
  /// surface through the ordinary SolvePrepared path, identically — or
  /// fewer than two parts); callers solve such problems with one
  /// SolvePrepared call.
  size_t components = 0;
};

ComponentDispatch PlanComponentDispatch(const PreparedProblem& prepared,
                                        const SolveOptions& options);

/// Solves part `component_index` only, against a plan from
/// PlanComponentDispatch (no registry access happens here); checks
/// options.cancel first. An instance component's result carries its own
/// probability (NOT yet combined), counters and kernel time, but no
/// analysis, engine or primary: the merge sets those. A UCQ unit's result is
/// the unit's SolvePrepared answer.
Result<SolveResult> SolvePreparedComponent(const PreparedProblem& prepared,
                                           const ComponentDispatch& dispatch,
                                           size_t component_index,
                                           const SolveOptions& options);

/// Merges part results (aligned with part indices) into the answer
/// SolvePrepared would produce: the first failing part's status in index
/// order, else the parts folded in options.numeric's backend (components by
/// Lemma 3.7, units through the plan) with summed counters and kernel time.
/// An interval answer is certified iff every part's bound is.
Result<SolveResult> CombinePreparedComponents(
    const PreparedProblem& prepared, const ComponentDispatch& dispatch,
    const SolveOptions& options, std::vector<Result<SolveResult>> parts);

/// One-call convenience. Always exact: a stray options.numeric = kDouble is
/// overridden to kExact (the Rational return type promises exactness).
Result<Rational> SolveProbability(const DiGraph& query,
                                  const ProbGraph& instance,
                                  const SolveOptions& options = {});

/// One-call convenience for the double backend (options.numeric is
/// overridden to kDouble).
Result<double> SolveProbabilityDouble(const DiGraph& query,
                                      const ProbGraph& instance,
                                      SolveOptions options = {});

/// The unweighted counting view (the paper's future-work "counting CSP"
/// variant where every probability is 1/2): the number of subgraphs of
/// `instance` to which `query` has a homomorphism. Computed as
/// Pr(G ⇝ H_{π≡1/2}) · 2^|E|, which is exact by construction.
Result<BigInt> CountSatisfyingWorlds(const DiGraph& query,
                                     const DiGraph& instance,
                                     const SolveOptions& options = {});

}  // namespace phom
