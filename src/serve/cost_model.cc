#include "src/serve/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/core/engine.h"
#include "src/lifted/plan.h"

namespace phom::serve {

namespace {

/// Engines whose cost is exponential in the uncertain edge count regardless
/// of the instance class (they enumerate worlds / matches).
bool IsEnumerationEngine(std::string_view engine) {
  return engine == "fallback" || engine == "match-lineage";
}

/// EWMA step for both the mean and the mean-absolute-deviation tracker.
constexpr double kEwmaAlpha = 0.25;
/// Learned-cell band low edge, in deviations: mean - k·dev, clamped at zero.
constexpr double kBandSigmas = 2.0;
/// Prior-cell band low edge: prior / f. Wide on purpose — priors are
/// order-of-magnitude guesses, and proactive degradation keys on this edge
/// (only skip the exact attempt when even the BEST case misses).
constexpr double kPriorBandFactor = 8.0;

std::chrono::nanoseconds ClampNonNegative(double ns) {
  if (!(ns > 0.0)) return std::chrono::nanoseconds(0);
  const double cap = static_cast<double>(kMaxPredictedCost.count());
  return std::chrono::nanoseconds(
      static_cast<int64_t>(std::min(ns, cap)));
}

}  // namespace

uint32_t UncertainEdgeBucket(size_t uncertain_edges) {
  if (uncertain_edges == 0) return 0;
  return static_cast<uint32_t>(
      std::bit_width(static_cast<uint64_t>(uncertain_edges)));
}

std::chrono::nanoseconds PriorComponentCost(std::string_view engine,
                                            GraphClass component_class,
                                            size_t uncertain_edges) {
  // Magnitudes from BENCH_baseline.json: the 2^20-world hard-cell
  // enumeration runs ~2.3 s (~2.2 µs per world); small tractable DP solves
  // land between ~20 µs and a few ms, growing roughly linearly with the
  // uncertain edge count.
  const bool exponential = IsEnumerationEngine(engine) ||
                           component_class == GraphClass::kConnected ||
                           component_class == GraphClass::kGeneral;
  const uint64_t u = static_cast<uint64_t>(uncertain_edges);
  if (exponential) {
    // 2 µs · 2^u, capped at shift 40 (~25 days — already "never fits").
    const uint64_t shift = std::min<uint64_t>(u, 40);
    return std::chrono::nanoseconds(int64_t{2000} << shift);
  }
  // Capped so the linear prior stays within kMaxPredictedCost at any edge
  // count a size_t can hold.
  const uint64_t max_u = (kMaxPredictedCost.count() - 20'000) / 2'000;
  return std::chrono::nanoseconds(
      20'000 + 2'000 * static_cast<int64_t>(std::min(u, max_u)));
}

CostPrediction CostModelSnapshot::PredictComponent(
    std::string_view engine, GraphClass component_class,
    size_t uncertain_edges) const {
  Key key;
  key.engine = std::string(engine);
  key.component_class = component_class;
  key.bucket = UncertainEdgeBucket(uncertain_edges);
  CostPrediction out;
  auto it = cells_.find(key);
  if (it == cells_.end() || it->second.count == 0) {
    const std::chrono::nanoseconds prior =
        PriorComponentCost(engine, component_class, uncertain_edges);
    out.expected = prior;
    out.optimistic = ClampNonNegative(static_cast<double>(prior.count()) /
                                      kPriorBandFactor);
    return out;
  }
  const Cell& cell = it->second;
  out.expected = ClampNonNegative(cell.mean_ns);
  out.optimistic = ClampNonNegative(cell.mean_ns - kBandSigmas * cell.dev_ns);
  return out;
}

CostPrediction CostModelSnapshot::PredictSolveCost(
    const PreparedProblem& prepared, const ComponentDispatch& plan,
    const SolveOptions& options) const {
  CostPrediction out;
  if (prepared.immediate.has_value() || prepared.context == nullptr) {
    return out;  // decided during preparation: free
  }
  if (plan.components > 0) {
    const std::string_view engine = plan.engine->name();
    if (prepared.ucq != nullptr) {
      // UCQ fan-out: each safe-plan UNIT is one solve task (a full single-CQ
      // solve on its own restricted instance) under the lifted engine —
      // keyed per unit, the same cells RecordComponentSolve trains below.
      for (const lifted::LiftedUnit& unit : prepared.ucq->plan.units) {
        out += PredictComponent(
            engine, unit.prepared.analysis.instance_class.finest,
            unit.prepared.context == nullptr
                ? 0
                : unit.prepared.context->NumUncertainEdges());
      }
      return out;
    }
    // Componentwise fan-out: each component is one solve unit under the
    // plan's engine — exactly the tasks the executor will enqueue.
    const InstanceContext& ctx = *prepared.context;
    for (size_t c = 0; c < plan.components; ++c) {
      out += PredictComponent(engine, ctx.component_classes[c].finest,
                              ctx.components[c].graph.NumUncertainEdges());
    }
    return out;
  }
  // Whole-problem dispatch: resolve the engine once, the same way
  // SolvePrepared will. Selection errors (typo'd force_engine, inapplicable
  // forced engines) predict zero — the solve path surfaces them identically.
  bool forced = false;
  Result<const Engine*> engine = SelectEngineForProblem(
      EngineRegistry::Global(), prepared, options, &forced);
  if (!engine.ok() || *engine == nullptr) return out;
  return PredictComponent((*engine)->name(),
                          prepared.analysis.instance_class.finest,
                          prepared.context->NumUncertainEdges());
}

void CostModel::RecordComponent(std::string_view engine,
                                GraphClass component_class,
                                size_t uncertain_edges,
                                std::chrono::nanoseconds duration) {
  CostModelSnapshot::Key key;
  key.engine = std::string(engine);
  key.component_class = component_class;
  key.bucket = UncertainEdgeBucket(uncertain_edges);
  Stripe& stripe =
      stripes_[CostModelSnapshot::KeyHash()(key) % kStripes];
  const double x = static_cast<double>(duration.count());
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    CostModelSnapshot::Cell& cell = stripe.cells[key];
    if (cell.count == 0) {
      cell.mean_ns = x;
      // A deliberately wide first band: one sample says little about the
      // cell's spread.
      cell.dev_ns = x * 0.5;
    } else {
      const double err = x - cell.mean_ns;
      cell.mean_ns += kEwmaAlpha * err;
      cell.dev_ns += kEwmaAlpha * (std::abs(err) - cell.dev_ns);
    }
    ++cell.count;
  }
  version_.fetch_add(1, std::memory_order_release);
}

void CostModel::RecordSolve(const PreparedProblem& prepared,
                            const SolveResult& result) {
  // Only clean exact latencies train the model: degraded estimates ran under
  // a truncated budget and immediate answers ran nothing.
  if (result.degrade.degraded || result.stats.engine.empty() ||
      prepared.context == nullptr) {
    return;
  }
  RecordComponent(result.stats.engine,
                  prepared.analysis.instance_class.finest,
                  prepared.context->NumUncertainEdges(),
                  result.stats.duration);
}

void CostModel::RecordComponentSolve(const PreparedProblem& prepared,
                                     const ComponentDispatch& plan,
                                     size_t component_index,
                                     const SolveResult& result) {
  if (plan.engine == nullptr || result.degrade.degraded) return;
  if (prepared.ucq != nullptr) {
    // UCQ unit solve: train the same per-unit cell PredictSolveCost reads —
    // the lifted engine on the unit's own restricted instance.
    const auto& units = prepared.ucq->plan.units;
    if (component_index >= units.size()) return;
    const PreparedProblem& unit = units[component_index].prepared;
    if (unit.context == nullptr) return;  // immediate unit: nothing ran
    RecordComponent(plan.engine->name(),
                    unit.analysis.instance_class.finest,
                    unit.context->NumUncertainEdges(),
                    result.stats.duration);
    return;
  }
  if (prepared.context == nullptr ||
      component_index >= prepared.context->components.size()) {
    return;
  }
  const InstanceContext& ctx = *prepared.context;
  RecordComponent(
      plan.engine->name(), ctx.component_classes[component_index].finest,
      ctx.components[component_index].graph.NumUncertainEdges(),
      result.stats.duration);
}

std::shared_ptr<const CostModelSnapshot> CostModel::Snapshot() const {
  const uint64_t version = version_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (snapshot_ != nullptr && snapshot_->version_ == version) {
      return snapshot_;
    }
  }
  // Rebuild outside the cache lock (updates proceed concurrently; a racing
  // update just dirties the version so the NEXT Snapshot rebuilds again).
  auto snapshot = std::make_shared<CostModelSnapshot>();
  snapshot->version_ = version;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [key, cell] : stripe.cells) {
      snapshot->cells_.emplace(key, cell);
    }
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ == nullptr || snapshot_->version_ < snapshot->version_) {
    snapshot_ = snapshot;
  }
  return snapshot_;
}

AdmissionDecision DecideAdmission(
    const CostModelSnapshot& snapshot, const PreparedProblem& prepared,
    const ComponentDispatch& plan, const SolveOptions& options,
    std::optional<std::chrono::nanoseconds> remaining_budget) {
  AdmissionDecision decision;
  decision.predicted = snapshot.PredictSolveCost(prepared, plan, options);
  if (options.numeric == NumericBackend::kIntervalDouble &&
      options.escalate.mode == EscalationMode::kOnWideResult) {
    // Price the potential exact re-run (see the header): the re-run solves
    // the same cells under the same engine, so its cost is the prediction
    // itself — doubled expected cost, optimistic edge untouched (best case
    // the enclosure is tight and no re-run happens).
    CostPrediction& p = decision.predicted;
    p.expected = SaturatingCostSum(p.expected, p.expected);
  }
  if (!remaining_budget.has_value()) return decision;
  if (options.degrade.mode == DegradeMode::kOnDeadlineRisk &&
      decision.predicted.expected > std::chrono::nanoseconds(0) &&
      decision.predicted.optimistic > *remaining_budget) {
    decision.action = AdmissionAction::kDegradeProactively;
  }
  return decision;
}

}  // namespace phom::serve
