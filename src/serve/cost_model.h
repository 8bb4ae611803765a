#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/core/solver.h"
#include "src/graph/classify.h"

/// \file cost_model.h
/// A learned solve-latency model for the serve layer's admission control
/// (executor.h). The Dalvi–Suciu-style dichotomy makes per-cell cost vary by
/// ORDERS OF MAGNITUDE — a tractable DP is linear in the uncertain edge
/// count while a #P-hard cell's exact fallback enumerates 2^edges worlds —
/// so a request's fate under a deadline is largely decided by which cell it
/// lands in. The model tracks one latency EWMA per cell:
///
///     key = (engine name, component GraphClass, uncertain-edge bucket)
///
/// where the bucket is the bit width of the uncertain-edge count (log2
/// buckets: counts 0, 1, 2–3, 4–7, ...), updated from every completed
/// component solve under a striped mutex. Cells with no observations fall
/// back to a static PRIOR table shaped after BENCH_baseline.json: linear
/// (~microseconds) for the PTIME classes, exponential in the uncertain edge
/// count (~2 µs per world) for the hard ones.
///
/// A prediction is the cell's expected latency plus the low (optimistic)
/// edge of its band: learned cells use mean - 2·deviation, prior cells
/// prior / 8. The model feeds exactly three consumers — slack ordering and
/// escalation pricing read `expected`, proactive degradation reads
/// `optimistic` — and has no settings: the EWMA step, band width and prior
/// band factor are constants of cost_model.cc. It lives only in memory;
/// nothing persists or reloads it.
///
/// DETERMINISM. EWMA updates under concurrent completion races are
/// order-dependent, so admission decisions are NEVER made against the live
/// model: Submit takes an immutable CostModelSnapshot once per request and
/// decides against that. Prediction and DecideAdmission are pure functions
/// of (snapshot, prepared problem, options, remaining budget) — for a fixed
/// snapshot the decision is bit-identical at every thread count and in both
/// numeric backends (the key never involves the backend; exact/double solve
/// the same cells).

namespace phom::serve {

/// Upper bound of every predicted latency (~285 years): cells clamp to it (a
/// cell may have observed any int64 latency), and sums of predictions (many
/// components, the escalation doubling) saturate at it instead of
/// overflowing int64.
inline constexpr std::chrono::nanoseconds kMaxPredictedCost{
    9'000'000'000'000'000'000};

/// a + b for predictions in [0, kMaxPredictedCost], saturating at the cap.
inline std::chrono::nanoseconds SaturatingCostSum(std::chrono::nanoseconds a,
                                                  std::chrono::nanoseconds b) {
  return b > kMaxPredictedCost - a ? kMaxPredictedCost : a + b;
}

/// A predicted exact-solve latency with the low edge of its uncertainty
/// band (optimistic <= expected). Slack ordering and escalation pricing read
/// `expected`; proactive degradation reads `optimistic`.
struct CostPrediction {
  std::chrono::nanoseconds expected{0};
  std::chrono::nanoseconds optimistic{0};

  CostPrediction& operator+=(const CostPrediction& other) {
    expected = SaturatingCostSum(expected, other.expected);
    optimistic = SaturatingCostSum(optimistic, other.optimistic);
    return *this;
  }
};

/// Log2 bucketing of uncertain-edge counts: 0 → bucket 0, otherwise the bit
/// width of the count (1 → 1, 2–3 → 2, 4–7 → 3, ...). Coarse enough that a
/// handful of observations covers a cell, fine enough to separate the
/// exponential regimes.
uint32_t UncertainEdgeBucket(size_t uncertain_edges);

/// The static cold-start prior for one cell, shaped after
/// BENCH_baseline.json: hard classes (Connected/General, or the enumeration
/// engines) cost ~2 µs per world = 2 µs · 2^u; tractable classes cost
/// ~20 µs + 2 µs · u. `uncertain_edges` is the real count (bucketing is the
/// caller's concern).
std::chrono::nanoseconds PriorComponentCost(std::string_view engine,
                                            GraphClass component_class,
                                            size_t uncertain_edges);

/// An immutable copy of the model's cells, the only thing admission
/// decisions may consult (see the determinism notes above). Obtained via
/// CostModel::Snapshot(); cheap to share (shared_ptr) and valid forever.
class CostModelSnapshot {
 public:
  /// Prediction for one solve unit: `engine` run on a component (or whole
  /// restricted instance) of class `component_class` with `uncertain_edges`
  /// uncertain edges. Pure function of this snapshot's cells.
  CostPrediction PredictComponent(std::string_view engine,
                                  GraphClass component_class,
                                  size_t uncertain_edges) const;

  /// Prediction for a whole prepared problem, mirroring exactly how the
  /// executor will run it: immediate answers predict zero; a componentwise
  /// plan (PlanComponentDispatch) sums per-component predictions under the
  /// plan's engine; otherwise the engine is resolved once (as SolvePrepared
  /// would) and the whole restricted instance is one unit. Engine-selection
  /// errors predict zero — admission abstains, and the ordinary solve path
  /// surfaces the error identically.
  CostPrediction PredictSolveCost(const PreparedProblem& prepared,
                                  const ComponentDispatch& plan,
                                  const SolveOptions& options) const;

  /// Number of learned cells in this snapshot.
  size_t num_cells() const { return cells_.size(); }
  /// Model version this snapshot was taken at (monotone across updates).
  uint64_t version() const { return version_; }

 private:
  friend class CostModel;

  struct Key {
    std::string engine;
    GraphClass component_class = GraphClass::kGeneral;
    uint32_t bucket = 0;
    bool operator==(const Key& o) const {
      return component_class == o.component_class && bucket == o.bucket &&
             engine == o.engine;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = std::hash<std::string>()(k.engine);
      h ^= (static_cast<size_t>(k.component_class) * 0x9e3779b97f4a7c15ULL) +
           (h << 6) + (h >> 2);
      h ^= (static_cast<size_t>(k.bucket) * 0xc2b2ae3d27d4eb4fULL) + (h << 6) +
           (h >> 2);
      return h;
    }
  };
  /// One cell's EWMA state: mean latency and mean absolute deviation, both
  /// in nanoseconds.
  struct Cell {
    double mean_ns = 0.0;
    double dev_ns = 0.0;
    uint64_t count = 0;
  };

  std::unordered_map<Key, Cell, KeyHash> cells_;
  uint64_t version_ = 0;
};

/// The live, concurrently-updated model. Thread-safe: updates take one of
/// kStripes mutexes (key-hashed), so completions on different cells never
/// contend; Snapshot() copies all stripes and caches the copy until the next
/// update. Install one on ExecutorOptions::cost_model (executor.h) — the
/// executor records every completed exact solve back automatically.
class CostModel {
 public:
  /// Records one observed solve latency for a cell (the raw-key hook; tests
  /// use it directly).
  void RecordComponent(std::string_view engine, GraphClass component_class,
                       size_t uncertain_edges,
                       std::chrono::nanoseconds duration);

  /// Records a completed WHOLE-problem solve (non-componentwise dispatch):
  /// keyed by the result's engine, the restricted instance's class and its
  /// uncertain edge count. Degraded estimates and immediate answers are
  /// skipped — they are not exact-solve latencies.
  void RecordSolve(const PreparedProblem& prepared, const SolveResult& result);

  /// Records one completed component solve of a componentwise dispatch:
  /// keyed by the plan's engine and the component's own class/edge count —
  /// the same key PredictSolveCost uses for that component, by construction.
  void RecordComponentSolve(const PreparedProblem& prepared,
                            const ComponentDispatch& plan,
                            size_t component_index, const SolveResult& result);

  /// The current immutable snapshot (cached; rebuilt only after updates).
  std::shared_ptr<const CostModelSnapshot> Snapshot() const;

 private:
  static constexpr size_t kStripes = 16;
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<CostModelSnapshot::Key, CostModelSnapshot::Cell,
                       CostModelSnapshot::KeyHash>
        cells;  ///< guarded by mu
  };

  std::array<Stripe, kStripes> stripes_;
  std::atomic<uint64_t> version_{0};
  mutable std::mutex snapshot_mu_;
  mutable std::shared_ptr<const CostModelSnapshot>
      snapshot_;  ///< guarded by snapshot_mu_
};

/// What admission decided for one request.
enum class AdmissionAction {
  kAdmitExact = 0,       ///< run the exact solve (the ordinary path)
  kDegradeProactively,   ///< skip the doomed exact attempt; estimate directly
};

struct AdmissionDecision {
  AdmissionAction action = AdmissionAction::kAdmitExact;
  CostPrediction predicted;
};

/// THE admission rule, shared by the executor and the determinism tests: a
/// pure function of (snapshot, prepared, plan, options, remaining budget).
/// Degrade proactively iff the request may degrade (DegradePolicy mode
/// kOnDeadlineRisk) AND even the OPTIMISTIC edge of the predicted cost
/// exceeds the remaining budget (conservative: a prediction that might fit
/// is attempted exactly and can still degrade reactively). Requests without
/// a deadline (nullopt budget) and zero predictions (immediate answers,
/// engine-selection errors) always admit.
///
/// ESCALATION PRICING: an interval-backend request whose EscalationPolicy is
/// kOnWideResult may cost a second, exact re-run of the whole solve
/// (executor.h), so its predicted EXPECTED cost is doubled — the re-run
/// lands in the same (engine, class, bucket) cells, which the executor trains
/// with every escalated re-run it performs. The OPTIMISTIC edge deliberately
/// stays the single-solve cost (best case: the enclosure comes back tight and
/// no re-run happens), so proactive degradation never fires on escalation
/// risk alone. With escalation off the decision is bit-identical to the
/// pre-escalation rule.
AdmissionDecision DecideAdmission(
    const CostModelSnapshot& snapshot, const PreparedProblem& prepared,
    const ComponentDispatch& plan, const SolveOptions& options,
    std::optional<std::chrono::nanoseconds> remaining_budget);

}  // namespace phom::serve
