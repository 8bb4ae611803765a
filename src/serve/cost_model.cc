#include "src/serve/cost_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/lifted/plan.h"

namespace phom::serve {

namespace {

/// Engines whose cost is exponential in the uncertain edge count regardless
/// of the instance class (they enumerate worlds / matches).
bool IsEnumerationEngine(std::string_view engine) {
  return engine == "fallback" || engine == "match-lineage";
}

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
  // Capped so the linear prior stays within kMaxPredictedCost: an imported
  // snapshot's bucket 64 asks for the prior at u = 2^63.
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
                                      options_.prior_band_factor);
    out.pessimistic = ClampNonNegative(static_cast<double>(prior.count()) *
                                       options_.prior_band_factor);
    out.from_prior = true;
    return out;
  }
  const Cell& cell = it->second;
  out.expected = ClampNonNegative(cell.mean_ns);
  out.optimistic =
      ClampNonNegative(cell.mean_ns - options_.band_sigmas * cell.dev_ns);
  out.pessimistic =
      ClampNonNegative(cell.mean_ns + options_.band_sigmas * cell.dev_ns);
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

CostModel::CostModel(CostModelOptions options) : options_(options) {}

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
      cell.mean_ns += options_.alpha * err;
      cell.dev_ns += options_.alpha * (std::abs(err) - cell.dev_ns);
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

namespace {

/// Shortest exact decimal for a double: %.17g round-trips every finite
/// value through strtod bit-identically, which is what makes
/// export→import→export byte-stable.
std::string ExactDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Minimal cursor over the snapshot grammar — exactly the shape
/// ExportSnapshotJson emits, whitespace-tolerant, field order free. Not a
/// general JSON parser: strings carry no escapes (engine and class names
/// never need them), numbers are plain strtod tokens.
struct SnapshotCursor {
  std::string_view text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  bool Peek(char c) {
    SkipWs();
    return pos < text.size() && text[pos] == c;
  }
  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Status::Invalid("cost-model snapshot: expected a string");
    }
    const size_t start = pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        return Status::Invalid(
            "cost-model snapshot: string escapes are not supported");
      }
      ++pos;
    }
    if (pos >= text.size()) {
      return Status::Invalid("cost-model snapshot: unterminated string");
    }
    std::string out(text.substr(start, pos - start));
    ++pos;  // closing quote
    return out;
  }
  Result<double> ParseNumber() {
    SkipWs();
    const size_t start = pos;
    while (pos < text.size()) {
      const char c = text[pos];
      const bool number_char = (c >= '0' && c <= '9') || c == '+' ||
                               c == '-' || c == '.' || c == 'e' || c == 'E';
      if (!number_char) break;
      ++pos;
    }
    if (pos == start) {
      return Status::Invalid("cost-model snapshot: expected a number");
    }
    const std::string token(text.substr(start, pos - start));
    char* parse_end = nullptr;
    const double value = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Status::Invalid("cost-model snapshot: malformed number '" +
                             token + "'");
    }
    return value;
  }
  /// An observation count: an exact integer in [0, 2^53], the range where
  /// every integer is a double — so the uint64_t conversion is defined and
  /// the count re-exports exactly.
  Result<uint64_t> ParseCount(const std::string& field) {
    PHOM_ASSIGN_OR_RETURN(double count, ParseNumber());
    if (!(count >= 0.0 && count <= 9007199254740992.0) ||
        count != std::floor(count)) {
      return Status::Invalid("cost-model snapshot: bad " + field + " " +
                             ExactDouble(count));
    }
    return static_cast<uint64_t>(count);
  }
};

/// One parsed snapshot record, kept free of CostModelSnapshot's private
/// key/cell types so the parser can live outside the class.
struct ParsedCell {
  std::string engine;
  GraphClass component_class = GraphClass::kGeneral;
  uint32_t bucket = 0;
  double mean_ns = 0.0;
  double dev_ns = 0.0;
  uint64_t count = 0;
};

Result<std::vector<ParsedCell>> ParseSnapshotJson(std::string_view json) {
  SnapshotCursor c{json};
  if (!c.Consume('{')) {
    return Status::Invalid("cost-model snapshot: expected a JSON object");
  }
  bool schema_seen = false;
  bool cells_seen = false;
  std::vector<ParsedCell> out;
  while (!c.Peek('}')) {
    PHOM_ASSIGN_OR_RETURN(std::string field, c.ParseString());
    if (!c.Consume(':')) {
      return Status::Invalid("cost-model snapshot: expected ':' after '" +
                             field + "'");
    }
    if (field == "schema") {
      PHOM_ASSIGN_OR_RETURN(double version, c.ParseNumber());
      if (version != 1.0) {
        return Status::Invalid("cost-model snapshot: unknown schema version " +
                               ExactDouble(version));
      }
      schema_seen = true;
    } else if (field == "cells") {
      cells_seen = true;
      if (!c.Consume('[')) {
        return Status::Invalid("cost-model snapshot: 'cells' must be a list");
      }
      while (!c.Peek(']')) {
        if (!c.Consume('{')) {
          return Status::Invalid(
              "cost-model snapshot: each cell must be an object");
        }
        ParsedCell cell;
        bool have_engine = false, have_class = false, have_bucket = false,
             have_mean = false, have_dev = false, have_count = false;
        while (!c.Peek('}')) {
          PHOM_ASSIGN_OR_RETURN(std::string name, c.ParseString());
          if (!c.Consume(':')) {
            return Status::Invalid(
                "cost-model snapshot: expected ':' in cell field '" + name +
                "'");
          }
          if (name == "engine") {
            PHOM_ASSIGN_OR_RETURN(cell.engine, c.ParseString());
            have_engine = true;
          } else if (name == "class") {
            PHOM_ASSIGN_OR_RETURN(std::string class_name, c.ParseString());
            PHOM_ASSIGN_OR_RETURN(cell.component_class,
                                  ParseGraphClass(class_name));
            have_class = true;
          } else if (name == "bucket") {
            PHOM_ASSIGN_OR_RETURN(double bucket, c.ParseNumber());
            if (bucket < 0.0 || bucket > 64.0 ||
                bucket != std::floor(bucket)) {
              return Status::Invalid("cost-model snapshot: bad bucket " +
                                     ExactDouble(bucket));
            }
            cell.bucket = static_cast<uint32_t>(bucket);
            have_bucket = true;
          } else if (name == "mean_ns") {
            PHOM_ASSIGN_OR_RETURN(cell.mean_ns, c.ParseNumber());
            have_mean = true;
          } else if (name == "dev_ns") {
            PHOM_ASSIGN_OR_RETURN(cell.dev_ns, c.ParseNumber());
            have_dev = true;
          } else if (name == "count") {
            PHOM_ASSIGN_OR_RETURN(cell.count, c.ParseCount("count"));
            have_count = true;
          } else if (name == "width_mean") {
            // Legacy (with width_count below): older snapshots carried a
            // per-cell enclosure-width EWMA. Validated, then discarded.
            PHOM_RETURN_NOT_OK(c.ParseNumber().status());
          } else if (name == "width_count") {
            PHOM_RETURN_NOT_OK(c.ParseCount("width_count").status());
          } else {
            return Status::Invalid("cost-model snapshot: unknown cell field '" +
                                   name + "'");
          }
          if (!c.Consume(',')) break;
        }
        if (!c.Consume('}')) {
          return Status::Invalid("cost-model snapshot: unterminated cell");
        }
        if (!(have_engine && have_class && have_bucket && have_mean &&
              have_dev && have_count)) {
          return Status::Invalid("cost-model snapshot: incomplete cell");
        }
        out.push_back(std::move(cell));
        if (!c.Consume(',')) break;
      }
      if (!c.Consume(']')) {
        return Status::Invalid("cost-model snapshot: unterminated cell list");
      }
    } else {
      return Status::Invalid("cost-model snapshot: unknown field '" + field +
                             "'");
    }
    if (!c.Consume(',')) break;
  }
  if (!c.Consume('}')) {
    return Status::Invalid("cost-model snapshot: unterminated object");
  }
  c.SkipWs();
  if (c.pos != json.size()) {
    return Status::Invalid("cost-model snapshot: trailing characters");
  }
  if (!schema_seen || !cells_seen) {
    return Status::Invalid(
        "cost-model snapshot: missing 'schema' or 'cells' field");
  }
  return out;
}

}  // namespace

std::string CostModel::ExportSnapshotJson() const {
  const std::shared_ptr<const CostModelSnapshot> snap = Snapshot();
  std::vector<std::pair<CostModelSnapshot::Key, CostModelSnapshot::Cell>>
      cells(snap->cells_.begin(), snap->cells_.end());
  // Sorted key order: equal models export byte-identical strings (the
  // unordered_map iteration order must not leak into persisted bytes).
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.engine, a.first.component_class, a.first.bucket) <
           std::tie(b.first.engine, b.first.component_class, b.first.bucket);
  });
  std::string out = "{\"schema\":1,\"cells\":[";
  bool first = true;
  for (const auto& [key, cell] : cells) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"engine\":\"" + key.engine + "\",\"class\":\"" +
           ToString(key.component_class) +
           "\",\"bucket\":" + std::to_string(key.bucket) +
           ",\"mean_ns\":" + ExactDouble(cell.mean_ns) +
           ",\"dev_ns\":" + ExactDouble(cell.dev_ns) +
           ",\"count\":" + std::to_string(cell.count) + "}";
  }
  out += "]}\n";
  return out;
}

Result<size_t> CostModel::ImportSnapshotJson(std::string_view json,
                                             double decay_toward_prior) {
  if (!(decay_toward_prior >= 0.0 && decay_toward_prior <= 1.0)) {
    return Status::Invalid("decay_toward_prior must be in [0, 1]");
  }
  // Parse EVERYTHING before installing anything: malformed input must not
  // leave the model half-imported.
  PHOM_ASSIGN_OR_RETURN(std::vector<ParsedCell> cells,
                        ParseSnapshotJson(json));
  const double d = decay_toward_prior;
  for (ParsedCell& parsed : cells) {
    CostModelSnapshot::Key key;
    key.engine = parsed.engine;
    key.component_class = parsed.component_class;
    key.bucket = parsed.bucket;
    CostModelSnapshot::Cell cell;
    cell.mean_ns = parsed.mean_ns;
    cell.dev_ns = parsed.dev_ns;
    cell.count = parsed.count;
    if (d > 0.0) {
      // Blend toward the cell's own cold-start prior, evaluated at the
      // bucket's smallest member count (bucket b covers [2^(b-1), 2^b - 1]).
      const size_t representative =
          key.bucket == 0 ? 0 : size_t{1} << (key.bucket - 1);
      const double prior = static_cast<double>(
          PriorComponentCost(key.engine, key.component_class, representative)
              .count());
      cell.mean_ns = (1.0 - d) * cell.mean_ns + d * prior;
      // The prior's deviation convention matches RecordComponent's wide
      // first band: half the mean.
      cell.dev_ns = (1.0 - d) * cell.dev_ns + d * 0.5 * prior;
      cell.count = std::max<uint64_t>(
          1, static_cast<uint64_t>(std::llround(
                 (1.0 - d) * static_cast<double>(cell.count))));
    }
    Stripe& stripe = stripes_[CostModelSnapshot::KeyHash()(key) % kStripes];
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.cells[key] = cell;
  }
  version_.fetch_add(1, std::memory_order_release);
  return cells.size();
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
  snapshot->options_ = options_;
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
    // itself — doubled expected/pessimistic edges, optimistic untouched
    // (best case the enclosure is tight and no re-run happens).
    CostPrediction& p = decision.predicted;
    p.expected = SaturatingCostSum(p.expected, p.expected);
    p.pessimistic = SaturatingCostSum(p.pessimistic, p.pessimistic);
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
