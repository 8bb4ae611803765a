#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/classify.h"
#include "src/serve/cost_model.h"
#include "tests/test_util.h"

/// Saturation of the cost model's predictions (serve/cost_model.h): cells
/// clamp to kMaxPredictedCost, and every sum of predictions (multi-component
/// plans, the escalation re-run pricing) saturates there instead of
/// overflowing int64.

namespace phom {
namespace {

using serve::AdmissionAction;
using serve::CostModel;
using serve::CostModelSnapshot;
using serve::CostPrediction;
using serve::DecideAdmission;
using serve::kMaxPredictedCost;

TEST(CostModel, PredictionSumsSaturateAtTheCap) {
  CostPrediction capped;
  capped.expected = capped.optimistic = kMaxPredictedCost;
  CostPrediction sum = capped;
  sum += capped;
  EXPECT_EQ(sum.expected, kMaxPredictedCost);
  EXPECT_EQ(sum.optimistic, kMaxPredictedCost);
  CostPrediction small;
  small.expected = std::chrono::nanoseconds(5);
  small += small;
  EXPECT_EQ(small.expected.count(), 10);

  // The linear prior at the largest edge count is capped too.
  EXPECT_EQ(serve::PriorComponentCost("connected-on-2wp",
                                      GraphClass::kTwoWayPath,
                                      size_t{1} << 63),
            kMaxPredictedCost);

  // End to end: a model whose cells all observed the largest latency, read
  // through a componentwise plan (one cell per component, summed) and
  // through the escalation re-run pricing (the sum doubled).
  Rng rng(test_util::kCrosscheckSeedBase + 90);
  ProbGraph instance = test_util::MixedServeInstance(&rng);
  EvalSession session(instance);
  SolveOptions options = session.options();
  bool saw_componentwise = false;
  for (const DiGraph& query : test_util::MixedServeQueries(&rng)) {
    PreparedProblem prepared = session.Prepare(query);
    ComponentDispatch plan = PlanComponentDispatch(prepared, options);
    if (plan.components < 2) continue;
    saw_componentwise = true;
    const InstanceContext& ctx = *prepared.context;
    CostModel model;
    // Repeated equal observations shrink the first sample's wide deviation
    // (x/2, ×0.75 per step) until the optimistic edge, mean - 2·dev, also
    // exceeds the cap.
    for (int i = 0; i < 16; ++i) {
      for (size_t c = 0; c < plan.components; ++c) {
        model.RecordComponent(plan.engine->name(),
                              ctx.component_classes[c].finest,
                              ctx.components[c].graph.NumUncertainEdges(),
                              std::chrono::nanoseconds::max());
      }
    }
    std::shared_ptr<const CostModelSnapshot> snapshot = model.Snapshot();
    CostPrediction whole = snapshot->PredictSolveCost(prepared, plan, options);
    EXPECT_EQ(whole.expected, kMaxPredictedCost);
    EXPECT_EQ(whole.optimistic, kMaxPredictedCost);

    SolveOptions escalating = options;
    escalating.numeric = NumericBackend::kIntervalDouble;
    escalating.escalate.mode = EscalationMode::kOnWideResult;
    serve::AdmissionDecision decision = DecideAdmission(
        *snapshot, prepared, plan, escalating, std::chrono::milliseconds(1));
    EXPECT_EQ(decision.predicted.expected, kMaxPredictedCost);
    EXPECT_EQ(decision.action, AdmissionAction::kAdmitExact)
        << "degrade policy off: admission never degrades";
  }
  EXPECT_TRUE(saw_componentwise)
      << "corpus must exercise the componentwise prediction path";
}

}  // namespace
}  // namespace phom
