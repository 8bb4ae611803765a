#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/classify.h"
#include "src/serve/cost_model.h"
#include "tests/test_util.h"

/// Hardening of the cost model's untrusted inputs (serve/cost_model.h):
///
///  * snapshot counts — an imported `count` must be an exact integer in
///    [0, 2^53], the range the uint64_t conversion and the re-export keep
///    exact;
///  * prediction sums — imported means clamp to kMaxPredictedCost, and every
///    sum of predictions (multi-component plans, the escalation re-run
///    pricing) saturates there instead of overflowing int64;
///  * CostModelFuzz — seeded byte mutations of an exported snapshot: every
///    mutant imports to a Status without throwing, a rejected mutant installs
///    nothing, and an accepted one re-exports to a fixed point.

namespace phom {
namespace {

using serve::AdmissionAction;
using serve::CostModel;
using serve::CostModelSnapshot;
using serve::CostPrediction;
using serve::DecideAdmission;
using serve::kMaxPredictedCost;
using serve::UncertainEdgeBucket;

std::string OneCellSnapshot(const std::string& count_token) {
  return "{\"schema\":1,\"cells\":[\n{\"engine\":\"fallback\",\"class\":"
         "\"General\",\"bucket\":3,\"mean_ns\":1000,\"dev_ns\":10,\"count\":" +
         count_token + "}]}\n";
}

TEST(CostModel, ImportAcceptsOnlyExactCountsUpToTwoPow53) {
  for (const char* bad :
       {"1e300", "18446744073709551616", "9007199254740994", "-1", "1.5"}) {
    CostModel model;
    Result<size_t> imported = model.ImportSnapshotJson(OneCellSnapshot(bad));
    EXPECT_FALSE(imported.ok()) << bad;
    EXPECT_EQ(model.Snapshot()->num_cells(), 0u) << bad;
    // The legacy width_count key is held to the same range.
    std::string legacy = OneCellSnapshot("1");
    legacy.insert(legacy.find("\"count\""),
                  std::string("\"width_count\":") + bad + ",");
    EXPECT_FALSE(model.ImportSnapshotJson(legacy).ok()) << bad;
  }
  for (const auto& [good, exported] :
       std::vector<std::pair<std::string, std::string>>{
           {"0", "0"}, {"-0", "0"}, {"7", "7"},
           {"9007199254740992", "9007199254740992"}}) {
    CostModel model;
    Result<size_t> imported = model.ImportSnapshotJson(OneCellSnapshot(good));
    ASSERT_TRUE(imported.ok()) << good << ": " << imported.status().ToString();
    EXPECT_EQ(model.ExportSnapshotJson(), OneCellSnapshot(exported)) << good;
  }
}

TEST(CostModel, PredictionSumsSaturateAtTheCap) {
  CostPrediction capped;
  capped.expected = capped.optimistic = capped.pessimistic = kMaxPredictedCost;
  CostPrediction sum = capped;
  sum += capped;
  EXPECT_EQ(sum.expected, kMaxPredictedCost);
  EXPECT_EQ(sum.optimistic, kMaxPredictedCost);
  EXPECT_EQ(sum.pessimistic, kMaxPredictedCost);
  CostPrediction small;
  small.expected = std::chrono::nanoseconds(5);
  small += small;
  EXPECT_EQ(small.expected.count(), 10);

  // The linear prior at the largest bucket an import accepts (64: u = 2^63)
  // is capped too; a decayed import evaluates it.
  EXPECT_EQ(serve::PriorComponentCost("connected-on-2wp",
                                      GraphClass::kTwoWayPath,
                                      size_t{1} << 63),
            kMaxPredictedCost);
  CostModel decayed;
  ASSERT_TRUE(decayed
                  .ImportSnapshotJson(
                      std::string("{\"schema\":1,\"cells\":[{\"engine\":"
                                  "\"connected-on-2wp\",\"class\":\"") +
                          ToString(GraphClass::kTwoWayPath) +
                          "\",\"bucket\":64,\"mean_ns\":1000,"
                          "\"dev_ns\":0,\"count\":4}]}",
                      /*decay_toward_prior=*/0.5)
                  .ok());
  EXPECT_EQ(decayed.Snapshot()->num_cells(), 1u);

  // End to end: a snapshot whose cells all claim 1e300 ns, read through a
  // componentwise plan (one cell per component, summed) and through the
  // escalation re-run pricing (the sum doubled).
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
    std::string json = "{\"schema\":1,\"cells\":[";
    for (size_t c = 0; c < plan.components; ++c) {
      if (c > 0) json += ",";
      json += "{\"engine\":\"" + std::string(plan.engine->name()) +
              "\",\"class\":\"" + ToString(ctx.component_classes[c].finest) +
              "\",\"bucket\":" +
              std::to_string(UncertainEdgeBucket(
                  ctx.components[c].graph.NumUncertainEdges())) +
              ",\"mean_ns\":1e300,\"dev_ns\":0,\"count\":1}";
    }
    json += "]}";
    CostModel model;
    Result<size_t> imported = model.ImportSnapshotJson(json);
    ASSERT_TRUE(imported.ok()) << imported.status().ToString();
    std::shared_ptr<const CostModelSnapshot> snapshot = model.Snapshot();
    CostPrediction whole = snapshot->PredictSolveCost(prepared, plan, options);
    EXPECT_EQ(whole.expected, kMaxPredictedCost);
    EXPECT_EQ(whole.optimistic, kMaxPredictedCost);
    EXPECT_EQ(whole.pessimistic, kMaxPredictedCost);

    SolveOptions escalating = options;
    escalating.numeric = NumericBackend::kIntervalDouble;
    escalating.escalate.mode = EscalationMode::kOnWideResult;
    serve::AdmissionDecision decision = DecideAdmission(
        *snapshot, prepared, plan, escalating, std::chrono::milliseconds(1));
    EXPECT_EQ(decision.predicted.expected, kMaxPredictedCost);
    EXPECT_EQ(decision.predicted.pessimistic, kMaxPredictedCost);
    EXPECT_EQ(decision.action, AdmissionAction::kAdmitExact)
        << "degrade policy off: admission never degrades";
  }
  EXPECT_TRUE(saw_componentwise)
      << "corpus must exercise the componentwise prediction path";
}

// ---------------------------------------------------------------------------
// CostModelFuzz: byte-level mutations of an exported snapshot.
// ---------------------------------------------------------------------------

/// Tokens spliced over numbers: out-of-range, non-finite, signed-zero,
/// underflowing and non-integral values.
const std::vector<std::string>& HostileTokens() {
  static const std::vector<std::string> tokens = {
      "1e300", "18446744073709551616", "-0", "nan", "1e-400", "inf",
      "-1", "9007199254740993", "4294967296", "0.5", "1e19", "-1e300",
      "65", "64", "", "1e", "--1", "0x10"};
  return tokens;
}

std::string SeedSnapshot() {
  CostModel model;
  model.RecordComponent("fallback", GraphClass::kGeneral, 20,
                        std::chrono::nanoseconds(2'300'000'000));
  model.RecordComponent("fallback", GraphClass::kGeneral, 20,
                        std::chrono::nanoseconds(2'100'000'000));
  model.RecordComponent("fallback", GraphClass::kConnected, 0,
                        std::chrono::nanoseconds(1'000));
  model.RecordComponent("connected-on-2wp", GraphClass::kTwoWayPath, 7,
                        std::chrono::nanoseconds(41'337));
  model.RecordComponent("path-on-dwt", GraphClass::kDownwardTree, 1000,
                        std::chrono::nanoseconds(19'001));
  return model.ExportSnapshotJson();
}

/// Spans of the maximal runs of number characters (the tokens ParseNumber
/// would read).
std::vector<std::pair<size_t, size_t>> NumberSpans(const std::string& text) {
  auto is_number_char = [](char c) {
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
           c == 'e' || c == 'E';
  };
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t i = 0; i < text.size();) {
    if (!is_number_char(text[i]) || (i > 0 && text[i - 1] != ':')) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < text.size() && is_number_char(text[end])) ++end;
    if (end > i) spans.emplace_back(i, end - i);
    i = end + 1;
  }
  return spans;
}

std::string Mutate(std::string text, Rng* rng) {
  const int64_t mutations = rng->UniformInt(1, 3);
  for (int64_t m = 0; m < mutations; ++m) {
    const int64_t size = static_cast<int64_t>(text.size());
    switch (rng->UniformInt(0, 4)) {
      case 0:  // flip one bit
        if (size > 0) {
          text[rng->UniformInt(0, size - 1)] ^=
              static_cast<char>(1 << rng->UniformInt(0, 7));
        }
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + rng->UniformInt(0, size),
                    static_cast<char>(rng->UniformInt(0, 255)));
        break;
      case 2:  // delete one byte
        if (size > 0) text.erase(text.begin() + rng->UniformInt(0, size - 1));
        break;
      case 3:  // truncate
        text.resize(static_cast<size_t>(rng->UniformInt(0, size)));
        break;
      default: {  // splice a hostile token over a number
        const std::vector<std::pair<size_t, size_t>> spans = NumberSpans(text);
        if (spans.empty()) break;
        const auto& [at, length] = rng->Pick(spans);
        text.replace(at, length, rng->Pick(HostileTokens()));
        break;
      }
    }
  }
  return text;
}

/// Imports one mutant and checks the contract; returns whether it imported.
bool CheckMutant(const std::string& mutant, double decay) {
  CostModel model;
  Result<size_t> imported = Status::Invalid("not run");
  EXPECT_NO_THROW(imported = model.ImportSnapshotJson(mutant, decay));
  if (!imported.ok()) {
    EXPECT_EQ(model.Snapshot()->num_cells(), 0u)
        << "a rejected snapshot installs nothing";
    return false;
  }
  const std::string exported = model.ExportSnapshotJson();
  CostModel again;
  Result<size_t> reimported = again.ImportSnapshotJson(exported);
  EXPECT_TRUE(reimported.ok()) << reimported.status().ToString();
  EXPECT_EQ(again.ExportSnapshotJson(), exported);
  // Predictions over the imported cells, summed the way plans sum them:
  // every component stays in [0, kMaxPredictedCost].
  std::shared_ptr<const CostModelSnapshot> snapshot = model.Snapshot();
  CostPrediction sum;
  for (const char* engine : {"fallback", "connected-on-2wp", "path-on-dwt"}) {
    for (GraphClass cls :
         {GraphClass::kOneWayPath, GraphClass::kTwoWayPath,
          GraphClass::kDownwardTree, GraphClass::kPolytree,
          GraphClass::kConnected, GraphClass::kGeneral}) {
      for (size_t edges : {0, 7, 20, 1000}) {
        CostPrediction p = snapshot->PredictComponent(engine, cls, edges);
        EXPECT_GE(p.optimistic.count(), 0);
        EXPECT_LE(p.pessimistic, kMaxPredictedCost);
        sum += p;
      }
    }
  }
  EXPECT_GE(sum.expected.count(), 0);
  EXPECT_LE(sum.expected, kMaxPredictedCost);
  return true;
}

void RunFuzz(uint64_t seed, int mutants, double decay) {
  const std::string seed_snapshot = SeedSnapshot();
  ASSERT_TRUE(CheckMutant(seed_snapshot, decay));
  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string mutant = Mutate(seed_snapshot, &rng);
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
    accepted += CheckMutant(mutant, decay) ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // Both sides of the contract must be exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, mutants);
}

TEST(CostModelFuzz, VerbatimImportsReturnAStatusAndReexportStably) {
  RunFuzz(test_util::kCrosscheckSeedBase + 91, 10000, 0.0);
}

TEST(CostModelFuzz, DecayedImportsReturnAStatusAndReexportStably) {
  RunFuzz(test_util::kCrosscheckSeedBase + 92, 10000, 0.5);
}

}  // namespace
}  // namespace phom
