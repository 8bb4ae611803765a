#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "src/serve/async.h"
#include "src/serve/cost_model.h"
#include "src/serve/executor.h"
#include "src/serve/mpmc_queue.h"
#include "src/serve/request.h"
#include "src/serve/shard.h"
#include "tests/test_util.h"

/// Tier-1 coverage of predictive admission control and slack-ordered
/// scheduling (serve/cost_model.h, serve/executor.h):
///
///  * the cost model itself — log2 bucketing, the BENCH-shaped priors, EWMA
///    learning with exact arithmetic checks, snapshot immutability/caching,
///    and the conservative DecideAdmission rule;
///  * admission determinism — decisions against a fixed snapshot are
///    bit-identical across thread counts and numeric backends;
///  * the executor integration — proactive degradation that SKIPS the exact
///    solve (the headline acceptance criterion), reactive conversions keeping
///    proactive=false, slack ordering (plain EDF and predicted-cost-
///    adjusted), the submit-time budget fix, and no-deadline bit-identity
///    with a model installed;
///  * MpmcQueue capacity edge cases (0/1 → 2, oversize rejection).
///
/// Timing-sensitive scenarios use the shared gate-engine harness
/// (tests/test_util.h) so a parked worker — not a sleep — defines "busy".

namespace phom {
namespace {

using serve::AdmissionAction;
using serve::BatchExecutor;
using serve::CostModel;
using serve::CostModelSnapshot;
using serve::CostPrediction;
using serve::DecideAdmission;
using serve::ExecutorOptions;
using serve::ExecutorStats;
using serve::MpmcQueue;
using serve::PriorComponentCost;
using serve::RequestClock;
using serve::RequestStats;
using serve::SolveRequest;
using serve::SolveTicket;
using serve::UncertainEdgeBucket;
using test_util::GateOpener;
using test_util::HardCellEnumerationCase;
using test_util::MixedServeInstance;
using test_util::MixedServeQueries;
using test_util::TestGate;

constexpr char kGateEngine[] = "admission-test-gate";
constexpr char kHeavyEngine[] = "admission-slack-heavy";
constexpr char kLightEngine[] = "admission-slack-light";

void ExpectTimelineMonotonic(const RequestStats& stats,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_LE(stats.enqueued, stats.started);
  EXPECT_LE(stats.started, stats.finished);
}

void ExpectResultsBitIdentical(const Result<SolveResult>& serial,
                               const Result<SolveResult>& async,
                               const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(serial.ok(), async.ok());
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().code(), async.status().code());
    EXPECT_EQ(serial.status().message(), async.status().message());
    return;
  }
  EXPECT_EQ(serial->probability, async->probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(serial->probability_double),
            std::bit_cast<uint64_t>(async->probability_double));
  EXPECT_EQ(serial->stats.engine, async->stats.engine);
  EXPECT_EQ(serial->stats.components, async->stats.components);
  EXPECT_EQ(serial->stats.worlds, async->stats.worlds);
}

/// Trains the model's cell for a WHOLE-problem dispatch of `prepared` under
/// `options` — resolving the engine exactly as PredictSolveCost does, so the
/// primed cell is the one admission will read.
void PrimeWholeProblemCell(CostModel* model, const PreparedProblem& prepared,
                           const SolveOptions& options,
                           std::chrono::nanoseconds duration) {
  bool forced = false;
  Result<const Engine*> engine = SelectEngineForProblem(
      EngineRegistry::Global(), prepared, options, &forced);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_NE(*engine, nullptr);
  model->RecordComponent((*engine)->name(),
                         prepared.analysis.instance_class.finest,
                         prepared.instance().NumUncertainEdges(), duration);
}

// ---------------------------------------------------------------------------
// Cost model unit tests: buckets, priors, EWMA arithmetic, snapshots.
// ---------------------------------------------------------------------------

TEST(CostModel, UncertainEdgeBucketsAreLog2) {
  EXPECT_EQ(UncertainEdgeBucket(0), 0u);
  EXPECT_EQ(UncertainEdgeBucket(1), 1u);
  EXPECT_EQ(UncertainEdgeBucket(2), 2u);
  EXPECT_EQ(UncertainEdgeBucket(3), 2u);
  EXPECT_EQ(UncertainEdgeBucket(4), 3u);
  EXPECT_EQ(UncertainEdgeBucket(7), 3u);
  EXPECT_EQ(UncertainEdgeBucket(8), 4u);
  EXPECT_EQ(UncertainEdgeBucket(1023), 10u);
  EXPECT_EQ(UncertainEdgeBucket(1024), 11u);
}

TEST(CostModel, PriorsSeparateHardFromTractableCells) {
  using std::chrono::nanoseconds;
  // Enumeration engines are exponential regardless of the component class.
  EXPECT_EQ(PriorComponentCost("fallback", GraphClass::kTwoWayPath, 10),
            nanoseconds(int64_t{2000} << 10));
  EXPECT_EQ(PriorComponentCost("match-lineage", GraphClass::kOneWayPath, 3),
            nanoseconds(int64_t{2000} << 3));
  // Hard classes are exponential regardless of the engine.
  EXPECT_EQ(PriorComponentCost("per-component", GraphClass::kConnected, 4),
            nanoseconds(int64_t{2000} << 4));
  // Tractable cells are linear in the uncertain edge count.
  EXPECT_EQ(PriorComponentCost("connected-on-2wp", GraphClass::kTwoWayPath, 10),
            nanoseconds(40'000));
  EXPECT_EQ(PriorComponentCost("path-on-dwt", GraphClass::kDownwardTree, 0),
            nanoseconds(20'000));
  // The exponential shift caps at 40 (no int64 overflow at huge edge counts).
  EXPECT_EQ(PriorComponentCost("fallback", GraphClass::kGeneral, 64),
            nanoseconds(int64_t{2000} << 40));
  EXPECT_EQ(PriorComponentCost("fallback", GraphClass::kGeneral, 4096),
            PriorComponentCost("fallback", GraphClass::kGeneral, 40));
}

TEST(CostModel, UnlearnedCellsPredictFromPriorWithWideBand) {
  CostModel model;
  std::shared_ptr<const CostModelSnapshot> snapshot = model.Snapshot();
  EXPECT_EQ(snapshot->num_cells(), 0u);
  CostPrediction p =
      snapshot->PredictComponent("fallback", GraphClass::kConnected, 10);
  EXPECT_EQ(p.expected, PriorComponentCost("fallback", GraphClass::kConnected,
                                            10));
  EXPECT_EQ(p.expected, std::chrono::nanoseconds(2'048'000));
  EXPECT_EQ(p.optimistic, std::chrono::nanoseconds(256'000));    // prior / 8
  EXPECT_LE(p.optimistic, p.expected);
}

TEST(CostModel, EwmaLearnsWithExactArithmeticAndSnapshotsAreImmutable) {
  CostModel model;
  model.RecordComponent("e", GraphClass::kTwoWayPath, 5,
                        std::chrono::nanoseconds(1000));
  std::shared_ptr<const CostModelSnapshot> first = model.Snapshot();
  ASSERT_EQ(first->num_cells(), 1u);
  {
    // First observation: mean = x, dev = x/2 (deliberately wide), band
    // mean ± 2·dev = [0, 2000].
    CostPrediction p = first->PredictComponent("e", GraphClass::kTwoWayPath, 5);
    EXPECT_NE(p.expected, PriorComponentCost("e", GraphClass::kTwoWayPath, 5));
    EXPECT_EQ(p.expected.count(), 1000);
    EXPECT_EQ(p.optimistic.count(), 0);
    // Edge counts 4..7 share bucket 3, so they read the same cell.
    CostPrediction same_bucket =
        first->PredictComponent("e", GraphClass::kTwoWayPath, 7);
    EXPECT_EQ(same_bucket.expected, p.expected);
    // Bucket 2 (counts 2-3) is a different, unlearned cell.
    EXPECT_EQ(first->PredictComponent("e", GraphClass::kTwoWayPath, 3).expected,
              PriorComponentCost("e", GraphClass::kTwoWayPath, 3));
  }

  // EWMA step (alpha = 0.25): mean 1000 → 1250, dev 500 → 625. All values
  // are exactly representable, so the assertions are equalities.
  model.RecordComponent("e", GraphClass::kTwoWayPath, 5,
                        std::chrono::nanoseconds(2000));
  std::shared_ptr<const CostModelSnapshot> second = model.Snapshot();
  {
    CostPrediction p =
        second->PredictComponent("e", GraphClass::kTwoWayPath, 5);
    EXPECT_EQ(p.expected.count(), 1250);
    EXPECT_EQ(p.optimistic.count(), 0);  // 1250 - 2*625 = 0
  }
  // A zero-error observation shrinks the deviation: dev 625 → 468.75.
  model.RecordComponent("e", GraphClass::kTwoWayPath, 5,
                        std::chrono::nanoseconds(1250));
  std::shared_ptr<const CostModelSnapshot> third = model.Snapshot();
  {
    CostPrediction p = third->PredictComponent("e", GraphClass::kTwoWayPath, 5);
    EXPECT_EQ(p.expected.count(), 1250);
    EXPECT_EQ(p.optimistic.count(), 312);  // 1250 - 937.5, truncated
  }

  // Snapshot isolation: the snapshots taken earlier still answer from their
  // own frozen cells, and versions are strictly increasing.
  EXPECT_EQ(
      first->PredictComponent("e", GraphClass::kTwoWayPath, 5).expected.count(),
      1000);
  EXPECT_EQ(second->PredictComponent("e", GraphClass::kTwoWayPath, 5)
                .expected.count(),
            1250);
  EXPECT_LT(first->version(), second->version());
  EXPECT_LT(second->version(), third->version());
}

TEST(CostModel, SnapshotIsCachedUntilTheNextUpdate) {
  CostModel model;
  model.RecordComponent("e", GraphClass::kPolytree, 2,
                        std::chrono::nanoseconds(500));
  std::shared_ptr<const CostModelSnapshot> a = model.Snapshot();
  std::shared_ptr<const CostModelSnapshot> b = model.Snapshot();
  EXPECT_EQ(a.get(), b.get()) << "no update between snapshots: cached copy";
  model.RecordComponent("e", GraphClass::kPolytree, 2,
                        std::chrono::nanoseconds(700));
  std::shared_ptr<const CostModelSnapshot> c = model.Snapshot();
  EXPECT_NE(a.get(), c.get());
  EXPECT_GT(c->version(), a->version());
}

TEST(CostModel, RecordSolveSkipsDegradedAndImmediateResults) {
  Rng rng(41);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  CostModel model;

  PreparedProblem prepared = session.Prepare(MakeLabeledPath({0}));
  SolveResult degraded;
  degraded.stats.engine = "monte-carlo";
  degraded.stats.duration = std::chrono::milliseconds(5);
  degraded.degrade.degraded = true;
  model.RecordSolve(prepared, degraded);
  EXPECT_EQ(model.Snapshot()->num_cells(), 0u)
      << "degraded estimates must not train the exact-latency model";

  SolveResult engineless;  // immediate answers carry no engine
  model.RecordSolve(prepared, engineless);
  EXPECT_EQ(model.Snapshot()->num_cells(), 0u);

  SolveResult clean;
  clean.stats.engine = "fallback";
  clean.stats.duration = std::chrono::milliseconds(1);
  model.RecordSolve(prepared, clean);
  EXPECT_EQ(model.Snapshot()->num_cells(), 1u);
}

TEST(CostModel, PredictSolveCostMirrorsTheDispatchShape) {
  Rng rng(42);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  SolveOptions options = session.options();
  CostModel model;
  std::shared_ptr<const CostModelSnapshot> snapshot = model.Snapshot();

  // Immediate answers predict zero (admission always admits them).
  PreparedProblem immediate = session.Prepare(DiGraph(3));
  ASSERT_TRUE(immediate.immediate.has_value());
  ComponentDispatch no_plan;
  CostPrediction p = snapshot->PredictSolveCost(immediate, no_plan, options);
  EXPECT_EQ(p.expected.count(), 0);

  // A componentwise plan sums per-component predictions under the plan's
  // engine — the same units the executor will enqueue.
  bool saw_componentwise = false;
  for (const DiGraph& query : MixedServeQueries(&rng)) {
    PreparedProblem prepared = session.Prepare(query);
    ComponentDispatch plan = PlanComponentDispatch(prepared, options);
    if (plan.components < 2) continue;
    saw_componentwise = true;
    CostPrediction whole = snapshot->PredictSolveCost(prepared, plan, options);
    CostPrediction sum;
    const InstanceContext& ctx = *prepared.context;
    for (size_t c = 0; c < plan.components; ++c) {
      sum += snapshot->PredictComponent(
          plan.engine->name(), ctx.component_classes[c].finest,
          ctx.components[c].graph.NumUncertainEdges());
    }
    EXPECT_EQ(whole.expected, sum.expected);
    EXPECT_EQ(whole.optimistic, sum.optimistic);
  }
  EXPECT_TRUE(saw_componentwise)
      << "corpus must exercise the componentwise prediction path";
}

TEST(CostModel, DecideAdmissionIsConservative) {
  Rng rng(43);
  HardCellEnumerationCase hard(&rng, 12);
  EvalSession session(hard.instance);
  PreparedProblem prepared = session.Prepare(hard.query);
  ASSERT_FALSE(prepared.immediate.has_value());
  ComponentDispatch plan = PlanComponentDispatch(prepared, session.options());

  CostModel model;
  std::shared_ptr<const CostModelSnapshot> snapshot = model.Snapshot();
  SolveOptions off = session.options();  // degrade mode kOff
  SolveOptions on = off;
  on.degrade.mode = DegradeMode::kOnDeadlineRisk;

  CostPrediction predicted =
      snapshot->PredictSolveCost(prepared, plan, on);
  ASSERT_GT(predicted.optimistic.count(), 0) << "hard cell: nonzero prior";

  // No deadline → always admit, whatever the prediction says.
  EXPECT_EQ(DecideAdmission(*snapshot, prepared, plan, on, std::nullopt).action,
            AdmissionAction::kAdmitExact);
  // A budget even the optimistic edge cannot meet → proactive, but ONLY when
  // the policy allows degradation.
  std::chrono::nanoseconds tiny(predicted.optimistic.count() / 2);
  EXPECT_EQ(DecideAdmission(*snapshot, prepared, plan, on, tiny).action,
            AdmissionAction::kDegradeProactively);
  EXPECT_EQ(DecideAdmission(*snapshot, prepared, plan, off, tiny).action,
            AdmissionAction::kAdmitExact);
  // A budget the optimistic edge CAN meet → attempt exactly (may still
  // degrade reactively later) — the conservative half of the rule.
  std::chrono::nanoseconds roomy(predicted.optimistic.count() * 2);
  EXPECT_EQ(DecideAdmission(*snapshot, prepared, plan, on, roomy).action,
            AdmissionAction::kAdmitExact);
  // The decision always carries the prediction it was made against.
  EXPECT_EQ(DecideAdmission(*snapshot, prepared, plan, on, tiny)
                .predicted.expected,
            predicted.expected);
}

// ---------------------------------------------------------------------------
// Admission determinism: bit-identical decisions across threads & backends.
// ---------------------------------------------------------------------------

struct DecisionRecord {
  int action = 0;
  int64_t expected = 0;
  int64_t optimistic = 0;

  bool operator==(const DecisionRecord&) const = default;
};

class ServeAdmissionDeterminismTest : public ::testing::TestWithParam<size_t> {
};

TEST_P(ServeAdmissionDeterminismTest, DecisionsBitIdenticalAcrossThreads) {
  const size_t num_threads = GetParam();
  Rng rng(test_util::kCrosscheckSeedBase + 6);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> queries = MixedServeQueries(&rng);

  // A model with a mix of learned and prior-backed cells.
  auto model = std::make_shared<CostModel>();
  model->RecordComponent("fallback", GraphClass::kConnected, 10,
                         std::chrono::milliseconds(5));
  model->RecordComponent("per-component", GraphClass::kTwoWayPath, 3,
                         std::chrono::microseconds(40));
  std::shared_ptr<const CostModelSnapshot> snapshot = model->Snapshot();

  // The corpus of (prepared, plan, options) units, over both backends.
  struct Unit {
    PreparedProblem prepared{DiGraph(0), nullptr, std::nullopt, {}};
    ComponentDispatch plan;
    SolveOptions options;
  };
  std::vector<Unit> units;
  for (NumericBackend backend :
       {NumericBackend::kExact, NumericBackend::kDouble}) {
    SolveOptions options;
    options.numeric = backend;
    options.degrade.mode = DegradeMode::kOnDeadlineRisk;
    EvalSession session(instance, options);
    for (const DiGraph& q : queries) {
      Unit u;
      u.prepared = session.Prepare(q);
      u.options = options;
      u.plan = PlanComponentDispatch(u.prepared, u.options);
      units.push_back(std::move(u));
    }
  }
  const std::vector<std::chrono::nanoseconds> budgets = {
      std::chrono::nanoseconds(1), std::chrono::microseconds(100),
      std::chrono::seconds(100)};

  auto decide_all = [&](std::vector<DecisionRecord>* out) {
    out->clear();
    for (const Unit& u : units) {
      for (const std::chrono::nanoseconds budget : budgets) {
        serve::AdmissionDecision d =
            DecideAdmission(*snapshot, u.prepared, u.plan, u.options, budget);
        out->push_back(DecisionRecord{
            static_cast<int>(d.action), d.predicted.expected.count(),
            d.predicted.optimistic.count()});
      }
    }
  };

  std::vector<DecisionRecord> baseline;
  decide_all(&baseline);
  ASSERT_FALSE(baseline.empty());
  bool saw_proactive = false;
  bool saw_admit = false;
  for (const DecisionRecord& r : baseline) {
    saw_proactive = saw_proactive || r.action != 0;
    saw_admit = saw_admit || r.action == 0;
  }
  EXPECT_TRUE(saw_proactive) << "corpus must exercise both decisions";
  EXPECT_TRUE(saw_admit);

  // Concurrent deciders against the SAME shared snapshot must reproduce the
  // serial decisions bit for bit (and race-free: this runs under TSan).
  std::vector<std::vector<DecisionRecord>> per_thread(num_threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] { decide_all(&per_thread[t]); });
  }
  for (std::thread& w : workers) w.join();
  for (size_t t = 0; t < num_threads; ++t) {
    EXPECT_EQ(per_thread[t], baseline) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ServeAdmissionDeterminismTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Threads" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Executor integration: proactive degrade, reactive provenance.
// ---------------------------------------------------------------------------

TEST(ServeAdmission, ProactiveDegradeSkipsTheExactSolveEntirely) {
  // The headline acceptance criterion: a request the model predicts cannot
  // fit — even optimistically — must produce a degraded result WITHOUT the
  // exact solve ever starting. The 20-edge hard cell's prior is ~2 µs · 2^20
  // ≈ 2 s (optimistic ≈ 260 ms), far over the 50 ms budget.
  Rng rng(test_util::kCrosscheckSeedBase + 60);
  HardCellEnumerationCase hard(&rng, 20);
  EvalSession session(hard.instance);

  ExecutorOptions options;
  options.threads = 2;
  options.cost_model = std::make_shared<CostModel>();
  BatchExecutor executor(options);

  SolveRequest request(hard.query);
  request.WithBudget(std::chrono::milliseconds(50))
      .WithDegradeOnDeadlineRisk()
      .WithMonteCarloSeed(1234);
  SolveTicket ticket = executor.Submit(session, std::move(request));
  Result<SolveResult> result = ticket.Get();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->degrade.degraded);
  EXPECT_TRUE(result->degrade.proactive)
      << "admission-time skips must carry proactive provenance";
  EXPECT_GE(result->degrade.samples_used, 1u);
  EXPECT_GE(result->degrade.estimate, 0.0);
  EXPECT_LE(result->degrade.estimate, 1.0);

  RequestStats stats = ticket.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_GT(stats.predicted_cost, std::chrono::milliseconds(100))
      << "the hard-cell prior must dominate the 50 ms budget";
  ExpectTimelineMonotonic(stats, "proactive ticket");

  ExecutorStats exec = executor.stats();
  EXPECT_EQ(exec.submitted, 1u);
  EXPECT_EQ(exec.exact_solves_started, 0u)
      << "the exact solve must never start for a proactively degraded request";
  EXPECT_EQ(exec.degraded_proactive, 1u);
  EXPECT_EQ(exec.degraded_reactive, 0u);
}

TEST(ServeAdmission, ReactiveConversionIsNotMarkedProactive) {
  // Prime the model so admission predicts the solve fits; the real
  // enumeration then misses the deadline mid-flight and converts
  // REACTIVELY — provenance must say proactive=false and the exact-solve
  // counter must show the attempt.
  Rng rng(test_util::kCrosscheckSeedBase + 61);
  HardCellEnumerationCase hard(&rng, 20);
  EvalSession session(hard.instance);

  ExecutorOptions options;
  options.threads = 1;
  options.cost_model = std::make_shared<CostModel>();
  BatchExecutor executor(options);

  SolveOptions degrade_on = session.options();
  degrade_on.degrade.mode = DegradeMode::kOnDeadlineRisk;
  {
    PreparedProblem prepared = session.Prepare(hard.query);
    PrimeWholeProblemCell(options.cost_model.get(), prepared, degrade_on,
                          std::chrono::microseconds(1));
  }

  SolveRequest request(hard.query);
  request.WithBudget(std::chrono::milliseconds(80))
      .WithDegradeOnDeadlineRisk()
      .WithMonteCarloSeed(777);
  SolveTicket ticket = executor.Submit(session, std::move(request));
  Result<SolveResult> result = ticket.Get();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->degrade.degraded);
  EXPECT_FALSE(result->degrade.proactive)
      << "a mid-flight conversion is reactive, not proactive";
  EXPECT_EQ(ticket.stats().predicted_cost, std::chrono::microseconds(1));
  ExpectTimelineMonotonic(ticket.stats(), "reactive ticket");

  ExecutorStats exec = executor.stats();
  EXPECT_EQ(exec.exact_solves_started, 1u);
  EXPECT_EQ(exec.degraded_reactive, 1u);
  EXPECT_EQ(exec.degraded_proactive, 0u);
}

// ---------------------------------------------------------------------------
// Slack ordering: earliest effective deadline first.
// ---------------------------------------------------------------------------

TEST(ServeAdmission, PlainEdfRunsEarlierDeadlineFirstWithoutAModel) {
  test_util::EnsureGateEngineRegistered(kGateEngine);
  TestGate()->Reset();
  Rng rng(test_util::kCrosscheckSeedBase + 63);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);

  BatchExecutor executor(ExecutorOptions{.threads = 1});
  GateOpener opener;

  SolveRequest blocker(MakeLabeledPath({0}));
  blocker.WithEngine(kGateEngine);
  SolveTicket blocker_ticket = executor.Submit(session, std::move(blocker));
  TestGate()->AwaitEntered(1);

  // Submitted late-deadline-first: FIFO would run "late" first; EDF must
  // run "early" first.
  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](std::string name) {
    return [&, name](const Result<SolveResult>&, const RequestStats&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
    };
  };
  SolveRequest late(MakeLabeledPath({1}));
  late.WithDeadline(RequestClock::now() + std::chrono::seconds(60));
  SolveTicket late_ticket =
      executor.Submit(session, std::move(late), record("late"));
  SolveRequest early(MakeLabeledPath({1}));
  early.WithDeadline(RequestClock::now() + std::chrono::seconds(30));
  SolveTicket early_ticket =
      executor.Submit(session, std::move(early), record("early"));

  TestGate()->Open();
  ASSERT_TRUE(late_ticket.Get().ok());
  ASSERT_TRUE(early_ticket.Get().ok());
  ASSERT_TRUE(blocker_ticket.Get().ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "early");
  EXPECT_EQ(order[1], "late");
}

TEST(ServeAdmission, SlackOrderingSubtractsPredictedCostFromTheDeadline) {
  // With a model, urgency is deadline MINUS predicted cost: a far deadline
  // with a huge predicted cost has less slack than a near deadline with a
  // tiny one, and must run first — the opposite of plain EDF.
  test_util::EnsureGateEngineRegistered(kGateEngine);
  test_util::EnsureGateEngineRegistered(kHeavyEngine);
  test_util::EnsureGateEngineRegistered(kLightEngine);
  TestGate()->Reset();
  Rng rng(test_util::kCrosscheckSeedBase + 64);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);

  ExecutorOptions options;
  options.threads = 1;
  options.split_components = false;
  options.cost_model = std::make_shared<CostModel>();
  BatchExecutor executor(options);
  GateOpener opener;

  const DiGraph query = MakeLabeledPath({0});
  {
    PreparedProblem prepared = session.Prepare(query);
    SolveOptions heavy = session.options();
    heavy.force_engine = kHeavyEngine;
    PrimeWholeProblemCell(options.cost_model.get(), prepared, heavy,
                          std::chrono::seconds(100));
    SolveOptions light = session.options();
    light.force_engine = kLightEngine;
    PrimeWholeProblemCell(options.cost_model.get(), prepared, light,
                          std::chrono::milliseconds(1));
  }

  SolveRequest blocker(query);
  blocker.WithEngine(kGateEngine);
  SolveTicket blocker_ticket = executor.Submit(session, std::move(blocker));
  TestGate()->AwaitEntered(1);

  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](std::string name) {
    return [&, name](const Result<SolveResult>&, const RequestStats&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
    };
  };
  // "light": earlier raw deadline (30 s), tiny predicted cost → effective
  // ≈ now + 30 s. Submitted FIRST, so both FIFO and plain EDF would run it
  // first.
  SolveRequest light(query);
  light.WithEngine(kLightEngine)
      .WithDeadline(RequestClock::now() + std::chrono::seconds(30));
  SolveTicket light_ticket =
      executor.Submit(session, std::move(light), record("light"));
  // "heavy": later raw deadline (60 s) but a 100 s predicted cost →
  // effective deadline far in the past → less slack → runs first.
  SolveRequest heavy(query);
  heavy.WithEngine(kHeavyEngine)
      .WithDeadline(RequestClock::now() + std::chrono::seconds(60));
  SolveTicket heavy_ticket =
      executor.Submit(session, std::move(heavy), record("heavy"));
  EXPECT_EQ(heavy_ticket.stats().predicted_cost, std::chrono::seconds(100))
      << "a single observation IS the EWMA mean";

  TestGate()->Open();
  ASSERT_TRUE(heavy_ticket.Get().ok());
  ASSERT_TRUE(light_ticket.Get().ok());
  ASSERT_TRUE(blocker_ticket.Get().ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "heavy")
      << "predicted cost must shift urgency ahead of the raw deadline";
  EXPECT_EQ(order[1], "light");
}

// ---------------------------------------------------------------------------
// The WithBudget submit-time fix (the bug this sweep targets).
// ---------------------------------------------------------------------------

TEST(ServeAdmission, BudgetResolvesAtSubmitNotAtConstruction) {
  Rng rng(test_util::kCrosscheckSeedBase + 65);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});

  // Regression: building the request long before submitting it must not eat
  // the budget. Under the old construction-time stamping this request would
  // arrive already expired and fail with DeadlineExceeded.
  SolveRequest request(MakeLabeledPath({0}));
  request.WithBudget(std::chrono::milliseconds(150));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const RequestClock::time_point submit_time = RequestClock::now();
  SolveTicket ticket = executor.Submit(session, std::move(request));
  Result<SolveResult> result = ticket.Get();
  ASSERT_TRUE(result.ok())
      << "budget must start at submit, not construction: "
      << result.status().ToString();
  EXPECT_FALSE(ticket.stats().expired_before_start);
  EXPECT_GE(ticket.stats().enqueued, submit_time -
                                         std::chrono::milliseconds(1));
  ExpectTimelineMonotonic(ticket.stats(), "budget ticket");

  // When both are set, the earlier effective deadline wins: an
  // already-lapsed absolute deadline beats a roomy budget.
  SolveRequest both(MakeLabeledPath({0}));
  both.WithDeadline(RequestClock::now() - std::chrono::milliseconds(1))
      .WithBudget(std::chrono::hours(1));
  Result<SolveResult> expired =
      executor.Submit(session, std::move(both)).Get();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), Status::Code::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// No deadlines → bit-identical to the FIFO executor, model installed or not.
// ---------------------------------------------------------------------------

class ServeAdmissionIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServeAdmissionIdentityTest, NoDeadlinesBitIdenticalWithModelInstalled) {
  const size_t threads = GetParam();
  for (NumericBackend backend :
       {NumericBackend::kExact, NumericBackend::kDouble}) {
    Rng rng(test_util::kCrosscheckSeedBase + 66);
    ProbGraph instance = MixedServeInstance(&rng);
    std::vector<DiGraph> queries = MixedServeQueries(&rng);
    std::vector<DiGraph> batch = queries;
    batch.insert(batch.end(), queries.begin(), queries.end());

    SolveOptions options;
    options.numeric = backend;
    EvalSession serial_session(instance, options);
    std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

    ExecutorOptions exec_options;
    exec_options.threads = threads;
    exec_options.cost_model = std::make_shared<CostModel>();
    BatchExecutor executor(exec_options);
    EvalSession async_session(instance, options);
    std::vector<SolveRequest> requests;
    requests.reserve(batch.size());
    for (const DiGraph& q : batch) requests.push_back(SolveRequest(q));
    std::vector<SolveTicket> tickets =
        executor.SubmitBatch(async_session, std::move(requests));
    std::vector<Result<SolveResult>> async = BatchExecutor::Collect(tickets);

    const std::string label = std::string("backend=") + ToString(backend) +
                              " threads=" + std::to_string(threads);
    ASSERT_EQ(serial.size(), async.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectResultsBitIdentical(serial[i], async[i],
                                label + " query " + std::to_string(i));
    }
    EXPECT_EQ(serial_session.stats().queries, async_session.stats().queries);
    EXPECT_EQ(serial_session.stats().instance_preparations,
              async_session.stats().instance_preparations);
    for (SolveTicket& t : tickets) {
      ExpectTimelineMonotonic(t.stats(), label);
    }
    ExecutorStats exec = executor.stats();
    EXPECT_EQ(exec.submitted, batch.size());
    EXPECT_EQ(exec.degraded_proactive, 0u);
    EXPECT_EQ(exec.degraded_reactive, 0u);
    EXPECT_GT(exec.exact_solves_started, 0u);
    // The model learned from the served exact solves.
    EXPECT_GT(exec_options.cost_model->Snapshot()->num_cells(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ServeAdmissionIdentityTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Threads" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// MpmcQueue capacity edge cases (the overflow fix rides this sweep).
// ---------------------------------------------------------------------------

TEST(ServeAdmissionQueue, CapacityRoundsUpToAPowerOfTwoWithFloorTwo) {
  EXPECT_EQ(MpmcQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(1024).capacity(), 1024u);
  EXPECT_EQ(MpmcQueue<int>(1025).capacity(), 2048u);
}

TEST(ServeAdmissionQueue, OversizeCapacityIsRejectedNotWrappedAround) {
  // Pre-fix, `cap <<= 1` wrapped past 2^63 and the rounding loop never
  // terminated. The constructor must reject such requests up front.
  EXPECT_THROW(MpmcQueue<int>(SIZE_MAX), std::logic_error);
  EXPECT_THROW(MpmcQueue<int>((size_t{1} << 31) + 1), std::logic_error);
  EXPECT_THROW(MpmcQueue<int>(size_t{1} << 62), std::logic_error);
}

TEST(ServeAdmissionQueue, MinimumCapacityQueueFillsDrainsAndWraps) {
  MpmcQueue<int> queue(1);  // rounds to 2 cells
  ASSERT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.TryPush(10));
  EXPECT_TRUE(queue.TryPush(11));
  EXPECT_FALSE(queue.TryPush(12)) << "full at the rounded capacity";
  int out = 0;
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(queue.TryPush(12)) << "a freed cell is reusable (wraparound)";
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 11);
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 12);
  EXPECT_FALSE(queue.TryPop(&out)) << "empty after draining";
}

}  // namespace
}  // namespace phom
