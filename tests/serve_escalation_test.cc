#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/eval_session.h"
#include "src/core/monte_carlo.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "src/serve/async.h"
#include "src/serve/cost_model.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "tests/test_util.h"

/// Tier-1 coverage of width-aware result escalation (EscalationPolicy,
/// solver.h; BatchExecutor::MaybeEscalate, serve/executor.h):
///
///  * the trigger predicate — off mode, absolute and relative thresholds,
///    and the invalid-width (NaN / hi < lo) escape hatch;
///  * the end-to-end path — a too-wide certified interval answer is re-run
///    under the exact backend, BIT-IDENTICAL to a cold exact solve of the
///    same request, with EscalateInfo/RequestStats/ExecutorStats provenance
///    all reconciling (attempted == succeeded + budget_denied + kept);
///  * the acceptance criterion — WithMaxWidth on a tractable cell never
///    returns a silent wide interval: the answer either meets the target or
///    escalates to exact;
///  * budget denial — a primed cost model predicting a hopeless exact
///    re-run keeps the certified interval answer instead;
///  * escalation off — interval results are bit-identical to the serial
///    session at thread counts 1/2/8, and no escalation counter moves;
///  * the interval-width histogram conservation law — sum(buckets) equals
///    the number of certified interval completions (escalated results are
///    counted once, at their pre-escalation width; uncertified degraded
///    estimates are never counted);
///  * soundness with a cost model installed — executor interval enclosures
///    contain the exact answer;
///  * the CertifiedHalfWidth95(·, 0) division-by-zero regression.

namespace phom {
namespace {

using serve::BatchExecutor;
using serve::CostModel;
using serve::CostModelSnapshot;
using serve::ExecutorOptions;
using serve::ExecutorStats;
using serve::IntervalWidthBucket;
using serve::kIntervalWidthInvalid;
using serve::RequestClock;
using serve::SolveRequest;
using serve::SolveTicket;
using test_util::MixedServeInstance;
using test_util::MixedServeQueries;
using test_util::PaperFigure1;

constexpr uint64_t kSeed = 20260808;

void ExpectResultsBitIdentical(const Result<SolveResult>& serial,
                               const Result<SolveResult>& async,
                               const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(serial.ok(), async.ok());
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().code(), async.status().code());
    return;
  }
  EXPECT_EQ(serial->probability, async->probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(serial->probability_double),
            std::bit_cast<uint64_t>(async->probability_double));
  EXPECT_EQ(std::bit_cast<uint64_t>(serial->bound.lo),
            std::bit_cast<uint64_t>(async->bound.lo));
  EXPECT_EQ(std::bit_cast<uint64_t>(serial->bound.hi),
            std::bit_cast<uint64_t>(async->bound.hi));
  EXPECT_EQ(serial->bound.certified, async->bound.certified);
  EXPECT_EQ(serial->stats.engine, async->stats.engine);
  EXPECT_EQ(serial->stats.components, async->stats.components);
  EXPECT_EQ(serial->stats.worlds, async->stats.worlds);
}

uint64_t HistogramTotal(const ExecutorStats& stats) {
  uint64_t total = 0;
  for (uint64_t count : stats.interval_width_hist) total += count;
  return total;
}

/// Trains EVERY registered engine's cell for the whole problem and each of
/// its components, so whichever engine/dispatch the prediction resolves,
/// it reads `duration` instead of a cold prior. Used to make the exact
/// re-run look hopeless deterministically.
void PrimeAllCells(CostModel* model, const PreparedProblem& prepared,
                   std::chrono::nanoseconds duration) {
  for (const Engine* engine : EngineRegistry::Global().engines()) {
    model->RecordComponent(engine->name(),
                           prepared.analysis.instance_class.finest,
                           prepared.instance().NumUncertainEdges(), duration);
    if (prepared.context != nullptr) {
      const InstanceContext& ctx = *prepared.context;
      for (size_t c = 0; c < ctx.components.size(); ++c) {
        model->RecordComponent(engine->name(),
                               ctx.component_classes[c].finest,
                               ctx.components[c].graph.NumUncertainEdges(),
                               duration);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Trigger predicate and width-accounting bugfix units.
// ---------------------------------------------------------------------------

TEST(Escalation, ShouldEscalateWidthOffModeNeverFires) {
  EscalationPolicy off;
  EXPECT_FALSE(ShouldEscalateWidth(0.9, 1.0, off));
  off.max_width = 1e-12;  // knobs without the mode stay inert
  off.target_relative_width = 1e-12;
  EXPECT_FALSE(ShouldEscalateWidth(0.9, 1.0, off));
}

TEST(Escalation, ShouldEscalateWidthAbsoluteThresholdIsStrict) {
  EscalationPolicy policy;
  policy.mode = EscalationMode::kOnWideResult;
  policy.max_width = 1e-3;
  EXPECT_TRUE(ShouldEscalateWidth(2e-3, 0.5, policy));
  EXPECT_FALSE(ShouldEscalateWidth(5e-4, 0.5, policy));
  EXPECT_FALSE(ShouldEscalateWidth(1e-3, 0.5, policy)) << "strict >";
}

TEST(Escalation, ShouldEscalateWidthRelativeThreshold) {
  EscalationPolicy policy;
  policy.mode = EscalationMode::kOnWideResult;
  policy.target_relative_width = 0.1;
  EXPECT_TRUE(ShouldEscalateWidth(0.06, 0.5, policy));
  EXPECT_FALSE(ShouldEscalateWidth(0.04, 0.5, policy));
  // Mode on but both knobs zero: nothing can trigger.
  policy.target_relative_width = 0.0;
  EXPECT_FALSE(ShouldEscalateWidth(0.9, 1.0, policy));
}

TEST(Escalation, InvalidWidthEscalatesWheneverATriggerIsArmed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EscalationPolicy policy;
  policy.mode = EscalationMode::kOnWideResult;
  policy.max_width = 0.5;
  // A NaN or negative width means the enclosure invariant broke; any armed
  // trigger escalates instead of comparing (the comparisons are all false
  // on NaN, which would silently KEEP the broken answer).
  EXPECT_TRUE(ShouldEscalateWidth(nan, 0.5, policy));
  EXPECT_TRUE(ShouldEscalateWidth(-1e-9, 0.5, policy));
  policy.max_width = 0.0;
  policy.target_relative_width = 0.25;
  EXPECT_TRUE(ShouldEscalateWidth(nan, 0.5, policy));
  policy.target_relative_width = 0.0;
  EXPECT_FALSE(ShouldEscalateWidth(nan, 0.5, policy)) << "no trigger armed";
}

TEST(Escalation, IntervalWidthBucketRoutesInvalidWidthsLoudly) {
  EXPECT_EQ(IntervalWidthBucket(0.0), 0u) << "point enclosures";
#ifdef NDEBUG
  // Regression: NaN (hi or lo NaN) and negative (hi < lo) widths used to
  // land in bucket 0 and masquerade as PERFECT point enclosures. They now
  // get their own loud bucket; debug builds assert instead.
  EXPECT_EQ(IntervalWidthBucket(std::numeric_limits<double>::quiet_NaN()),
            kIntervalWidthInvalid);
  EXPECT_EQ(IntervalWidthBucket(-0.25), kIntervalWidthInvalid);
  EXPECT_EQ(IntervalWidthBucket(-std::numeric_limits<double>::infinity()),
            kIntervalWidthInvalid);
#endif
  // The valid lattice is unchanged by the fix.
  EXPECT_EQ(IntervalWidthBucket(0.5), 64u);
  EXPECT_EQ(IntervalWidthBucket(1.0), 65u);
  EXPECT_EQ(IntervalWidthBucket(5e-324), 1u);
  EXPECT_LT(IntervalWidthBucket(1e-10), IntervalWidthBucket(1e-5));
}

TEST(Escalation, CertifiedHalfWidth95ZeroSamplesIsVacuousNotNaN) {
  // Regression: hits == 0 with samples == 0 divided 3.0 by zero (inf), and
  // any other zero-sample call produced NaN via 0/0. A zero-sample
  // estimator knows nothing: the vacuous-but-sound half-width is 1.
  EXPECT_EQ(CertifiedHalfWidth95(0, 0), 1.0);
  EXPECT_TRUE(std::isfinite(CertifiedHalfWidth95(0, 0)));
  // Rule-of-three boundaries and the interior normal approximation.
  EXPECT_DOUBLE_EQ(CertifiedHalfWidth95(0, 100), 0.03);
  EXPECT_DOUBLE_EQ(CertifiedHalfWidth95(100, 100), 0.03);
  const double interior = CertifiedHalfWidth95(50, 100);
  EXPECT_GT(interior, 0.0);
  EXPECT_LT(interior, 0.2);
  EXPECT_TRUE(std::isfinite(interior));
}

// ---------------------------------------------------------------------------
// End-to-end escalation through the executor.
// ---------------------------------------------------------------------------

TEST(Escalation, WideIntervalEscalatesToExactBitIdenticalAnswer) {
  PaperFigure1 fig;
  EvalSession session(fig.instance);
  ExecutorOptions options;
  options.threads = 2;
  BatchExecutor executor(options);

  // The instance's probabilities (1/10, 7/10, ...) are not dyadic, so the
  // interval conversion alone is nondegenerate: any positive threshold this
  // small must trigger the escalation.
  SolveTicket ticket = executor.Submit(
      session, SolveRequest(fig.query)
                   .WithNumeric(NumericBackend::kIntervalDouble)
                   .WithMaxWidth(1e-300));
  Result<SolveResult> r = ticket.Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->escalate.escalated);
  EXPECT_EQ(r->numeric, NumericBackend::kExact);
  EXPECT_EQ(r->probability, fig.expected);
  EXPECT_GT(r->escalate.width_before, 0.0);
  EXPECT_GE(r->escalate.budget_spent.count(), 0);
  EXPECT_TRUE(ticket.stats().escalated);
  EXPECT_FALSE(ticket.stats().degraded);
  EXPECT_EQ(ticket.stats().guarantee, Guarantee::kExact);

  // The published answer is bit-identical to a cold exact solve of the same
  // query — escalation re-dispatches the SAME prepared problem under the
  // exact backend, which is exactly what the serial session computes.
  EvalSession cold(fig.instance);
  ExpectResultsBitIdentical(cold.Solve(fig.query), r, "escalated vs cold");

  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.escalated_attempted, 1u);
  EXPECT_EQ(stats.escalated_succeeded, 1u);
  EXPECT_EQ(stats.escalated_budget_denied, 0u);
  // The histogram records the PRE-escalation width exactly once.
  EXPECT_EQ(HistogramTotal(stats), 1u);
  EXPECT_EQ(stats.interval_width_hist[IntervalWidthBucket(
                r->escalate.width_before)],
            1u);
}

TEST(Escalation, TractableCellNeverReturnsSilentWideInterval) {
  // The acceptance criterion verbatim: WithMaxWidth(1e-9) on a tractable
  // cell either meets the target or escalates — a wide interval without
  // escalate provenance is the one forbidden outcome.
  PaperFigure1 fig;
  EvalSession session(fig.instance);
  ExecutorOptions options;
  options.threads = 2;
  BatchExecutor executor(options);
  const double target = 1e-9;
  SolveTicket ticket = executor.Submit(
      session, SolveRequest(fig.query)
                   .WithNumeric(NumericBackend::kIntervalDouble)
                   .WithMaxWidth(target));
  Result<SolveResult> r = ticket.Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (r->escalate.escalated) {
    EXPECT_EQ(r->numeric, NumericBackend::kExact);
    EXPECT_EQ(r->probability, fig.expected);
  } else {
    EXPECT_EQ(r->numeric, NumericBackend::kIntervalDouble);
    ASSERT_TRUE(r->bound.certified);
    EXPECT_LE(r->bound.hi - r->bound.lo, target);
    // And the enclosure really contains the exact answer.
    EXPECT_LE(Rational::FromDouble(r->bound.lo), fig.expected);
    EXPECT_GE(Rational::FromDouble(r->bound.hi), fig.expected);
  }
}

TEST(Escalation, BudgetDenialKeepsTheCertifiedIntervalAnswer) {
  PaperFigure1 fig;
  EvalSession session(fig.instance);
  auto model = std::make_shared<CostModel>();
  // Make every exact re-run look like an hour of work: the deadline has
  // seconds left, so MaybeEscalate must decline and keep the interval.
  PrimeAllCells(model.get(), session.Prepare(fig.query),
                std::chrono::hours(1));
  ExecutorOptions options;
  options.threads = 1;
  options.cost_model = model;
  BatchExecutor executor(options);

  SolveTicket ticket = executor.Submit(
      session, SolveRequest(fig.query)
                   .WithNumeric(NumericBackend::kIntervalDouble)
                   .WithMaxWidth(1e-300)
                   .WithDeadline(RequestClock::now() +
                                 std::chrono::seconds(20)));
  Result<SolveResult> r = ticket.Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->escalate.escalated);
  EXPECT_EQ(r->numeric, NumericBackend::kIntervalDouble);
  ASSERT_TRUE(r->bound.certified);
  EXPECT_LE(Rational::FromDouble(r->bound.lo), fig.expected);
  EXPECT_GE(Rational::FromDouble(r->bound.hi), fig.expected);
  EXPECT_FALSE(ticket.stats().escalated);

  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.escalated_attempted, 1u);
  EXPECT_EQ(stats.escalated_succeeded, 0u);
  EXPECT_EQ(stats.escalated_budget_denied, 1u);
  // The kept interval answer is a certified completion: one histogram bump.
  EXPECT_EQ(HistogramTotal(stats), 1u);
}

TEST(Escalation, OffByDefaultBitIdenticalAcrossThreadCounts) {
  Rng rng(kSeed);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> queries = MixedServeQueries(&rng);

  SolveOverrides interval;
  interval.numeric = NumericBackend::kIntervalDouble;
  EvalSession serial_session(instance);
  std::vector<Result<SolveResult>> serial;
  serial.reserve(queries.size());
  for (const DiGraph& q : queries) {
    serial.push_back(serial_session.Solve(q, interval));
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EvalSession session(instance);
    ExecutorOptions options;
    options.threads = threads;
    BatchExecutor executor(options);
    std::vector<SolveTicket> tickets;
    tickets.reserve(queries.size());
    for (const DiGraph& q : queries) {
      tickets.push_back(executor.Submit(
          session, SolveRequest(q).WithNumeric(
                       NumericBackend::kIntervalDouble)));
    }
    std::vector<Result<SolveResult>> results =
        executor.CollectHelping(tickets);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectResultsBitIdentical(serial[i], results[i],
                                "threads=" + std::to_string(threads) +
                                    " query=" + std::to_string(i));
      if (results[i].ok()) {
        EXPECT_FALSE(results[i]->escalate.escalated);
      }
    }
    const ExecutorStats stats = executor.stats();
    EXPECT_EQ(stats.escalated_attempted, 0u);
    EXPECT_EQ(stats.escalated_succeeded, 0u);
    EXPECT_EQ(stats.escalated_budget_denied, 0u);
  }
}

// ---------------------------------------------------------------------------
// Histogram conservation: sum(buckets) == certified interval completions.
// ---------------------------------------------------------------------------

TEST(Escalation, HistogramConservesCertifiedIntervalCompletions) {
  Rng rng(kSeed + 1);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> queries = MixedServeQueries(&rng);
  EvalSession session(instance);
  ExecutorOptions options;
  options.threads = 2;
  BatchExecutor executor(options);

  std::vector<SolveTicket> tickets;
  for (const DiGraph& q : queries) {
    // Interval-backend request, escalation off.
    tickets.push_back(executor.Submit(
        session,
        SolveRequest(q).WithNumeric(NumericBackend::kIntervalDouble)));
    // The same query on the exact backend must NOT be counted.
    tickets.push_back(executor.Submit(session, SolveRequest(q)));
  }
  std::vector<Result<SolveResult>> results = executor.CollectHelping(tickets);

  uint64_t certified_interval = 0;
  for (const Result<SolveResult>& r : results) {
    if (r.ok() && r->numeric == NumericBackend::kIntervalDouble &&
        r->bound.certified) {
      ++certified_interval;
    }
  }
  EXPECT_GT(certified_interval, 0u);
  EXPECT_EQ(HistogramTotal(executor.stats()), certified_interval)
      << "exactly one bump per certified interval completion";
}

TEST(Escalation, DegradedEstimatesNeverEnterTheHistogram) {
  Rng rng(kSeed + 2);
  test_util::HardCellEnumerationCase hard(&rng);
  EvalSession session(hard.instance);
  ExecutorOptions options;
  options.threads = 1;
  BatchExecutor executor(options);

  // Already-expired deadline + degrade policy: the request is admitted and
  // converted into a budgeted Monte Carlo estimate. The estimate is NOT a
  // certified enclosure, so the histogram must stay empty.
  SolveTicket ticket = executor.Submit(
      session, SolveRequest(hard.query)
                   .WithNumeric(NumericBackend::kIntervalDouble)
                   .WithDeadline(RequestClock::now() -
                                 std::chrono::milliseconds(5))
                   .WithDegradeOnDeadlineRisk());
  Result<SolveResult> r = ticket.Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->degrade.degraded);
  EXPECT_FALSE(r->bound.certified);
  EXPECT_FALSE(r->escalate.escalated);
  // Zero-budget degrade still yields finite, sound statistics
  // (CertifiedHalfWidth95 regression, end to end).
  EXPECT_TRUE(std::isfinite(r->bound.lo));
  EXPECT_TRUE(std::isfinite(r->bound.hi));
  EXPECT_EQ(HistogramTotal(executor.stats()), 0u);
}

// ---------------------------------------------------------------------------
// Enclosure soundness with a cost model installed.
// ---------------------------------------------------------------------------

TEST(Escalation, TightestEnclosureRoutingStaysSound) {
  Rng rng(kSeed + 3);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> queries = MixedServeQueries(&rng);

  // Exact oracle per query, from a plain serial session.
  EvalSession oracle_session(instance);
  std::vector<Result<SolveResult>> oracle;
  for (const DiGraph& q : queries) oracle.push_back(oracle_session.Solve(q));

  EvalSession session(instance);
  ExecutorOptions options;
  options.threads = 2;
  options.cost_model = std::make_shared<CostModel>();
  BatchExecutor executor(options);
  std::vector<SolveTicket> tickets;
  for (const DiGraph& q : queries) {
    tickets.push_back(executor.Submit(
        session,
        SolveRequest(q).WithNumeric(NumericBackend::kIntervalDouble)));
  }
  std::vector<Result<SolveResult>> results = executor.CollectHelping(tickets);
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_TRUE(oracle[i].ok());
    const SolveResult& r = *results[i];
    ASSERT_TRUE(r.bound.certified);
    // The enclosure must contain the exact answer (Rational::FromDouble is
    // lossless, so the comparison is exact).
    EXPECT_LE(Rational::FromDouble(r.bound.lo), oracle[i]->probability);
    EXPECT_GE(Rational::FromDouble(r.bound.hi), oracle[i]->probability);
  }
}

// ---------------------------------------------------------------------------
// Escalation through the UCQ front door.
// ---------------------------------------------------------------------------

TEST(Escalation, UcqEscalationMatchesColdExactUnion) {
  Rng rng(kSeed + 4);
  test_util::UcqCrosscheckCase c = test_util::MakeUcqCrosscheckCase(&rng);
  EvalSession session(c.instance);
  ExecutorOptions options;
  options.threads = 2;
  BatchExecutor executor(options);

  SolveTicket ticket = executor.Submit(
      session, SolveRequest(c.ucq)
                   .WithNumeric(NumericBackend::kIntervalDouble)
                   .WithMaxWidth(1e-300));
  Result<SolveResult> r = ticket.Take();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Result<SolveResult> cold = EvalSession(c.instance).SolveUcq(c.ucq);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  if (r->escalate.escalated) {
    EXPECT_EQ(r->numeric, NumericBackend::kExact);
    EXPECT_EQ(r->probability, cold->probability);
    EXPECT_EQ(std::bit_cast<uint64_t>(r->probability_double),
              std::bit_cast<uint64_t>(cold->probability_double));
  } else {
    // A point enclosure (possible when the union is dyadic-exact through
    // the compensated kernels) legitimately meets any positive target.
    ASSERT_TRUE(r->bound.certified);
    EXPECT_LE(r->bound.hi - r->bound.lo, 1e-300);
  }
}

}  // namespace
}  // namespace phom
