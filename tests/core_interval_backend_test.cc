#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/cq_parser.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/serve/executor.h"
#include "src/util/interval_double.h"
#include "src/util/numeric.h"
#include "tests/test_util.h"

/// Tier-1 coverage of the self-verifying interval backend: every
/// kIntervalDouble answer must be a CERTIFIED enclosure of the exact
/// Rational answer — lo <= exact <= hi proved by exact arithmetic, not by
/// comparing two floating-point results — across the full cross-check
/// corpus (all four dichotomy cells), with widths no worse than 1e-6 on the
/// tractable cells. Also: the interval NumericOps primitives, the
/// backends' ToString names, and the serve-layer
/// guarantee that the parallel interval combine is bit-identical to serial.

namespace phom {
namespace {

using test_util::CellClass;
using test_util::kCrosscheckSeedBase;
using test_util::MakeCrosscheckCase;
using test_util::MixedServeInstance;
using test_util::MixedServeQueries;

/// Certified enclosure check: lo <= exact <= hi, decided in EXACT rational
/// arithmetic (every finite double is a dyadic rational, so FromDouble is
/// lossless — no rounding can hide a violation).
void ExpectEncloses(const ProbabilityBound& bound, const Rational& exact,
                    const std::string& context) {
  EXPECT_TRUE(bound.certified) << context;
  EXPECT_LE(bound.lo, bound.hi) << context;
  EXPECT_TRUE(Rational::FromDouble(bound.lo) <= exact)
      << context << ": lo=" << bound.lo << " above exact="
      << exact.ToDouble();
  EXPECT_TRUE(Rational::FromDouble(bound.hi) >= exact)
      << context << ": hi=" << bound.hi << " below exact="
      << exact.ToDouble();
}

// ---------------------------------------------------------------------------
// NumericOps<IntervalDouble> primitives
// ---------------------------------------------------------------------------

TEST(NumericIntervalOps, FromRationalIsACertifiedEnclosure) {
  // 1/3 and friends are not representable: the enclosure must be a proper
  // interval that still contains the exact value.
  for (const Rational& p :
       {Rational(1, 3), Rational(2, 7), Rational(1, 10), Rational(287, 500),
        Rational::Zero(), Rational::One(), Rational(1, 2)}) {
    const IntervalDouble iv = NumericOps<IntervalDouble>::From(p);
    EXPECT_TRUE(Rational::FromDouble(iv.lo) <= p) << p.ToDouble();
    EXPECT_TRUE(Rational::FromDouble(iv.hi) >= p) << p.ToDouble();
    EXPECT_GE(iv.lo, 0.0);
    EXPECT_LE(iv.hi, 1.0);
    EXPECT_LE(iv.width(), 1e-15);
  }
  // Exactly-representable probabilities convert to POINT intervals.
  EXPECT_EQ(NumericOps<IntervalDouble>::From(Rational(1, 2)),
            IntervalDouble(0.5));
  EXPECT_EQ(NumericOps<IntervalDouble>::From(Rational::Zero()),
            IntervalDouble(0.0));
  EXPECT_EQ(NumericOps<IntervalDouble>::From(Rational::One()),
            IntervalDouble(1.0));
}

TEST(NumericIntervalOps, ArithmeticEnclosesExactArithmetic) {
  const Rational a(1, 3), b(2, 7);
  const IntervalDouble ia = NumericOps<IntervalDouble>::From(a);
  const IntervalDouble ib = NumericOps<IntervalDouble>::From(b);

  const IntervalDouble sum = ia + ib;
  EXPECT_TRUE(Rational::FromDouble(sum.lo) <= a + b);
  EXPECT_TRUE(Rational::FromDouble(sum.hi) >= a + b);

  const IntervalDouble prod = ia * ib;
  EXPECT_TRUE(Rational::FromDouble(prod.lo) <= a * b);
  EXPECT_TRUE(Rational::FromDouble(prod.hi) >= a * b);

  const IntervalDouble comp = NumericOps<IntervalDouble>::Complement(ia);
  EXPECT_TRUE(Rational::FromDouble(comp.lo) <= Rational::One() - a);
  EXPECT_TRUE(Rational::FromDouble(comp.hi) >= Rational::One() - a);

  // Results never escape [0, 1] (the event-probability clamp).
  EXPECT_GE(sum.lo, 0.0);
  EXPECT_LE(sum.hi, 1.0);
}

TEST(NumericIntervalOps, ZeroAndOneArePointsAndPredicatesAreConservative) {
  using Ops = NumericOps<IntervalDouble>;
  EXPECT_TRUE(Ops::IsZero(Ops::Zero()));
  EXPECT_TRUE(Ops::IsOne(Ops::One()));
  // A non-point interval straddling the endpoint is NOT claimed zero/one.
  EXPECT_FALSE(Ops::IsZero(IntervalDouble(0.0, 1e-300)));
  EXPECT_FALSE(Ops::IsOne(IntervalDouble(1.0 - 1e-15, 1.0)));
}

TEST(NumericIntervalOps, TinyInstanceProbabilityConvertsInOneStep) {
  // 3/2^960 is a normal double. Conversion used to start from a ToDouble
  // of 0 and climb one subnormal ulp at a time, which never finished; an
  // instance file can supply the value, so the solve must still answer.
  const std::string tiny = "3/" + BigInt::Pow2(960).ToString();
  Alphabet alphabet;
  Result<ProbGraph> instance =
      ParseProbGraph("2 1\n0 1 R " + tiny + "\n", &alphabet);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  Result<ParsedQuery> query = ParseConjunctiveQuery("R(x, y)", &alphabet);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const Rational exact(BigInt(3), BigInt::Pow2(960));

  SolveOptions options;
  options.numeric = NumericBackend::kIntervalDouble;
  Result<SolveResult> result = Solver(options).Solve(query->graph, *instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectEncloses(result->bound, exact, "3/2^960");
  // The dyadic input itself converts to a point.
  EXPECT_EQ(NumericOps<IntervalDouble>::From(exact),
            IntervalDouble(std::ldexp(3.0, -960)));

  // A non-dyadic neighbour widens by exactly one ulp.
  const Rational third_tiny(BigInt(1), BigInt::Pow2(960) * BigInt(3));
  const IntervalDouble iv = NumericOps<IntervalDouble>::From(third_tiny);
  EXPECT_TRUE(Rational::FromDouble(iv.lo) <= third_tiny);
  EXPECT_TRUE(Rational::FromDouble(iv.hi) >= third_tiny);
  EXPECT_EQ(std::nextafter(iv.lo, 1.0), iv.hi);
}

TEST(NumericIntervalStrings, ToStringNamesEachBackend) {
  EXPECT_EQ(std::string(ToString(NumericBackend::kExact)), "exact");
  EXPECT_EQ(std::string(ToString(NumericBackend::kDouble)), "double");
  EXPECT_EQ(std::string(ToString(NumericBackend::kIntervalDouble)),
            "interval-double");
}

// ---------------------------------------------------------------------------
// End-to-end enclosure across the cross-check corpus
// ---------------------------------------------------------------------------

class NumericIntervalTest : public ::testing::TestWithParam<CellClass> {};

TEST_P(NumericIntervalTest, EnclosesExactAcrossCorpus) {
  CellClass cell = GetParam();
  // Offset 3000: an independent stream from the other corpus suites.
  Rng rng(kCrosscheckSeedBase + 3000 + static_cast<uint64_t>(cell));
  for (int trial = 0; trial < 20; ++trial) {
    test_util::CrosscheckCase c = MakeCrosscheckCase(cell, &rng);
    const std::string context = std::string(test_util::ToString(cell)) +
                                " trial " + std::to_string(trial);

    Result<SolveResult> exact = Solver().Solve(c.query, c.instance);
    ASSERT_TRUE(exact.ok()) << context << ": " << exact.status().ToString();

    SolveOptions interval_options;
    interval_options.numeric = NumericBackend::kIntervalDouble;
    Result<SolveResult> interval =
        Solver(interval_options).Solve(c.query, c.instance);
    ASSERT_TRUE(interval.ok()) << context;
    EXPECT_EQ(interval->numeric, NumericBackend::kIntervalDouble) << context;
    // Backend choice must not reach engine selection.
    EXPECT_EQ(interval->stats.engine, exact->stats.engine) << context;

    ExpectEncloses(interval->bound, exact->probability, context);
    // Acceptance bar: certified width within 1e-6 across the corpus (the
    // instances are small; directed rounding loses < 1 ulp per operation).
    EXPECT_LE(interval->bound.hi - interval->bound.lo, 1e-6) << context;
    // The reported point estimate is the enclosure midpoint.
    EXPECT_GE(interval->probability_double, interval->bound.lo) << context;
    EXPECT_LE(interval->probability_double, interval->bound.hi) << context;

    // Provenance: a point enclosure is exact knowledge, a proper interval
    // is a certified enclosure; nothing weaker may be claimed.
    const Guarantee g = GuaranteeOf(*interval);
    if (interval->bound.lo == interval->bound.hi) {
      EXPECT_EQ(g, Guarantee::kExact) << context;
    } else {
      EXPECT_EQ(g, Guarantee::kIntervalEnclosure) << context;
    }

    // The exact backend's own outward-rounded point bound also encloses.
    ExpectEncloses(exact->bound, exact->probability, context + " (exact)");
    EXPECT_EQ(GuaranteeOf(*exact), Guarantee::kExact) << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, NumericIntervalTest,
                         ::testing::ValuesIn(test_util::AllCellClasses()),
                         [](const ::testing::TestParamInfo<CellClass>& info) {
                           switch (info.param) {
                             case CellClass::k2wp: return "TwoWayPath";
                             case CellClass::kDwt: return "DownwardTree";
                             case CellClass::kPolytree: return "Polytree";
                             case CellClass::kHardCell: return "HardCell";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Serve layer: the parallel interval combine replays the serial one
// ---------------------------------------------------------------------------

TEST(NumericIntervalServe, ParallelBoundsBitIdenticalToSerial) {
  Rng rng(kCrosscheckSeedBase + 3100);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> batch = MixedServeQueries(&rng);

  SolveOptions options;
  options.numeric = NumericBackend::kIntervalDouble;
  EvalSession serial_session(instance, options);
  std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

  for (size_t threads : {1u, 2u, 8u}) {
    EvalSession session(instance, options);
    serve::ExecutorOptions exec_options;
    exec_options.threads = threads;
    serve::BatchExecutor executor(exec_options);
    std::vector<Result<SolveResult>> parallel =
        executor.SolveBatch(session, batch);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      const std::string context =
          "threads=" + std::to_string(threads) + " query " + std::to_string(i);
      ASSERT_EQ(parallel[i].ok(), serial[i].ok()) << context;
      if (!serial[i].ok()) continue;
      // Bit-identical enclosures: the parallel combine replays the serial
      // Lemma 3.7 complement-product on per-component bounds.
      EXPECT_EQ(parallel[i]->bound.lo, serial[i]->bound.lo) << context;
      EXPECT_EQ(parallel[i]->bound.hi, serial[i]->bound.hi) << context;
      EXPECT_EQ(parallel[i]->bound.certified, serial[i]->bound.certified)
          << context;
      EXPECT_EQ(parallel[i]->probability_double, serial[i]->probability_double)
          << context;
      EXPECT_TRUE(parallel[i]->bound.certified) << context;
    }
  }
}

TEST(NumericIntervalServe, GuaranteeSurfacesInRequestStatsAndCounters) {
  Rng rng(kCrosscheckSeedBase + 3200);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);

  serve::ExecutorOptions exec_options;
  exec_options.threads = 2;
  serve::BatchExecutor executor(exec_options);

  // One interval-backend request, one exact request.
  serve::SolveRequest interval_req(MakeLabeledPath({0, 1, 0}));
  interval_req.WithNumeric(NumericBackend::kIntervalDouble);
  serve::SolveTicket t1 = executor.Submit(session, std::move(interval_req));
  serve::SolveRequest exact_req(MakeLabeledPath({0, 1, 0}));
  serve::SolveTicket t2 = executor.Submit(session, std::move(exact_req));

  Result<SolveResult> r1 = t1.Take();
  Result<SolveResult> r2 = t2.Take();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(t1.stats().guarantee, GuaranteeOf(*r1));
  EXPECT_EQ(t2.stats().guarantee, Guarantee::kExact);

  const serve::ExecutorStats stats = executor.stats();
  const uint64_t total = stats.results_exact + stats.results_interval +
                         stats.results_empirical + stats.results_absolute95 +
                         stats.results_relative95;
  EXPECT_EQ(total, 2u);
  EXPECT_GE(stats.results_exact, 1u);
}

}  // namespace
}  // namespace phom
