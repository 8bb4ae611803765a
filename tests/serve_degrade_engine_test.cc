#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/ucq.h"
#include "src/lifted/lift.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "tests/test_util.h"

/// The degrade path and the forced "monte-carlo" engine run one estimator
/// and one estimate-to-answer conversion: for the same seed and the same
/// fixed sample budget (min_samples = max_samples, so neither a deadline
/// nor a stop rule can end sampling early) they must publish the same
/// answer — probability_double, the exact hits/samples Rational, the
/// statistical bracket and relative_error_95 — on CQ and UCQ problems, on
/// the exact and double backends, with the relative-error target on and
/// off. Covered entry points on the degrade side: SolveDegradedMonteCarlo
/// directly, and the executor's reactive conversion of a request whose
/// deadline lapsed before dequeue.

namespace phom {
namespace {

using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::RequestClock;
using serve::SolveRequest;
using test_util::MixedServeInstance;

constexpr uint64_t kSamples = 1024;  // a multiple of the check interval
constexpr uint64_t kSeed = 20231;

void ExpectSameAnswer(const Result<SolveResult>& degraded,
                      const Result<SolveResult>& forced,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(degraded->stats.engine, "monte-carlo");
  EXPECT_EQ(std::bit_cast<uint64_t>(degraded->probability_double),
            std::bit_cast<uint64_t>(forced->probability_double));
  EXPECT_EQ(degraded->probability, forced->probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(degraded->bound.lo),
            std::bit_cast<uint64_t>(forced->bound.lo));
  EXPECT_EQ(std::bit_cast<uint64_t>(degraded->bound.hi),
            std::bit_cast<uint64_t>(forced->bound.hi));
  EXPECT_EQ(degraded->bound.certified, forced->bound.certified);
  EXPECT_EQ(std::bit_cast<uint64_t>(degraded->relative_error_95),
            std::bit_cast<uint64_t>(forced->relative_error_95));
  EXPECT_EQ(degraded->numeric, forced->numeric);
  if (!degraded->bound.certified) {
    EXPECT_TRUE(degraded->degrade.degraded);
    EXPECT_EQ(degraded->degrade.samples_used, kSamples);
  }
}

TEST(ServeDegradeEngine, DegradedEstimateMatchesForcedEngine) {
  Rng rng(211);
  const ProbGraph instance = MixedServeInstance(&rng);
  const DiGraph cq_path = MakeLabeledPath({1, 0});
  const DiGraph cq_hard =
      DisjointUnion({MakeLabeledPath({0}), MakeLabeledPath({1})});
  const Ucq ucq{{MakeLabeledPath({0, 1}), MakeLabeledPath({1, 1})}};

  struct Problem {
    std::string name;
    PreparedProblem prepared;
    SolveRequest request;
  };
  std::vector<Problem> problems;
  problems.push_back({"cq-path", PrepareProblem(cq_path, instance),
                      SolveRequest(cq_path)});
  problems.push_back({"cq-hard", PrepareProblem(cq_hard, instance),
                      SolveRequest(cq_hard)});
  problems.push_back(
      {"ucq", lifted::PrepareUcq(ucq, instance), SolveRequest(ucq)});

  ExecutorOptions executor_options;
  executor_options.threads = 2;
  BatchExecutor executor(executor_options);
  size_t estimates = 0;
  for (NumericBackend backend :
       {NumericBackend::kExact, NumericBackend::kDouble}) {
    for (double target : {0.0, 0.25}) {
      SolveOptions base;
      base.numeric = backend;
      base.monte_carlo_seed = kSeed;

      SolveOptions forced_options = base;
      forced_options.force_engine = "monte-carlo";
      forced_options.monte_carlo.samples = kSamples;
      forced_options.monte_carlo.min_samples = kSamples;
      forced_options.monte_carlo.target_relative_error = target;

      DegradePolicy policy;
      policy.mode = DegradeMode::kOnDeadlineRisk;
      policy.min_samples = kSamples;
      policy.max_samples = kSamples;
      policy.target_relative_error = target;
      SolveOptions degrade_options = base;
      degrade_options.degrade = policy;

      EvalSession session(instance, base);
      for (const Problem& problem : problems) {
        const std::string label = problem.name + " backend " +
                                  std::to_string(static_cast<int>(backend)) +
                                  " target " + std::to_string(target);
        const Result<SolveResult> forced =
            SolvePrepared(problem.prepared, forced_options);
        if (forced.ok() && !forced->bound.certified) ++estimates;
        ExpectSameAnswer(
            SolveDegradedMonteCarlo(problem.prepared, degrade_options), forced,
            label + " (direct)");

        SolveRequest request = problem.request;
        request.WithDeadline(RequestClock::now() - std::chrono::milliseconds(1))
            .WithDegrade(policy);
        ExpectSameAnswer(executor.Submit(session, std::move(request)).Get(),
                         forced, label + " (executor)");
      }
    }
  }
  // Every problem samples (none is immediate or certified zero), so the
  // comparison above covers real estimates in every configuration.
  EXPECT_EQ(estimates, 2 * 2 * problems.size());
}

}  // namespace
}  // namespace phom
