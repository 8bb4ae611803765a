#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "src/lifted/lift.h"
#include "src/serve/executor.h"
#include "src/serve/mpmc_queue.h"
#include "tests/test_util.h"

/// Tier-1 coverage of the parallel serving executor: the MPMC task queue,
/// the componentwise solve/merge API, and the headline guarantee that
/// BatchExecutor output is BIT-identical to serial EvalSession::SolveBatch
/// for every thread count.

namespace phom {
namespace {

using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::MpmcQueue;
using test_util::MixedServeInstance;
using test_util::MixedServeQueries;
using test_util::PaperFigure1;

// ---------------------------------------------------------------------------
// MpmcQueue
// ---------------------------------------------------------------------------

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99)) << "queue must report full";
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i) << "single-threaded use must be strict FIFO";
  }
  EXPECT_FALSE(q.TryPop(&v)) << "queue must report empty";
  // Wrap-around reuses cells correctly.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(q.TryPush(round));
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, round);
  }
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(1000).capacity(), 1024u);
}

TEST(MpmcQueue, ConcurrentProducersConsumersConserveElements) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  MpmcQueue<int> q(64);  // small: exercises full-queue retries
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int value = p * kPerProducer + i;
        while (!q.TryPush(value)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v;
      while (popped.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (q.TryPop(&v)) {
          sum.fetch_add(v, std::memory_order_relaxed);
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  long long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "every element exactly once";
}

// ---------------------------------------------------------------------------
// Componentwise solve API (solver.h)
// ---------------------------------------------------------------------------

/// Serving corpus shared with serve_async_test.cc (test_util.h).
ProbGraph MixedInstance(Rng* rng) { return MixedServeInstance(rng); }
std::vector<DiGraph> MixedQueries(Rng* rng) { return MixedServeQueries(rng); }

TEST(ComponentwiseSolve, MatchesSolvePreparedBitForBit) {
  Rng rng(20260729);
  ProbGraph instance = MixedInstance(&rng);
  DiGraph query = MakeLabeledPath({0, 1});
  SolveOptions options;

  PreparedProblem prepared = PrepareProblem(query, instance);
  // The engine is resolved ONCE per query (PlanComponentDispatch); the
  // component solves and the merge reuse the plan with no registry access.
  ComponentDispatch dispatch = PlanComponentDispatch(prepared, options);
  ASSERT_EQ(dispatch.components, 3u) << "three components must fan out";
  ASSERT_NE(dispatch.engine, nullptr);
  EXPECT_FALSE(dispatch.forced);

  std::vector<Result<SolveResult>> parts;
  for (size_t c = 0; c < dispatch.components; ++c) {
    parts.push_back(SolvePreparedComponent(prepared, dispatch, c, options));
  }
  Result<SolveResult> merged = CombinePreparedComponents(
      prepared, dispatch, options, std::move(parts));
  Result<SolveResult> serial = SolvePrepared(prepared, options);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(merged->probability, serial->probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(merged->probability_double),
            std::bit_cast<uint64_t>(serial->probability_double));
  EXPECT_EQ(merged->stats.engine, serial->stats.engine);
  EXPECT_EQ(merged->stats.components, serial->stats.components);
  EXPECT_EQ(merged->stats.fallback_components,
            serial->stats.fallback_components);
  EXPECT_EQ(merged->stats.worlds, serial->stats.worlds);
  EXPECT_EQ(merged->stats.hom_tests, serial->stats.hom_tests);
  EXPECT_EQ(merged->stats.lineage_clauses, serial->stats.lineage_clauses);
  EXPECT_EQ(merged->stats.match_ends, serial->stats.match_ends);
}

/// The two part shapes of a componentwise merge, each with three parts: a
/// CQ over three instance components, and a UCQ over three plan units.
std::vector<std::pair<std::string, PreparedProblem>> ThreePartProblems() {
  Rng rng(20260729);
  std::vector<std::pair<std::string, PreparedProblem>> out;
  out.emplace_back("cq components",
                   PrepareProblem(MakeLabeledPath({0, 1}), MixedInstance(&rng)));
  ProbGraph labels(6);
  for (LabelId l = 0; l < 3; ++l) {
    AddEdgeOrDie(&labels, 2 * l, 2 * l + 1, l, Rational::Half());
  }
  Ucq ucq;
  for (LabelId l = 0; l < 3; ++l) ucq.disjuncts.push_back(MakeLabeledPath({l}));
  out.emplace_back("ucq units", lifted::PrepareUcq(ucq, labels));
  return out;
}

/// A hand-built part: the enclosure [lo, hi] with the given certificate.
SolveResult IntervalPart(double lo, double hi, bool certified) {
  SolveResult part;
  part.numeric = NumericBackend::kIntervalDouble;
  part.probability_double = 0.5 * (lo + hi);
  part.bound = ProbabilityBound{lo, hi, certified};
  return part;
}

TEST(ComponentwiseSolve, UncertifiedPartUncertifiesMergedInterval) {
  SolveOptions options;
  options.numeric = NumericBackend::kIntervalDouble;
  using Ops = NumericOps<IntervalDouble>;
  for (const auto& [label, prepared] : ThreePartProblems()) {
    SCOPED_TRACE(label);
    const ComponentDispatch dispatch = PlanComponentDispatch(prepared, options);
    ASSERT_EQ(dispatch.components, 3u);
    for (const size_t uncertified : {size_t{0}, size_t{1}, size_t{3}}) {
      std::vector<Result<SolveResult>> parts;
      IntervalDouble none = Ops::One();
      for (size_t i = 0; i < 3; ++i) {
        const double lo = 0.1 * static_cast<double>(i + 1);
        const double hi = lo + 0.05;
        parts.push_back(IntervalPart(lo, hi, i != uncertified));
        none *= Ops::Complement(IntervalDouble(lo, hi));
      }
      const IntervalDouble fold = Ops::Complement(none);
      Result<SolveResult> merged = CombinePreparedComponents(
          prepared, dispatch, options, std::move(parts));
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      // Part 3 does not exist: every part is certified, and so is the merge.
      EXPECT_EQ(merged->bound.certified, uncertified == 3);
      EXPECT_EQ(std::bit_cast<uint64_t>(merged->bound.lo),
                std::bit_cast<uint64_t>(fold.lo));
      EXPECT_EQ(std::bit_cast<uint64_t>(merged->bound.hi),
                std::bit_cast<uint64_t>(fold.hi));
    }
  }
}

TEST(ComponentwiseSolve, MergeReturnsFirstFailingPartStatus) {
  const SolveOptions options;
  for (const auto& [label, prepared] : ThreePartProblems()) {
    SCOPED_TRACE(label);
    const ComponentDispatch dispatch = PlanComponentDispatch(prepared, options);
    ASSERT_EQ(dispatch.components, 3u);
    SolveResult ok;
    ok.probability = Rational::Half();
    std::vector<Result<SolveResult>> parts;
    parts.emplace_back(ok);
    parts.emplace_back(Status::Cancelled("part 1"));
    parts.emplace_back(Status::DeadlineExceeded("part 2"));
    Result<SolveResult> merged = CombinePreparedComponents(
        prepared, dispatch, options, std::move(parts));
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), Status::Code::kCancelled);
    EXPECT_EQ(merged.status().message(), "part 1");
  }
}

TEST(ComponentwiseSolve, NonComponentwiseDispatchesReportZero) {
  Rng rng(7);
  // Single-component instance: nothing to fan out.
  ProbGraph one = AttachRandomProbabilities(
      &rng, RandomTwoWayPath(&rng, 6, 1), 3);
  PreparedProblem prepared = PrepareProblem(MakeOneWayPath(2), one);
  EXPECT_EQ(PlanComponentDispatch(prepared, SolveOptions{}).components, 0u);

  // Immediate answers never fan out.
  ProbGraph multi = MixedInstance(&rng);
  PreparedProblem trivial = PrepareProblem(DiGraph(2), multi);
  EXPECT_EQ(PlanComponentDispatch(trivial, SolveOptions{}).components, 0u);

  // Whole-forest kernels (unlabeled DWT collapse) are not componentwise.
  SolveOptions forced;
  forced.force_engine = "monte-carlo";
  PreparedProblem labeled = PrepareProblem(MakeLabeledPath({0, 1}), multi);
  EXPECT_EQ(PlanComponentDispatch(labeled, forced).components, 0u)
      << "estimators solve the prepared problem whole";

  // Selection errors surface through SolvePrepared, not the parallel path.
  SolveOptions typo;
  typo.force_engine = "no-such-engine";
  EXPECT_EQ(PlanComponentDispatch(labeled, typo).components, 0u);
}

// ---------------------------------------------------------------------------
// BatchExecutor determinism: bit-identical to serial for all thread counts.
// ---------------------------------------------------------------------------

void ExpectBatchesBitIdentical(const std::vector<Result<SolveResult>>& serial,
                               const std::vector<Result<SolveResult>>& parallel,
                               const std::string& label) {
  ASSERT_EQ(serial.size(), parallel.size()) << label;
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(label + " query " + std::to_string(i));
    ASSERT_EQ(serial[i].ok(), parallel[i].ok());
    if (!serial[i].ok()) {
      EXPECT_EQ(serial[i].status().code(), parallel[i].status().code());
      EXPECT_EQ(serial[i].status().message(), parallel[i].status().message());
      continue;
    }
    EXPECT_EQ(serial[i]->probability, parallel[i]->probability);
    EXPECT_EQ(std::bit_cast<uint64_t>(serial[i]->probability_double),
              std::bit_cast<uint64_t>(parallel[i]->probability_double))
        << "double answers must match bit for bit";
    EXPECT_EQ(serial[i]->numeric, parallel[i]->numeric);
    EXPECT_EQ(serial[i]->stats.engine, parallel[i]->stats.engine);
    EXPECT_EQ(serial[i]->stats.primary, parallel[i]->stats.primary);
    EXPECT_EQ(serial[i]->stats.components, parallel[i]->stats.components);
    EXPECT_EQ(serial[i]->stats.worlds, parallel[i]->stats.worlds);
    EXPECT_EQ(serial[i]->analysis.cell, parallel[i]->analysis.cell);
  }
}

class ExecutorDeterminismTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ExecutorDeterminismTest, BitIdenticalToSerialAcrossThreadCounts) {
  const size_t threads = GetParam();
  for (NumericBackend backend :
       {NumericBackend::kExact, NumericBackend::kDouble}) {
    Rng rng(20170514);
    ProbGraph instance = MixedInstance(&rng);
    std::vector<DiGraph> queries = MixedQueries(&rng);
    // Repeat the batch so label-set cache hits occur mid-batch.
    std::vector<DiGraph> batch = queries;
    batch.insert(batch.end(), queries.begin(), queries.end());

    SolveOptions options;
    options.numeric = backend;

    EvalSession serial_session(instance, options);
    std::vector<Result<SolveResult>> serial =
        serial_session.SolveBatch(batch);

    ExecutorOptions exec_options;
    exec_options.threads = threads;
    BatchExecutor executor(exec_options);
    EXPECT_EQ(executor.num_threads(), threads);
    EvalSession parallel_session(instance, options);
    std::vector<Result<SolveResult>> parallel =
        executor.SolveBatch(parallel_session, batch);

    std::string label = std::string("backend=") + ToString(backend) +
                        " threads=" + std::to_string(threads);
    ExpectBatchesBitIdentical(serial, parallel, label);
    // Session accounting is deterministic too: preparation happens on the
    // submitting thread in batch order.
    EXPECT_EQ(serial_session.stats().queries,
              parallel_session.stats().queries);
    EXPECT_EQ(serial_session.stats().instance_preparations,
              parallel_session.stats().instance_preparations);
    EXPECT_EQ(serial_session.stats().context_cache_hits,
              parallel_session.stats().context_cache_hits);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ExecutorDeterminismTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Threads" + std::to_string(info.param);
                         });

TEST(BatchExecutor, SplitComponentsOffIsStillIdentical) {
  Rng rng(4242);
  ProbGraph instance = MixedInstance(&rng);
  std::vector<DiGraph> batch = MixedQueries(&rng);

  EvalSession serial_session(instance);
  std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

  ExecutorOptions no_split;
  no_split.threads = 2;
  no_split.split_components = false;
  BatchExecutor executor(no_split);
  EvalSession session(instance);
  ExpectBatchesBitIdentical(serial, executor.SolveBatch(session, batch),
                            "split_components=false");
}

TEST(BatchExecutor, TinyQueueRunsTasksInlineIdentically) {
  Rng rng(555);
  ProbGraph instance = MixedInstance(&rng);
  std::vector<DiGraph> batch = MixedQueries(&rng);

  EvalSession serial_session(instance);
  std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

  ExecutorOptions tiny;
  tiny.threads = 2;
  tiny.queue_capacity = 2;  // forces the full-queue inline-run path
  BatchExecutor executor(tiny);
  EvalSession session(instance);
  ExpectBatchesBitIdentical(serial, executor.SolveBatch(session, batch),
                            "queue_capacity=2");
}

TEST(BatchExecutor, MonteCarloStreamsAreDeterministicPerQuery) {
  // The estimator is a pure function of (query, instance, seed): each task
  // builds its own Rng stream, so parallel execution reproduces the serial
  // estimates exactly, for any thread count.
  Rng rng(99);
  ProbGraph instance = MixedInstance(&rng);
  std::vector<DiGraph> batch = MixedQueries(&rng);
  SolveOptions options;
  options.force_engine = "monte-carlo";
  options.monte_carlo.samples = 200;

  EvalSession serial_session(instance, options);
  std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

  for (size_t threads : {2u, 8u}) {
    ExecutorOptions exec_options;
    exec_options.threads = threads;
    BatchExecutor executor(exec_options);
    EvalSession session(instance, options);
    ExpectBatchesBitIdentical(
        serial, executor.SolveBatch(session, batch),
        "monte-carlo threads=" + std::to_string(threads));
  }
}

TEST(BatchExecutor, ErrorStatusesPropagatePerSlot) {
  Rng rng(123);
  ProbGraph instance = MixedInstance(&rng);
  std::vector<DiGraph> batch = MixedQueries(&rng);
  SolveOptions typo;
  typo.force_engine = "no-such-engine";

  EvalSession serial_session(instance, typo);
  std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);
  ASSERT_FALSE(serial[0].ok());

  BatchExecutor executor(ExecutorOptions{.threads = 2});
  EvalSession session(instance, typo);
  ExpectBatchesBitIdentical(serial, executor.SolveBatch(session, batch),
                            "typo'd engine");
}

TEST(BatchExecutor, EmptyBatch) {
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  PaperFigure1 ex;
  EvalSession session(ex.instance);
  EXPECT_TRUE(executor.SolveBatch(session, {}).empty());
}

// ---------------------------------------------------------------------------
// Session-layer pieces the executor leans on.
// ---------------------------------------------------------------------------

TEST(EvalSession, PrepareMatchesSolve) {
  PaperFigure1 ex;
  EvalSession session(ex.instance);
  PreparedProblem prepared = session.Prepare(ex.query);
  Result<SolveResult> via_prepare = SolvePrepared(prepared, session.options());
  ASSERT_TRUE(via_prepare.ok());
  EXPECT_EQ(via_prepare->probability, ex.expected);
  EXPECT_EQ(session.stats().queries, 1u);
  EXPECT_EQ(session.stats().instance_preparations, 1u);
  // A second Prepare hits the context cache under the same normalized key.
  session.Prepare(ex.query);
  EXPECT_EQ(session.stats().context_cache_hits, 1u);
}

TEST(NormalizeLabelKey, DedupesAndSorts) {
  EXPECT_EQ(NormalizeLabelKey({2, 0, 1}), (std::vector<LabelId>{0, 1, 2}));
  EXPECT_EQ(NormalizeLabelKey({1, 0, 1, 1, 0}), (std::vector<LabelId>{0, 1}));
  EXPECT_EQ(NormalizeLabelKey({}), std::vector<LabelId>{});
}

TEST(DoubleOps, NegativeZeroIsZeroAndOneIsExact) {
  EXPECT_TRUE(NumericOps<double>::IsZero(0.0));
  EXPECT_TRUE(NumericOps<double>::IsZero(-0.0))
      << "IEEE negative zero must short-circuit like +0.0";
  EXPECT_FALSE(NumericOps<double>::IsZero(1e-300));
  EXPECT_TRUE(NumericOps<double>::IsOne(1.0));
  EXPECT_FALSE(NumericOps<double>::IsOne(1.0 + 1e-15));
  EXPECT_FALSE(NumericOps<double>::IsOne(0.9999999999999999));
}

}  // namespace
}  // namespace phom
