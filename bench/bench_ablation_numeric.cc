// Numeric-backend ablation: exact BigInt rationals vs. IEEE doubles,
// per engine. The paper's complexity analysis charges polynomial bit-cost
// for exact arithmetic (the answer's numerator/denominator grow linearly
// with the instance); the double backend trades that for constant-width
// arithmetic — this bench quantifies the gap engine by engine, plus the
// amortization the session layer buys on top. The interval-double rows
// price the self-verifying middle ground: the same constant-width
// arithmetic run twice (outward-rounded [lo, hi] endpoints), buying a
// machine-checkable enclosure of the exact answer.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/eval_session.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;

SolveOptions WithBackend(NumericBackend numeric,
                         const std::string& engine = "") {
  SolveOptions options;
  options.numeric = numeric;
  options.force_engine = engine;
  return options;
}

// ---------------------------------------------------------------------------
// Per-engine exact vs. double on the engine's own cell.
// ---------------------------------------------------------------------------

void RunNumeric(benchmark::State& state, const DiGraph& q, const ProbGraph& h,
                const SolveOptions& options) {
  Solver solver(options);
  {
    // Fail loudly if the forced engine rejects the workload.
    Result<SolveResult> r = solver.Solve(q, h);
    PHOM_CHECK_MSG(r.ok(), r.status().ToString());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
  state.SetComplexityN(state.range(0));
}

void BM_Numeric2wpExact(benchmark::State& state) {
  Rng rng(91);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, state.range(0), 1, &rng), 4);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kExact,
                                      "connected-on-2wp"));
}
BENCHMARK(BM_Numeric2wpExact)->RangeMultiplier(2)->Range(64, 512)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_Numeric2wpDouble(benchmark::State& state) {
  Rng rng(91);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, state.range(0), 1, &rng), 4);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kDouble,
                                      "connected-on-2wp"));
}
BENCHMARK(BM_Numeric2wpDouble)->RangeMultiplier(2)->Range(64, 512)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_Numeric2wpInterval(benchmark::State& state) {
  Rng rng(91);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, state.range(0), 1, &rng), 4);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kIntervalDouble,
                                      "connected-on-2wp"));
}
BENCHMARK(BM_Numeric2wpInterval)->RangeMultiplier(2)->Range(64, 512)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericDwtExact(benchmark::State& state) {
  Rng rng(92);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kExact, "path-on-dwt"));
}
BENCHMARK(BM_NumericDwtExact)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

// BM_NumericDwtExact's instances and queries with every probability
// redrawn as k/10: no dyadic shortcut in the final gcd.
void BM_NumericDwtExactNonDyadic(benchmark::State& state) {
  Rng rng(92);  // same seed: identical shapes and queries
  ProbGraph dyadic = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  Rng tenths(93);
  std::vector<Rational> probs;
  for (size_t e = 0; e < dyadic.num_edges(); ++e) {
    probs.push_back(Rational(tenths.UniformInt(0, 10), 10));
  }
  ProbGraph h(dyadic.graph(), std::move(probs));
  RunNumeric(state, q, h, WithBackend(NumericBackend::kExact, "path-on-dwt"));
}
BENCHMARK(BM_NumericDwtExactNonDyadic)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Complexity();

void BM_NumericDwtDouble(benchmark::State& state) {
  Rng rng(92);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kDouble, "path-on-dwt"));
}
BENCHMARK(BM_NumericDwtDouble)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericDwtInterval(benchmark::State& state) {
  Rng rng(92);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kIntervalDouble,
                                      "path-on-dwt"));
}
BENCHMARK(BM_NumericDwtInterval)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericDwtLineageExact(benchmark::State& state) {
  Rng rng(92);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kExact,
                                      "dwt-lineage-shannon"));
}
BENCHMARK(BM_NumericDwtLineageExact)->RangeMultiplier(2)->Range(64, 256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericDwtLineageDouble(benchmark::State& state) {
  Rng rng(92);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kDouble,
                                      "dwt-lineage-shannon"));
}
BENCHMARK(BM_NumericDwtLineageDouble)->RangeMultiplier(2)->Range(64, 256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericDwtLineageInterval(benchmark::State& state) {
  Rng rng(92);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kIntervalDouble,
                                      "dwt-lineage-shannon"));
}
BENCHMARK(BM_NumericDwtLineageInterval)->RangeMultiplier(2)->Range(64, 256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericPolytreeExact(benchmark::State& state) {
  Rng rng(93);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kPt, state.range(0), 1, &rng), 2);
  DiGraph q = MakeOneWayPath(3);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kExact,
                                      "unlabeled-polytree"));
}
BENCHMARK(BM_NumericPolytreeExact)->RangeMultiplier(2)->Range(16, 128)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericPolytreeDouble(benchmark::State& state) {
  Rng rng(93);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kPt, state.range(0), 1, &rng), 2);
  DiGraph q = MakeOneWayPath(3);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kDouble,
                                      "unlabeled-polytree"));
}
BENCHMARK(BM_NumericPolytreeDouble)->RangeMultiplier(2)->Range(16, 128)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericPolytreeInterval(benchmark::State& state) {
  Rng rng(93);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kPt, state.range(0), 1, &rng), 2);
  DiGraph q = MakeOneWayPath(3);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kIntervalDouble,
                                      "unlabeled-polytree"));
}
BENCHMARK(BM_NumericPolytreeInterval)->RangeMultiplier(2)->Range(16, 128)
    ->Unit(benchmark::kMillisecond)->Complexity();

// The same solves through one EvalSession: after the first, the context's
// compiled encoding and interval probabilities are reused, so each
// iteration is the automaton run alone (compiled.h). The one-shot row above
// compiles on every solve.
void BM_NumericPolytreeIntervalWarmContext(benchmark::State& state) {
  Rng rng(93);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kPt, state.range(0), 1, &rng), 2);
  DiGraph q = MakeOneWayPath(3);
  EvalSession session(h, WithBackend(NumericBackend::kIntervalDouble,
                                     "unlabeled-polytree"));
  {
    Result<SolveResult> r = session.Solve(q);
    PHOM_CHECK_MSG(r.ok(), r.status().ToString());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Solve(q));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NumericPolytreeIntervalWarmContext)->RangeMultiplier(2)
    ->Range(16, 128)->Unit(benchmark::kMillisecond)->Complexity();

void BM_NumericFallbackExact(benchmark::State& state) {
  Rng rng(94);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, state.range(0), 1, &rng), 2);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kExact, "fallback"));
}
BENCHMARK(BM_NumericFallbackExact)->DenseRange(8, 16, 4)
    ->Unit(benchmark::kMillisecond);

void BM_NumericFallbackDouble(benchmark::State& state) {
  Rng rng(94);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, state.range(0), 1, &rng), 2);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kDouble, "fallback"));
}
BENCHMARK(BM_NumericFallbackDouble)->DenseRange(8, 16, 4)
    ->Unit(benchmark::kMillisecond);

void BM_NumericFallbackInterval(benchmark::State& state) {
  Rng rng(94);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, state.range(0), 1, &rng), 2);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  RunNumeric(state, q, h, WithBackend(NumericBackend::kIntervalDouble,
                                      "fallback"));
}
BENCHMARK(BM_NumericFallbackInterval)->DenseRange(8, 16, 4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Session amortization: N small queries against one instance, one-shot
// solver vs. EvalSession (cached marginalization/split/classification).
// Runs in the double backend — the serving regime the session layer is for;
// with exact rationals the arithmetic dominates and hides the prep cost.
// ---------------------------------------------------------------------------

std::vector<DiGraph> SmallQueryBatch(Rng* rng, size_t count) {
  std::vector<DiGraph> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(RandomOneWayPath(rng, 1 + i % 4, 2));
  }
  return out;
}

void BM_SessionOneShot(benchmark::State& state) {
  Rng rng(95);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  std::vector<DiGraph> queries = SmallQueryBatch(&rng, 32);
  Solver solver(WithBackend(NumericBackend::kDouble));
  for (auto _ : state) {
    for (const DiGraph& q : queries) {
      benchmark::DoNotOptimize(solver.Solve(q, h));
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_SessionOneShot)->RangeMultiplier(4)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_SessionAmortized(benchmark::State& state) {
  Rng rng(95);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  std::vector<DiGraph> queries = SmallQueryBatch(&rng, 32);
  for (auto _ : state) {
    EvalSession session(h, WithBackend(NumericBackend::kDouble));
    for (const DiGraph& q : queries) {
      benchmark::DoNotOptimize(session.Solve(q));
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_SessionAmortized)->RangeMultiplier(4)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_SessionAmortizedWarm(benchmark::State& state) {
  // Steady-state serving: the session (and its context cache) outlives the
  // measurement loop entirely.
  Rng rng(95);  // same seed: identical inputs
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, state.range(0), 2, &rng), 4);
  std::vector<DiGraph> queries = SmallQueryBatch(&rng, 32);
  EvalSession session(h, WithBackend(NumericBackend::kDouble));
  for (auto _ : state) {
    for (const DiGraph& q : queries) {
      benchmark::DoNotOptimize(session.Solve(q));
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
}
BENCHMARK(BM_SessionAmortizedWarm)->RangeMultiplier(4)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  return 0;
}
