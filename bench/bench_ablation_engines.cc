// Ablations over the design choices called out in DESIGN.md:
//  A. Prop. 4.10 engines: direct run-length tree DP vs. the literal paper
//     pipeline (materialized β-acyclic DNF lineage + memoized Shannon
//     expansion along the tree order).
//  B. Prop. 5.4 engine vs. the exact exponential fallback on small
//     polytrees (what tractability buys).
//  C. Prop. 4.11's minimal-interval sweep vs. forced fallback.
//  D. Exact-rational growth: output size (numerator+denominator bits) as a
//     function of instance size — the "hidden" cost of exact inference.
//
// Engine selection goes through the engine registry (engine.h): every
// forced variant names its engine via SolveOptions::force_engine, so these
// benches exercise exactly the dispatch path production code uses.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/circuits/dnnf.h"
#include "src/core/engine.h"
#include "src/lineage/dnf_compile.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;

void BM_AblationA_DwtDirectDp(benchmark::State& state) {
  Rng rng(81);
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, n, 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AblationA_DwtDirectDp)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_AblationA_DwtLineageShannon(benchmark::State& state) {
  Rng rng(81);  // same seed: identical inputs
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, n, 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  SolveOptions options;
  options.force_engine = "dwt-lineage-shannon";
  Solver solver(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AblationA_DwtLineageShannon)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_AblationA_DwtCompiledDnnf(benchmark::State& state) {
  // Third engine: materialize the β-acyclic lineage, compile it to a d-DNNF
  // (dnf_compile.h), evaluate the circuit — the knowledge-compilation route.
  Rng rng(81);  // same seed: identical inputs
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kDwt, n, 2, &rng), 4);
  DiGraph q = RandomOneWayPath(&rng, 4, 2);
  std::vector<LabelId> pattern = OneWayPathLabels(q);
  for (auto _ : state) {
    MonotoneDnf lineage(0);
    Result<Rational> direct =
        SolvePathOnDwtForestViaLineage(pattern, h, &lineage);
    PHOM_CHECK(direct.ok());
    DnnfCompilation compiled = *CompileDnfToDnnf(lineage);
    benchmark::DoNotOptimize(
        DnnfProbability(compiled.circuit, compiled.root_gate, h.probs()));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AblationA_DwtCompiledDnnf)->RangeMultiplier(2)->Range(64, 1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_AblationB_PolytreeAutomaton(benchmark::State& state) {
  Rng rng(82);
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kPt, n, 1, &rng), 2);
  DiGraph q = MakeOneWayPath(3);
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
}
BENCHMARK(BM_AblationB_PolytreeAutomaton)->DenseRange(8, 20, 4)
    ->Unit(benchmark::kMillisecond);

void BM_AblationB_PolytreeFallback(benchmark::State& state) {
  Rng rng(82);  // same instances as above
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::kPt, n, 1, &rng), 2);
  DiGraph q = MakeOneWayPath(3);
  SolveOptions options;
  options.force_engine = "fallback";
  Solver solver(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
}
BENCHMARK(BM_AblationB_PolytreeFallback)->DenseRange(8, 16, 4)
    ->Unit(benchmark::kMillisecond);

void BM_AblationC_2wpMinimalIntervals(benchmark::State& state) {
  Rng rng(83);
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, n, 1, &rng), 2);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
}
BENCHMARK(BM_AblationC_2wpMinimalIntervals)->DenseRange(8, 20, 4)
    ->Unit(benchmark::kMillisecond);

void BM_AblationC_2wpFallback(benchmark::State& state) {
  Rng rng(83);
  size_t n = state.range(0);
  ProbGraph h = AttachRandomProbabilities(
      &rng, ProperShape(Shape::k2wp, n, 1, &rng), 2);
  DiGraph q = ProperShape(Shape::k2wp, 4, 1, &rng);
  SolveOptions options;
  options.force_engine = "fallback";
  Solver solver(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(q, h));
  }
}
BENCHMARK(BM_AblationC_2wpFallback)->DenseRange(8, 16, 4)
    ->Unit(benchmark::kMillisecond);

void EngineRegistryReport() {
  std::printf("\n=== Registered engines (selection order) ===\n");
  for (const Engine* e : EngineRegistry::Global().engines()) {
    std::printf("  %-24s algorithm=%-24s %s\n",
                std::string(e->name()).c_str(), ToString(e->algorithm()),
                e->exact() ? "exact" : "estimator");
  }
}

void RationalGrowthReport() {
  std::printf("\n=== Ablation D: exact-rational answer size ===\n");
  std::printf("%8s %16s %16s\n", "n", "num bits", "den bits");
  for (size_t n : {64u, 256u, 1024u, 4096u}) {
    Rng rng(84);
    ProbGraph h = AttachRandomProbabilities(
        &rng, ProperShape(Shape::kDwt, n, 1, &rng), 4);
    Result<Rational> p = SolveProbability(MakeOneWayPath(3), h);
    PHOM_CHECK_MSG(p.ok(), p.status().ToString());
    std::printf("%8zu %16llu %16llu\n", n,
                (unsigned long long)p->num().BitLength(),
                (unsigned long long)p->den().BitLength());
  }
  std::printf("(exact output size grows linearly with the instance — the\n"
              " polynomial bit-cost the complexity analysis accounts for)\n");
}

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  phom::EngineRegistryReport();
  phom::RationalGrowthReport();
  return 0;
}
