// Graceful degradation under deadline pressure (DegradePolicy, solver.h):
// the same oversubmitted workload served with the policy OFF (deadline
// misses → DeadlineExceeded, the PR-4 behavior) vs ON (misses → budgeted
// Monte Carlo estimates). The headline counters are the deadline-miss
// ratio vs the estimate-conversion ratio per time budget: with the policy
// on, miss_ratio must read 0.0 at every budget — every would-be miss comes
// back as a degraded estimate with provenance instead. A separate sweep
// shows a single #P-hard cell (a 2^20 world enumeration) converting via
// the in-component yield points. NOTE: the dev container is single-core —
// locally these quantify the conversion behavior, not throughput; realistic
// miss ratios need multi-core CI/production hardware.

#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/eval_session.h"
#include "src/serve/async.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "tests/test_util.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;
using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::RequestClock;
using serve::SolveRequest;
using serve::SolveTicket;

/// Same serving corpus family as bench_serve_async.cc.
struct Corpus {
  ProbGraph instance{0};
  std::vector<DiGraph> queries;
};

Corpus MakeCorpus(size_t components, size_t component_size, size_t batch) {
  Rng rng(20170514);
  std::vector<DiGraph> parts;
  for (size_t c = 0; c < components; ++c) {
    parts.push_back(ProperShape(Shape::k2wp, component_size, 2, &rng));
  }
  Corpus corpus;
  corpus.instance = AttachRandomProbabilities(&rng, DisjointUnion(parts), 4);
  for (size_t q = 0; q < batch; ++q) {
    corpus.queries.push_back(ProperShape(Shape::k2wp, 4 + q % 3, 2, &rng));
  }
  return corpus;
}

SolveOptions ServingOptions() {
  SolveOptions options;
  options.numeric = NumericBackend::kDouble;  // the serving regime
  return options;
}

DegradePolicy CheapPolicy() {
  DegradePolicy policy;
  policy.mode = DegradeMode::kOnDeadlineRisk;
  policy.min_samples = 128;  // a cheap floor keeps conversions fast
  return policy;
}

struct OutcomeCounts {
  int64_t total = 0;
  int64_t missed = 0;    ///< DeadlineExceeded
  int64_t degraded = 0;  ///< OK with degrade provenance
  int64_t exact = 0;     ///< OK, exact
};

/// 8x-oversubmits the corpus against a 2-thread pool under one shared
/// absolute deadline, optionally with the degrade policy, and tallies the
/// outcome of every ticket.
OutcomeCounts RunOversubmitted(BatchExecutor& executor, EvalSession& session,
                               const Corpus& corpus,
                               std::chrono::microseconds budget,
                               bool degrade) {
  constexpr size_t kOversubmit = 8;
  OutcomeCounts counts;
  std::vector<SolveTicket> tickets;
  tickets.reserve(kOversubmit * corpus.queries.size());
  const RequestClock::time_point deadline = RequestClock::now() + budget;
  for (size_t round = 0; round < kOversubmit; ++round) {
    for (const DiGraph& q : corpus.queries) {
      SolveRequest request = SolveRequest::BorrowQuery(q);
      request.WithDeadline(deadline);
      if (degrade) request.WithDegrade(CheapPolicy());
      tickets.push_back(executor.Submit(session, std::move(request)));
    }
  }
  for (SolveTicket& ticket : tickets) {
    Result<SolveResult> result = ticket.Take();
    ++counts.total;
    if (!result.ok()) {
      if (result.status().code() == Status::Code::kDeadlineExceeded) {
        ++counts.missed;
      }
    } else if (result->degrade.degraded) {
      ++counts.degraded;
    } else {
      ++counts.exact;
    }
  }
  return counts;
}

void ReportRatios(benchmark::State& state, const OutcomeCounts& counts) {
  double total = counts.total == 0 ? 1.0 : static_cast<double>(counts.total);
  state.counters["miss_ratio"] = static_cast<double>(counts.missed) / total;
  state.counters["degraded_ratio"] =
      static_cast<double>(counts.degraded) / total;
  state.counters["exact_ratio"] = static_cast<double>(counts.exact) / total;
}

// ---------------------------------------------------------------------------
// The headline sweep: miss ratio (policy off) vs conversion ratio (policy
// on) over time budgets, same pool, same workload, same deadlines.
// ---------------------------------------------------------------------------

void BM_ServeDegradePolicyOff(benchmark::State& state) {
  const auto budget = std::chrono::microseconds(state.range(0));
  Corpus corpus = MakeCorpus(4, 24, 8);
  BatchExecutor executor(ExecutorOptions{.threads = 2});
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm the context cache
  OutcomeCounts counts;
  for (auto _ : state) {
    OutcomeCounts round = RunOversubmitted(executor, session, corpus, budget,
                                           /*degrade=*/false);
    counts.total += round.total;
    counts.missed += round.missed;
    counts.degraded += round.degraded;
    counts.exact += round.exact;
  }
  state.SetItemsProcessed(counts.total);
  ReportRatios(state, counts);
}
BENCHMARK(BM_ServeDegradePolicyOff)
    ->Arg(50)->Arg(1000)->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeDegradePolicyOn(benchmark::State& state) {
  const auto budget = std::chrono::microseconds(state.range(0));
  Corpus corpus = MakeCorpus(4, 24, 8);
  BatchExecutor executor(ExecutorOptions{.threads = 2});
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm-up
  OutcomeCounts counts;
  for (auto _ : state) {
    OutcomeCounts round = RunOversubmitted(executor, session, corpus, budget,
                                           /*degrade=*/true);
    counts.total += round.total;
    counts.missed += round.missed;
    counts.degraded += round.degraded;
    counts.exact += round.exact;
  }
  state.SetItemsProcessed(counts.total);
  ReportRatios(state, counts);
  // Every would-be DeadlineExceeded converts: miss_ratio must be 0.0 here,
  // with the mass moved into degraded_ratio (tight budgets) or exact_ratio
  // (generous budgets).
}
BENCHMARK(BM_ServeDegradePolicyOn)
    ->Arg(50)->Arg(1000)->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// A single #P-hard cell under a budget sweep: tight budgets abort the 2^20
// world enumeration at the in-component yield points and convert; a huge
// budget lets the exact enumeration finish.
// ---------------------------------------------------------------------------

void BM_ServeDegradeHardCellBudget(benchmark::State& state) {
  const auto budget = std::chrono::microseconds(state.range(0));
  // The same hard-cell workload serve_degrade_test pins down (shared
  // builder in tests/test_util.h — the bench must measure what the tests
  // prove).
  Rng rng(424243);
  test_util::HardCellEnumerationCase hard(&rng, /*edges=*/20);
  const ProbGraph& instance = hard.instance;
  const DiGraph& query = hard.query;
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  EvalSession session(instance, ServingOptions());
  int64_t degraded = 0;
  int64_t total = 0;
  for (auto _ : state) {
    SolveRequest request = SolveRequest::BorrowQuery(query);
    request.WithBudget(budget).WithDegrade(CheapPolicy());
    SolveTicket ticket = executor.Submit(session, std::move(request));
    Result<SolveResult> result = ticket.Take();
    benchmark::DoNotOptimize(result);
    ++total;
    if (result.ok() && result->degrade.degraded) ++degraded;
  }
  state.SetItemsProcessed(total);
  state.counters["degraded_ratio"] =
      total == 0 ? 0.0 : static_cast<double>(degraded) / static_cast<double>(total);
}
BENCHMARK(BM_ServeDegradeHardCellBudget)
    ->Arg(2000)->Arg(10'000'000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  return 0;
}
