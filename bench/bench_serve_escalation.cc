// Width-aware result escalation (EscalationPolicy, solver.h;
// BatchExecutor::MaybeEscalate, serve/executor.h) and the compensated
// interval arithmetic behind it (interval_double.h):
//
//  * BM_EscalationThresholdSweep — the same interval-backend batch served
//    under a sweep of WithMaxWidth thresholds; counters report the
//    escalated ratio and the mean pre-escalation width, the time column
//    prices the exact re-runs the threshold buys. Threshold 0 = policy off
//    (the baseline row).
//  * BM_IntervalSumPlainDirected / BM_IntervalSumCompensated — the
//    compensation ablation on the accumulation shape the DP kernels share:
//    n-term disjoint-event sums under per-term outward rounding (the seed
//    arithmetic) vs the compensated DownSum/UpSum accumulators. The width
//    counter is the point: plain grows ~n ulps of the running sum,
//    compensated stays within a couple ulps total, at comparable speed.
//  * BM_EnclosureWidthCorpus — end-to-end enclosure widths of the serving
//    corpus after compensation (mean and max over the batch): the
//    regression guard for "compensated kernels measurably shrink width
//    with unchanged exact/double results".
//
// NOTE: the dev container is single-core — escalation re-runs serialize
// here; multi-core hardware overlaps them with fresh interval solves.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/eval_session.h"
#include "src/serve/async.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "src/util/interval_double.h"
#include "tests/test_util.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;
using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::SolveRequest;
using serve::SolveTicket;

struct Corpus {
  ProbGraph instance{0};
  std::vector<DiGraph> queries;
};

/// Same family as bench_serve_async/degrade: a multi-component 2WP
/// instance, tractable connected queries (denominator-4 probabilities are
/// NOT dyadic-closed through the kernels, so enclosures have real width).
Corpus MakeCorpus(size_t components, size_t component_size, size_t batch) {
  Rng rng(20170514);
  std::vector<DiGraph> parts;
  for (size_t c = 0; c < components; ++c) {
    parts.push_back(ProperShape(Shape::k2wp, component_size, 2, &rng));
  }
  Corpus corpus;
  corpus.instance = AttachRandomProbabilities(&rng, DisjointUnion(parts), 3);
  for (size_t q = 0; q < batch; ++q) {
    corpus.queries.push_back(ProperShape(Shape::k2wp, 4 + q % 3, 2, &rng));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Escalated ratio / latency vs width threshold.
// ---------------------------------------------------------------------------

void BM_EscalationThresholdSweep(benchmark::State& state) {
  // range(0) = negated decimal exponent of the threshold; 0 = policy off.
  const int exponent = static_cast<int>(state.range(0));
  const double max_width = exponent == 0 ? 0.0 : std::pow(10.0, -exponent);
  Corpus corpus = MakeCorpus(/*components=*/4, /*component_size=*/12,
                             /*batch=*/16);
  EvalSession session(corpus.instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  int64_t total = 0;
  int64_t escalated = 0;
  double width_before_sum = 0.0;
  for (auto _ : state) {
    std::vector<SolveTicket> tickets;
    tickets.reserve(corpus.queries.size());
    for (const DiGraph& q : corpus.queries) {
      SolveRequest request = SolveRequest::BorrowQuery(q);
      request.WithNumeric(NumericBackend::kIntervalDouble);
      if (max_width > 0.0) request.WithMaxWidth(max_width);
      tickets.push_back(executor.Submit(session, std::move(request)));
    }
    for (SolveTicket& t : tickets) {
      Result<SolveResult> r = t.Take();
      benchmark::DoNotOptimize(r);
      ++total;
      if (r.ok() && r->escalate.escalated) {
        ++escalated;
        width_before_sum += r->escalate.width_before;
      }
    }
  }
  state.SetItemsProcessed(total);
  state.counters["escalated_ratio"] =
      total == 0 ? 0.0
                 : static_cast<double>(escalated) / static_cast<double>(total);
  state.counters["mean_width_before"] =
      escalated == 0 ? 0.0 : width_before_sum / static_cast<double>(escalated);
}
BENCHMARK(BM_EscalationThresholdSweep)
    ->Arg(0)    // off: the no-escalation baseline
    ->Arg(6)    // 1e-6: loose, nothing tractable escalates
    ->Arg(12)   // 1e-12: borderline
    ->Arg(16)   // 1e-16: everything nondegenerate escalates
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Compensation ablation: plain per-term outward rounding vs DownSum/UpSum.
// ---------------------------------------------------------------------------

std::vector<double> SumTerms(size_t n) {
  // Inexact, like-signed terms of mixed magnitude — the disjoint-event
  // sums of the DP kernels (run-start states, deterministic-OR inputs).
  std::vector<double> terms;
  terms.reserve(n);
  Rng rng(424242);
  for (size_t i = 0; i < n; ++i) {
    terms.push_back(static_cast<double>(rng.UniformInt(1, 1 << 20)) /
                    std::ldexp(3.0, 21));
  }
  return terms;
}

void BM_IntervalSumPlainDirected(benchmark::State& state) {
  const std::vector<double> terms = SumTerms(state.range(0));
  double width = 0.0;
  for (auto _ : state) {
    double lo = 0.0;
    double hi = 0.0;
    for (double x : terms) {
      lo = interval_internal::Down(lo + x);
      hi = interval_internal::Up(hi + x);
    }
    width = hi - lo;
    benchmark::DoNotOptimize(width);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(terms.size()));
  state.counters["width"] = width;
}
BENCHMARK(BM_IntervalSumPlainDirected)->Arg(1 << 8)->Arg(1 << 12);

void BM_IntervalSumCompensated(benchmark::State& state) {
  const std::vector<double> terms = SumTerms(state.range(0));
  double width = 0.0;
  for (auto _ : state) {
    interval_internal::DownSum lo;
    interval_internal::UpSum hi;
    for (double x : terms) {
      lo.Add(x);
      hi.Add(x);
    }
    width = hi.Value() - lo.Value();
    benchmark::DoNotOptimize(width);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(terms.size()));
  state.counters["width"] = width;
}
BENCHMARK(BM_IntervalSumCompensated)->Arg(1 << 8)->Arg(1 << 12);

// ---------------------------------------------------------------------------
// End-to-end enclosure widths of the serving corpus.
// ---------------------------------------------------------------------------

void BM_EnclosureWidthCorpus(benchmark::State& state) {
  Corpus corpus = MakeCorpus(/*components=*/4, /*component_size=*/12,
                             /*batch=*/16);
  EvalSession session(corpus.instance);
  SolveOverrides interval;
  interval.numeric = NumericBackend::kIntervalDouble;
  double mean_width = 0.0;
  double max_width = 0.0;
  for (auto _ : state) {
    double sum = 0.0;
    double worst = 0.0;
    size_t counted = 0;
    for (const DiGraph& q : corpus.queries) {
      Result<SolveResult> r = session.Solve(q, interval);
      benchmark::DoNotOptimize(r);
      if (r.ok() && r->bound.certified) {
        const double w = r->bound.hi - r->bound.lo;
        sum += w;
        worst = std::max(worst, w);
        ++counted;
      }
    }
    mean_width = counted == 0 ? 0.0 : sum / static_cast<double>(counted);
    max_width = worst;
  }
  state.counters["mean_width"] = mean_width;
  state.counters["max_width"] = max_width;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_EnclosureWidthCorpus)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  return 0;
}
