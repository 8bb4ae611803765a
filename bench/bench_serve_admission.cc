// Predictive admission control & slack-ordered scheduling (CostModel,
// cost_model.h; BatchExecutor::Submit, executor.h): the same oversubmitted
// workload served two ways — degrade policy REACTIVE-ONLY (every conversion
// happens after a real deadline lapse) and degrade policy + a learned
// CostModel (doomed requests convert PROACTIVELY at submit, skipping the
// exact attempt) — plus a mixed tight/loose deadline mix that measures what
// EDF ordering buys, and the per-submit overhead of the prediction itself
// (Snapshot + PredictSolveCost + DecideAdmission). The headline counters are
// the proactive-conversion ratio and the tight/loose miss ratios per budget.
// Worker counts are fixed at 2, so the rows compare configurations at equal
// parallelism; absolute ratios depend on the host's core count and load.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/eval_session.h"
#include "src/serve/async.h"
#include "src/serve/cost_model.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;
using serve::BatchExecutor;
using serve::CostModel;
using serve::ExecutorOptions;
using serve::ExecutorStats;
using serve::RequestClock;
using serve::SolveRequest;
using serve::SolveTicket;

/// Same serving corpus family as bench_serve_degrade.cc.
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
  policy.min_samples = 128;
  return policy;
}

struct OutcomeCounts {
  int64_t total = 0;
  int64_t missed = 0;    ///< DeadlineExceeded
  int64_t degraded = 0;  ///< OK with degrade provenance (either kind)
  int64_t exact = 0;     ///< OK, exact
};

/// 8x-oversubmits the corpus under one shared absolute deadline (same
/// protocol as bench_serve_degrade.cc) and tallies every ticket's outcome.
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

void ReportRatios(benchmark::State& state, const OutcomeCounts& counts,
                  const ExecutorStats& stats) {
  double total = counts.total == 0 ? 1.0 : static_cast<double>(counts.total);
  state.counters["miss_ratio"] = static_cast<double>(counts.missed) / total;
  state.counters["degraded_ratio"] =
      static_cast<double>(counts.degraded) / total;
  state.counters["exact_ratio"] = static_cast<double>(counts.exact) / total;
  // Provenance split, from the executor's own counters (deltas over the
  // timed region): proactive conversions never started an exact solve.
  state.counters["proactive_ratio"] =
      static_cast<double>(stats.degraded_proactive) / total;
  state.counters["reactive_ratio"] =
      static_cast<double>(stats.degraded_reactive) / total;
}

ExecutorStats StatsDelta(const ExecutorStats& before,
                         const ExecutorStats& after) {
  ExecutorStats d;
  d.submitted = after.submitted - before.submitted;
  d.exact_solves_started =
      after.exact_solves_started - before.exact_solves_started;
  d.degraded_proactive = after.degraded_proactive - before.degraded_proactive;
  d.degraded_reactive = after.degraded_reactive - before.degraded_reactive;
  return d;
}

// ---------------------------------------------------------------------------
// The headline sweep: the same workload/budget under two admission
// configurations. ReactiveOnly installs no model; ProactiveModel adds a
// CostModel so doomed requests convert at submit.
// ---------------------------------------------------------------------------

void BM_ServeAdmissionReactiveOnly(benchmark::State& state) {
  const auto budget = std::chrono::microseconds(state.range(0));
  Corpus corpus = MakeCorpus(4, 24, 8);
  BatchExecutor executor(ExecutorOptions{.threads = 2});
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm the context cache
  OutcomeCounts counts;
  ExecutorStats before = executor.stats();
  for (auto _ : state) {
    OutcomeCounts round = RunOversubmitted(executor, session, corpus, budget,
                                           /*degrade=*/true);
    counts.total += round.total;
    counts.missed += round.missed;
    counts.degraded += round.degraded;
    counts.exact += round.exact;
  }
  state.SetItemsProcessed(counts.total);
  ReportRatios(state, counts, StatsDelta(before, executor.stats()));
  // proactive_ratio must read 0.0 here: with no model installed every
  // conversion is reactive (a real deadline lapse inside the worker).
}
BENCHMARK(BM_ServeAdmissionReactiveOnly)
    ->Arg(50)->Arg(1000)->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeAdmissionProactiveModel(benchmark::State& state) {
  const auto budget = std::chrono::microseconds(state.range(0));
  Corpus corpus = MakeCorpus(4, 24, 8);
  ExecutorOptions exec_options{.threads = 2};
  exec_options.cost_model = std::make_shared<CostModel>();
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  // Warm-up doubles as model training: every completed solve below records
  // its latency, so the sweep proper decides against LEARNED cells.
  executor.SolveBatch(session, corpus.queries);
  executor.SolveBatch(session, corpus.queries);
  OutcomeCounts counts;
  ExecutorStats before = executor.stats();
  for (auto _ : state) {
    OutcomeCounts round = RunOversubmitted(executor, session, corpus, budget,
                                           /*degrade=*/true);
    counts.total += round.total;
    counts.missed += round.missed;
    counts.degraded += round.degraded;
    counts.exact += round.exact;
  }
  state.SetItemsProcessed(counts.total);
  ReportRatios(state, counts, StatsDelta(before, executor.stats()));
  // Tight budgets should shift conversions from reactive_ratio into
  // proactive_ratio: the model predicts the miss at submit and skips the
  // doomed exact attempt instead of burning a worker on it.
}
BENCHMARK(BM_ServeAdmissionProactiveModel)
    ->Arg(50)->Arg(1000)->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Mixed deadlines: what EDF ordering buys. The corpus is sent 16x over in a
// fixed shuffled order, half the requests with a TIGHT deadline at
// range(0)% of the calibrated drain time T of the same batch without
// deadlines, half with a LOOSE one at 3T. No model and no degrade policy:
// plain EDF, and every miss is a DeadlineExceeded. EDF serves the tight
// half first, so tight_miss_ratio is the number to watch; a FIFO dispatch
// would leave tight requests queued behind loose ones.
// ---------------------------------------------------------------------------

/// One request of the mixed-deadline batch: a corpus query and its
/// deadline class.
struct MixedSlot {
  size_t query = 0;
  bool tight = false;
};

/// Submits one request per slot, with deadline `deadline_of(slot)` (none
/// when it returns nullopt), and waits for every ticket.
template <class DeadlineOf>
std::vector<Result<SolveResult>> SubmitAndTake(
    BatchExecutor& executor, EvalSession& session, const Corpus& corpus,
    const std::vector<MixedSlot>& slots, DeadlineOf deadline_of) {
  std::vector<SolveTicket> tickets;
  tickets.reserve(slots.size());
  for (const MixedSlot& slot : slots) {
    SolveRequest request =
        SolveRequest::BorrowQuery(corpus.queries[slot.query]);
    if (std::optional<RequestClock::time_point> d = deadline_of(slot)) {
      request.WithDeadline(*d);
    }
    tickets.push_back(executor.Submit(session, std::move(request)));
  }
  return BatchExecutor::Collect(tickets);
}

void BM_ServeAdmissionMixedDeadlines(benchmark::State& state) {
  constexpr size_t kOversubmit = 16;
  Corpus corpus = MakeCorpus(4, 24, 8);
  BatchExecutor executor(ExecutorOptions{.threads = 2});
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm the context cache

  std::vector<MixedSlot> slots;
  for (size_t round = 0; round < kOversubmit; ++round) {
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
      slots.push_back(MixedSlot{q, round % 2 == 0});
    }
  }
  // One fixed shuffle for every iteration and every budget, so the rows
  // differ only in the tight deadline.
  Rng rng(20260519);
  for (size_t i = slots.size(); i-- > 1;) {
    std::swap(slots[i], slots[static_cast<size_t>(rng.UniformInt(0, i))]);
  }

  // Calibrate T: the median drain time of the batch without deadlines.
  auto no_deadline = [](const MixedSlot&) {
    return std::optional<RequestClock::time_point>();
  };
  std::vector<RequestClock::duration> drains;
  for (int run = 0; run < 5; ++run) {
    const RequestClock::time_point start = RequestClock::now();
    SubmitAndTake(executor, session, corpus, slots, no_deadline);
    drains.push_back(RequestClock::now() - start);
  }
  std::sort(drains.begin(), drains.end());
  const RequestClock::duration drain = drains[drains.size() / 2];
  const RequestClock::duration tight_budget = drain * state.range(0) / 100;
  const RequestClock::duration loose_budget = drain * 3;

  // Indexed by MixedSlot::tight: [0] loose, [1] tight.
  int64_t total[2] = {0, 0};
  int64_t missed[2] = {0, 0};
  for (auto _ : state) {
    const RequestClock::time_point start = RequestClock::now();
    std::vector<Result<SolveResult>> results = SubmitAndTake(
        executor, session, corpus, slots, [&](const MixedSlot& slot) {
          return std::optional<RequestClock::time_point>(
              start + (slot.tight ? tight_budget : loose_budget));
        });
    for (size_t i = 0; i < results.size(); ++i) {
      ++total[slots[i].tight];
      if (!results[i].ok() &&
          results[i].status().code() == Status::Code::kDeadlineExceeded) {
        ++missed[slots[i].tight];
      }
    }
  }
  state.SetItemsProcessed(total[0] + total[1]);
  auto ratio = [](int64_t part, int64_t whole) {
    return static_cast<double>(part) /
           static_cast<double>(std::max<int64_t>(1, whole));
  };
  state.counters["tight_miss_ratio"] = ratio(missed[1], total[1]);
  state.counters["loose_miss_ratio"] = ratio(missed[0], total[0]);
  state.counters["drain_ms"] =
      std::chrono::duration<double, std::milli>(drain).count();
}
BENCHMARK(BM_ServeAdmissionMixedDeadlines)
    ->Arg(25)->Arg(50)->Arg(75)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// The price of a decision: Snapshot + PredictSolveCost + DecideAdmission
// per prepared problem, against a model warmed on the serving corpus. This
// is the overhead every Submit pays when a CostModel is installed.
// ---------------------------------------------------------------------------

void BM_ServeAdmissionPredictOverhead(benchmark::State& state) {
  Corpus corpus = MakeCorpus(4, 24, 8);
  auto model = std::make_shared<CostModel>();
  {
    ExecutorOptions exec_options{.threads = 2};
    exec_options.cost_model = model;
    BatchExecutor executor(exec_options);
    EvalSession session(corpus.instance, ServingOptions());
    executor.SolveBatch(session, corpus.queries);  // train the model
  }
  EvalSession session(corpus.instance, ServingOptions());
  const SolveOptions& options = session.options();
  struct Unit {
    PreparedProblem prepared{DiGraph(0), nullptr, std::nullopt, {}};
    ComponentDispatch plan;
  };
  std::vector<Unit> units;
  for (const DiGraph& q : corpus.queries) {
    Unit u;
    u.prepared = session.Prepare(q);
    u.plan = PlanComponentDispatch(u.prepared, options);
    units.push_back(std::move(u));
  }
  const auto remaining = std::optional<std::chrono::nanoseconds>(
      std::chrono::milliseconds(1));
  int64_t decisions = 0;
  for (auto _ : state) {
    // Snapshot per batch (what Submit amortizes via the version cache),
    // one decision per unit.
    std::shared_ptr<const serve::CostModelSnapshot> snapshot =
        model->Snapshot();
    for (const Unit& u : units) {
      serve::AdmissionDecision decision = serve::DecideAdmission(
          *snapshot, u.prepared, u.plan, options, remaining);
      benchmark::DoNotOptimize(decision);
      ++decisions;
    }
  }
  state.SetItemsProcessed(decisions);
}
BENCHMARK(BM_ServeAdmissionPredictOverhead)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  return 0;
}
