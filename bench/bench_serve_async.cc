// The asynchronous serving API (request.h/async.h) against its own
// synchronous wrappers: submit+collect vs SolveBatch on the same pool
// (results are bit-identical by construction — tests/serve_async_test.cc),
// and the deadline-miss behavior of an oversubmitted pool. NOTE: the dev
// container is single-core — locally these quantify overhead, not speedup;
// the thread scaling and realistic miss ratios are meaningful on multi-core
// CI/production hardware.

#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/eval_session.h"
#include "src/serve/async.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "src/serve/shard.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;
using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::RequestClock;
using serve::SolveRequest;
using serve::SolveTicket;

/// Same serving corpus family as bench_serve_parallel.cc: one instance with
/// several components and a small-query batch over two labels.
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
  corpus.instance =
      AttachRandomProbabilities(&rng, DisjointUnion(parts), 4);
  for (size_t q = 0; q < batch; ++q) {
    corpus.queries.push_back(
        ProperShape(Shape::k2wp, 4 + q % 3, 2, &rng));
  }
  return corpus;
}

SolveOptions ServingOptions() {
  SolveOptions options;
  options.numeric = NumericBackend::kDouble;  // the serving regime
  return options;
}

// ---------------------------------------------------------------------------
// The sync wrapper vs the async path it is built on: measures the pure
// ticket/submission overhead (same pool, same tasks).
// ---------------------------------------------------------------------------

void BM_ServeSyncWrapperBatch(benchmark::State& state) {
  Corpus corpus = MakeCorpus(4, 24, 16);
  ExecutorOptions exec_options;
  exec_options.threads = static_cast<size_t>(state.range(0));
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm the context cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.SolveBatch(session, corpus.queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeSyncWrapperBatch)
    ->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeSubmitCollect(benchmark::State& state) {
  Corpus corpus = MakeCorpus(4, 24, 16);
  ExecutorOptions exec_options;
  exec_options.threads = static_cast<size_t>(state.range(0));
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm-up
  for (auto _ : state) {
    std::vector<SolveTicket> tickets;
    tickets.reserve(corpus.queries.size());
    for (const DiGraph& q : corpus.queries) {
      tickets.push_back(
          executor.Submit(session, SolveRequest::BorrowQuery(q)));
    }
    benchmark::DoNotOptimize(executor.CollectHelping(tickets));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeSubmitCollect)
    ->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Deadline pressure: oversubmit a small pool with per-request deadlines and
// report the miss ratio. Tight deadlines fail fast (expired requests are
// skipped at dequeue without solving), so throughput degrades gracefully
// rather than queueing without bound.
// ---------------------------------------------------------------------------

void BM_ServeDeadlineMissRatio(benchmark::State& state) {
  const auto budget = std::chrono::microseconds(state.range(0));
  Corpus corpus = MakeCorpus(4, 24, 8);
  ExecutorOptions exec_options;
  exec_options.threads = 2;
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm-up
  constexpr size_t kOversubmit = 8;  // 8x the batch, one shared deadline

  int64_t missed = 0;
  int64_t total = 0;
  for (auto _ : state) {
    std::vector<SolveTicket> tickets;
    tickets.reserve(kOversubmit * corpus.queries.size());
    const RequestClock::time_point deadline = RequestClock::now() + budget;
    for (size_t round = 0; round < kOversubmit; ++round) {
      for (const DiGraph& q : corpus.queries) {
        SolveRequest request = SolveRequest::BorrowQuery(q);
        request.WithDeadline(deadline);
        tickets.push_back(executor.Submit(session, std::move(request)));
      }
    }
    for (SolveTicket& ticket : tickets) {
      Result<SolveResult> result = ticket.Take();
      ++total;
      if (!result.ok() &&
          result.status().code() == Status::Code::kDeadlineExceeded) {
        ++missed;
      }
    }
  }
  state.SetItemsProcessed(total);
  state.counters["miss_ratio"] =
      total == 0 ? 0.0 : static_cast<double>(missed) / static_cast<double>(total);
}
BENCHMARK(BM_ServeDeadlineMissRatio)
    ->Arg(50)->Arg(1000)->Arg(100000)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sharded submit+collect: the server's async front door end to end.
// ---------------------------------------------------------------------------

void BM_ServeShardedSubmitCollect(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  Corpus corpus = MakeCorpus(2, 16, 12);
  std::vector<ProbGraph> instances(shards, corpus.instance);
  serve::ShardedServerOptions options;
  options.solve = ServingOptions();
  options.executor.threads = 4;
  serve::ShardedServer server(std::move(instances), options);

  std::vector<SolveRequest> prototype;
  for (size_t i = 0; i < corpus.queries.size(); ++i) {
    prototype.push_back(
        SolveRequest::BorrowQuery(corpus.queries[i], i % shards));
  }
  {
    std::vector<SolveRequest> warm = prototype;
    std::vector<SolveTicket> tickets = server.SubmitBatch(std::move(warm));
    server.Collect(tickets);  // warm the shared LRU
  }
  for (auto _ : state) {
    std::vector<SolveRequest> requests = prototype;
    std::vector<SolveTicket> tickets = server.SubmitBatch(std::move(requests));
    benchmark::DoNotOptimize(server.Collect(tickets));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(prototype.size()));
}
BENCHMARK(BM_ServeShardedSubmitCollect)
    ->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  return 0;
}
