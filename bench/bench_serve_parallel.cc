// Parallel batch serving: the thread-pool BatchExecutor and the sharded
// multi-session server (src/serve/) against the serial EvalSession baseline.
// Results are bit-identical by construction (tests/serve_executor_test.cc),
// so this bench measures only the throughput axis: batch fan-out, component
// fan-out, and the cross-instance context LRU. NOTE: the dev container is
// single-core — locally these quantify overhead, not speedup; the thread
// scaling is meaningful on multi-core CI/production hardware.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/eval_session.h"
#include "src/serve/executor.h"
#include "src/serve/mpmc_queue.h"
#include "src/serve/shard.h"
#include "src/serve/work_steal_deque.h"

namespace phom {
namespace {

using bench::ProperShape;
using bench::Shape;
using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::ShardedServer;
using serve::ShardedServerOptions;
using serve::SolveRequest;
using serve::SolveTicket;

/// A serving corpus: one instance with several components (the within-query
/// parallel units) and a small-query batch over two labels.
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
// Serial baseline vs executor at varying thread counts.
// ---------------------------------------------------------------------------

void BM_ServeSerialBatch(benchmark::State& state) {
  Corpus corpus = MakeCorpus(4, 24, 16);
  EvalSession session(corpus.instance, ServingOptions());
  session.SolveBatch(corpus.queries);  // warm the context cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.SolveBatch(corpus.queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeSerialBatch)->Unit(benchmark::kMillisecond);

void BM_ServeExecutorBatch(benchmark::State& state) {
  Corpus corpus = MakeCorpus(4, 24, 16);
  ExecutorOptions exec_options;
  exec_options.threads = static_cast<size_t>(state.range(0));
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.SolveBatch(session, corpus.queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeExecutorBatch)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeExecutorNoComponentSplit(benchmark::State& state) {
  // Isolates the within-query fan-out: same pool, whole-query tasks only.
  Corpus corpus = MakeCorpus(4, 24, 16);
  ExecutorOptions exec_options;
  exec_options.threads = static_cast<size_t>(state.range(0));
  exec_options.split_components = false;
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.SolveBatch(session, corpus.queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeExecutorNoComponentSplit)
    ->Arg(2)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Scheduling core. Two layers: raw per-op costs of the two task stores
// (the Vyukov MPMC injection queue and the Chase–Lev deque), then the
// executor's one dispatch shape (per-worker deques + stealing over the
// injection queue) end to end on a dispatch-heavy corpus (many small
// componentwise queries) where per-dispatch overhead dominates.
// ---------------------------------------------------------------------------

void BM_QueueOpGlobalMpmc(benchmark::State& state) {
  serve::MpmcQueue<uint64_t> queue(1024);
  uint64_t v = 0;
  uint64_t out = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) queue.TryPush(v++);
    for (int i = 0; i < 64; ++i) queue.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueueOpGlobalMpmc);

void BM_QueueOpDequeOwner(benchmark::State& state) {
  // Owner-side push/pop round trip. Nodes are recycled through a pool so
  // the numbers measure the deque, not the allocator.
  serve::WorkStealDeque<uint64_t> deque(1024);
  std::vector<std::unique_ptr<uint64_t>> pool;
  for (uint64_t i = 0; i < 64; ++i) pool.push_back(std::make_unique<uint64_t>(i));
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) deque.PushBottom(pool[i]);
    for (int i = 0; i < 64; ++i) deque.PopBottom(&pool[i]);
    benchmark::DoNotOptimize(pool.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueueOpDequeOwner);

void BM_QueueOpDequeSteal(benchmark::State& state) {
  // Thief-side path (uncontended): push at the bottom, steal from the top.
  serve::WorkStealDeque<uint64_t> deque(1024);
  std::vector<std::unique_ptr<uint64_t>> pool;
  for (uint64_t i = 0; i < 64; ++i) pool.push_back(std::make_unique<uint64_t>(i));
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) deque.PushBottom(pool[i]);
    for (int i = 0; i < 64; ++i) deque.TrySteal(&pool[i]);
    benchmark::DoNotOptimize(pool.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_QueueOpDequeSteal);

void BM_ServeDispatchHeavy(benchmark::State& state) {
  // Dispatch-heavy: 4 instance components per query and a wide batch of
  // small queries, so scheduling overhead is a visible fraction.
  Corpus corpus = MakeCorpus(4, 8, 32);
  ExecutorOptions exec_options;
  exec_options.threads = static_cast<size_t>(state.range(0));
  BatchExecutor executor(exec_options);
  EvalSession session(corpus.instance, ServingOptions());
  executor.SolveBatch(session, corpus.queries);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.SolveBatch(session, corpus.queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeDispatchHeavy)
    ->ArgName("threads")
    ->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Sharded server: cross-shard request batches and the shared context LRU.
// ---------------------------------------------------------------------------

void BM_ServeShardedRequests(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  Corpus corpus = MakeCorpus(2, 16, 12);
  std::vector<ProbGraph> instances(shards, corpus.instance);

  ShardedServerOptions options;
  options.solve = ServingOptions();
  options.executor.threads = 4;
  ShardedServer server(std::move(instances), options);

  // One cross-shard batch: SubmitBatch + Collect over borrowed queries.
  const auto solve_all = [&] {
    std::vector<SolveRequest> requests;
    requests.reserve(corpus.queries.size());
    for (size_t i = 0; i < corpus.queries.size(); ++i) {
      requests.push_back(
          SolveRequest::BorrowQuery(corpus.queries[i], i % shards));
    }
    std::vector<SolveTicket> tickets = server.SubmitBatch(std::move(requests));
    return server.Collect(tickets);
  };
  solve_all();  // warm the shared LRU
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_all());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.queries.size()));
}
BENCHMARK(BM_ServeShardedRequests)
    ->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ServeLruColdVsShared(benchmark::State& state) {
  // Cost of first-touch preparation through the shared LRU: identical
  // shards mean one shard's miss is every other shard's hit. Measures a
  // full cold start (fresh server per iteration) over `shards` identical
  // instances — the LRU makes it O(1) builds instead of O(shards).
  const size_t shards = static_cast<size_t>(state.range(0));
  Corpus corpus = MakeCorpus(2, 16, 4);
  for (auto _ : state) {
    std::vector<ProbGraph> instances(shards, corpus.instance);
    ShardedServerOptions options;
    options.solve = ServingOptions();
    options.executor.threads = 2;
    ShardedServer server(std::move(instances), options);
    std::vector<SolveRequest> requests;
    for (size_t s = 0; s < shards; ++s) {
      for (const DiGraph& q : corpus.queries) {
        requests.push_back(SolveRequest::BorrowQuery(q, s));
      }
    }
    std::vector<SolveTicket> tickets = server.SubmitBatch(std::move(requests));
    benchmark::DoNotOptimize(server.Collect(tickets));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(shards));
}
BENCHMARK(BM_ServeLruColdVsShared)
    ->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace phom

int main(int argc, char** argv) {
  phom::bench::RunBenchmarks(argc, argv);
  return 0;
}
