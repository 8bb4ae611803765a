#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/eval_session.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "src/serve/shard.h"
#include "tests/test_util.h"

/// Stress coverage of the session/engine/serve layers under real
/// concurrency (run under TSan and ASan in CI): many threads hammering one
/// ShardedServer, one EvalSession shared across threads, the cross-instance
/// ContextLru, and concurrent EngineRegistry lookups during registration.

namespace phom {
namespace {

using serve::ContextLru;
using serve::ContextLruOptions;
using serve::ContextLruStats;
using serve::ShardedServer;
using serve::ShardedServerOptions;
using serve::SolveRequest;

ProbGraph StressInstance(uint64_t seed) {
  Rng rng(seed);
  DiGraph shape = DisjointUnion({
      RandomTwoWayPath(&rng, 5, 2),
      RandomDownwardTree(&rng, 5, 2, 0.4),
      RandomConnected(&rng, 4, 2, 2),
  });
  return AttachRandomProbabilities(&rng, std::move(shape), 3);
}

std::vector<DiGraph> StressQueries() {
  std::vector<DiGraph> queries;
  queries.push_back(MakeLabeledPath({0}));
  queries.push_back(MakeLabeledPath({1}));
  queries.push_back(MakeLabeledPath({0, 1}));
  queries.push_back(MakeLabeledPath({1, 0, 1}));
  queries.push_back(MakeOneWayPath(2));
  queries.push_back(DiGraph(2));
  return queries;
}

void ExpectSameResult(const Result<SolveResult>& expected,
                      const Result<SolveResult>& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.ok(), actual.ok()) << label;
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << label;
    return;
  }
  EXPECT_EQ(expected->probability, actual->probability) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(expected->probability_double),
            std::bit_cast<uint64_t>(actual->probability_double))
      << label;
  EXPECT_EQ(expected->stats.engine, actual->stats.engine) << label;
}

// ---------------------------------------------------------------------------
// ShardedServer hammered from many threads.
// ---------------------------------------------------------------------------

TEST(ShardedServerStress, ManyThreadsMixedTraffic) {
  constexpr size_t kThreads = 8;
  constexpr int kRoundsPerThread = 12;

  // Four shards; shards 0 and 2 are identical instances, so the shared LRU
  // must let their sessions reuse each other's preparations.
  std::vector<ProbGraph> shards = {StressInstance(1), StressInstance(2),
                                   StressInstance(1), StressInstance(3)};
  ShardedServerOptions options;
  options.executor.threads = 4;
  ShardedServer server(std::move(shards), options);
  ASSERT_EQ(server.num_shards(), 4u);

  std::vector<DiGraph> queries = StressQueries();

  // Ground truth, serially, on throwaway sessions with the same options.
  std::vector<std::vector<Result<SolveResult>>> expected;
  for (uint64_t s : {1, 2, 1, 3}) {
    EvalSession session(StressInstance(s), options.solve);
    expected.push_back(session.SolveBatch(queries));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        size_t shard = (t + round) % server.num_shards();
        switch ((t + round) % 3) {
          case 0: {  // single inline query
            size_t qi = round % queries.size();
            Result<SolveResult> r = server.Solve(shard, queries[qi]);
            ExpectSameResult(expected[shard][qi], r, "Solve");
            break;
          }
          case 1: {  // one-shard batch through the pool
            std::vector<Result<SolveResult>> batch =
                server.SolveBatch(shard, queries);
            for (size_t i = 0; i < queries.size(); ++i) {
              ExpectSameResult(expected[shard][i], batch[i], "SolveBatch");
            }
            break;
          }
          case 2: {  // cross-shard request batch
            std::vector<SolveRequest> requests;
            for (size_t i = 0; i < queries.size(); ++i) {
              requests.push_back(SolveRequest::BorrowQuery(
                  queries[i], (shard + i) % server.num_shards()));
            }
            std::vector<serve::SolveTicket> tickets =
                server.SubmitBatch(std::move(requests));
            std::vector<Result<SolveResult>> results = server.Collect(tickets);
            for (size_t i = 0; i < queries.size(); ++i) {
              ExpectSameResult(
                  expected[(shard + i) % server.num_shards()][i], results[i],
                  "SubmitBatch");
            }
            break;
          }
        }
        if (::testing::Test::HasFailure()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Cross-instance sharing: identical shards 0 and 2 plus repeated label
  // sets mean far fewer context builds than lookups.
  ContextLruStats cache = server.context_cache_stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(cache.misses, 0u);
  // Distinct (fingerprint, label set) pairs: 3 distinct instances × at most
  // 4 label sets ({0}, {1}, {0,1}, and the kUnlabeled sets already covered
  // by those) — eviction-free, so misses are bounded by 3 * 4.
  EXPECT_LE(cache.misses, 12u);
  EXPECT_EQ(cache.evictions, 0u);
}

TEST(ShardedServerStress, OutOfRangeAndNullRequests) {
  std::vector<ProbGraph> shards = {StressInstance(1)};
  ShardedServer server(std::move(shards), {});
  DiGraph q = MakeLabeledPath({0});

  EXPECT_EQ(server.Solve(7, q).status().code(),
            Status::Code::kInvalidArgument);
  std::vector<Result<SolveResult>> batch = server.SolveBatch(7, {q, q});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].status().code(), Status::Code::kInvalidArgument);

  // The shard is validated before the query: {9, null} is a bad shard.
  std::vector<SolveRequest> requests;
  requests.push_back(SolveRequest::BorrowQuery(q, 0));
  requests.push_back(SolveRequest::BorrowQuery(q, 9));
  requests.push_back(SolveRequest(std::shared_ptr<const DiGraph>(), 0));
  requests.push_back(SolveRequest(std::shared_ptr<const DiGraph>(), 9));
  std::vector<serve::SolveTicket> tickets =
      server.SubmitBatch(std::move(requests));
  std::vector<Result<SolveResult>> results = server.Collect(tickets);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(results[2].status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(results[2].status().message(), "serve: null query in request");
  EXPECT_EQ(results[3].status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(results[3].status().message().find("shard 9 out of range"),
            std::string::npos)
      << results[3].status().message();
}

TEST(ShardedServerStress, RequestTimelinesMonotonicUnderMixedLoad) {
  // Timeline audit (request.h): enqueued <= started <= finished must hold
  // for every ticket — fast solves, deadline-carrying requests routed
  // through the slack-ordered lane, and admission-priced requests alike.
  std::vector<ProbGraph> shards = {StressInstance(7), StressInstance(8)};
  ShardedServerOptions options;
  options.executor.threads = 4;
  options.executor.cost_model = std::make_shared<serve::CostModel>();
  ShardedServer server(std::move(shards), options);
  std::vector<DiGraph> queries = StressQueries();

  std::vector<serve::SolveTicket> tickets;
  for (int round = 0; round < 8; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      serve::SolveRequest request(queries[q], (round + q) % 2);
      if ((round + q) % 3 == 0) {
        request.WithDeadline(serve::RequestClock::now() +
                             std::chrono::seconds(30));
      }
      tickets.push_back(server.Submit(std::move(request)));
    }
  }
  std::vector<Result<SolveResult>> results = server.Collect(tickets);
  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE("ticket " + std::to_string(i));
    EXPECT_TRUE(results[i].ok()) << results[i].status().ToString();
    serve::RequestStats stats = tickets[i].stats();
    EXPECT_LE(stats.enqueued, stats.started);
    EXPECT_LE(stats.started, stats.finished);
    EXPECT_GE(stats.total_time().count(), 0);
  }
  serve::ExecutorStats exec = server.executor_stats();
  EXPECT_EQ(exec.submitted, tickets.size());
}

// ---------------------------------------------------------------------------
// One EvalSession shared by many threads.
// ---------------------------------------------------------------------------

TEST(EvalSessionStress, SharedSessionManyThreads) {
  constexpr size_t kThreads = 8;
  constexpr int kRoundsPerThread = 20;
  ProbGraph instance = StressInstance(42);
  std::vector<DiGraph> queries = StressQueries();

  std::vector<Result<SolveResult>> expected;
  {
    EvalSession scratch(instance);
    expected = scratch.SolveBatch(queries);
  }

  EvalSession session(instance);
  std::atomic<size_t> non_trivial{0};  // queries that touch the context cache
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        size_t qi = (t + round) % queries.size();
        if (queries[qi].num_edges() > 0) non_trivial.fetch_add(1);
        ExpectSameResult(expected[qi], session.Solve(queries[qi]),
                         "shared session");
        if (::testing::Test::HasFailure()) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SessionStats stats = session.stats();
  EXPECT_EQ(stats.queries, kThreads * kRoundsPerThread);
  // Contexts are built under the session lock: exactly once per distinct
  // label set even under concurrent first touches. StressQueries uses the
  // label sets {0}, {1} and {0,1} (MakeOneWayPath's kUnlabeled is label 0).
  EXPECT_EQ(stats.instance_preparations, 3u);
  EXPECT_EQ(stats.context_cache_hits + stats.instance_preparations,
            non_trivial.load())
      << "every context-touching query either hits or prepares";
}

// ---------------------------------------------------------------------------
// ContextLru.
// ---------------------------------------------------------------------------

TEST(ContextLru, EquivalentLabelMultisetsShareOneEntry) {
  ContextLru cache;
  ProbGraph instance = StressInstance(5);
  uint64_t fp = instance.Fingerprint();

  bool hit = true;
  auto a = cache.GetOrBuild(instance, fp, {0, 1}, &hit);
  EXPECT_FALSE(hit);
  // Same set as a duplicated, unsorted multiset: must HIT, not rebuild.
  auto b = cache.GetOrBuild(instance, fp, {1, 0, 1, 0, 0}, &hit);
  EXPECT_TRUE(hit) << "normalized keys must collapse equivalent multisets";
  EXPECT_EQ(a.get(), b.get()) << "one shared context object";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ContextLru, EvictsLeastRecentlyUsed) {
  ContextLruOptions options;
  options.capacity = 2;
  ContextLru cache(options);
  ProbGraph instance = StressInstance(6);
  uint64_t fp = instance.Fingerprint();

  bool hit = false;
  cache.GetOrBuild(instance, fp, {0}, &hit);      // {0}
  cache.GetOrBuild(instance, fp, {1}, &hit);      // {1} {0}
  cache.GetOrBuild(instance, fp, {0}, &hit);      // {0} {1}  (refresh)
  EXPECT_TRUE(hit);
  cache.GetOrBuild(instance, fp, {0, 1}, &hit);   // {0,1} {0} — evicts {1}
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  cache.GetOrBuild(instance, fp, {1}, &hit);      // rebuilt — evicts {0}
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().evictions, 2u);
  cache.GetOrBuild(instance, fp, {0, 1}, &hit);   // still resident
  EXPECT_TRUE(hit);
  cache.GetOrBuild(instance, fp, {0}, &hit);      // the refresh did not save
  EXPECT_FALSE(hit) << "{0} was least-recently-used at the second eviction";

  // Capacity 0 disables caching entirely.
  ContextLruOptions off;
  off.capacity = 0;
  ContextLru disabled(off);
  disabled.GetOrBuild(instance, fp, {0}, &hit);
  EXPECT_FALSE(hit);
  disabled.GetOrBuild(instance, fp, {0}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(ContextLru, FingerprintCollisionsAreNotServedStaleContexts) {
  // Craft a "collision" by lying about the fingerprint: two different
  // instances presented under the same key must not share a context — the
  // dimension guard forces a rebuild (and replaces the stale entry).
  ContextLru cache;
  ProbGraph a = ProbGraph::Certain(MakeOneWayPath(3));
  ProbGraph b = ProbGraph::Certain(MakeOneWayPath(5));

  bool hit = true;
  auto ctx_a = cache.GetOrBuild(a, 42, {0}, &hit);
  EXPECT_FALSE(hit);
  auto ctx_b = cache.GetOrBuild(b, 42, {0}, &hit);
  EXPECT_FALSE(hit) << "colliding key with different dims must rebuild";
  EXPECT_NE(ctx_a.get(), ctx_b.get());
  EXPECT_EQ(ctx_b->instance().num_vertices(), b.num_vertices());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 1u) << "the stale entry is replaced, not kept";
  // The replacement is now the resident entry.
  auto ctx_b2 = cache.GetOrBuild(b, 42, {0}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(ctx_b.get(), ctx_b2.get());
}

TEST(ContextLru, SharedAcrossSessionsOfIdenticalInstances) {
  auto cache = std::make_shared<ContextLru>();
  // Two sessions over bit-identical instances share preparations; answers
  // stay bit-identical to a private-cache session.
  EvalSession a(StressInstance(7), {}, cache);
  EvalSession b(StressInstance(7), {}, cache);
  EvalSession lone(StressInstance(7));
  DiGraph q = MakeLabeledPath({0, 1});

  Result<SolveResult> ra = a.Solve(q);
  Result<SolveResult> rb = b.Solve(q);
  Result<SolveResult> rl = lone.Solve(q);
  ASSERT_TRUE(ra.ok());
  ExpectSameResult(rl, ra, "shared cache a");
  ExpectSameResult(rl, rb, "shared cache b");
  EXPECT_EQ(a.stats().instance_preparations, 1u);
  EXPECT_EQ(b.stats().instance_preparations, 0u)
      << "b must reuse a's preparation through the shared cache";
  EXPECT_EQ(b.stats().context_cache_hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);

  // A different instance never collides.
  EvalSession c(StressInstance(8), {}, cache);
  ASSERT_TRUE(c.Solve(q).ok());
  EXPECT_EQ(c.stats().instance_preparations, 1u);
  EXPECT_EQ(cache->stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// EngineRegistry under concurrent lookups and registration.
// ---------------------------------------------------------------------------

class DummyEngine : public Engine {
 public:
  explicit DummyEngine(std::string name) : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  Algorithm algorithm() const override { return Algorithm::kFallback; }
  bool Applies(const CaseAnalysis&) const override { return false; }
  bool AutoMatch(const CaseAnalysis&) const override { return false; }
  Result<EngineAnswer> Solve(const PreparedProblem&, const SolveOptions&,
                             SolveStats*) const override {
    return Status::NotSupported("dummy engine never solves");
  }

 private:
  std::string name_;
};

TEST(EngineRegistryStress, ConcurrentLookupsDuringRegistration) {
  // The documented invariant is register-before-serve; this test checks the
  // stronger property the lock actually provides — lookups racing a
  // Register are memory-safe and see a consistent engine list. Uses a
  // private registry so the global one stays pristine.
  EngineRegistry registry;
  RegisterDefaultEngines(&registry);

  constexpr size_t kLookupThreads = 6;
  constexpr int kEngines = 40;
  // Bounded lookup loops (not spin-until-registered): readers re-taking the
  // shared lock in a tight loop can starve the writer for minutes on a
  // single TSan-instrumented core.
  constexpr int kLookupsPerThread = 500;
  std::atomic<int> seen{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kLookupThreads; ++t) {
    threads.emplace_back([&] {
      CaseAnalysis analysis;
      analysis.query_class.connected = true;
      for (int i = 0; i < kLookupsPerThread; ++i) {
        if (registry.FindByName("fallback") == nullptr) seen.fetch_add(1);
        if (registry.SelectAuto(analysis) == nullptr) seen.fetch_add(1);
        if (registry.FindByAlgorithm(Algorithm::kFallback) == nullptr) {
          seen.fetch_add(1);
        }
        registry.engines();
        if (i % 16 == 0) std::this_thread::yield();
      }
    });
  }
  for (int i = 0; i < kEngines; ++i) {
    registry.Register(
        std::make_unique<DummyEngine>("dummy-" + std::to_string(i)));
    if (i % 8 == 0) std::this_thread::yield();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(seen.load(), 0) << "built-in engines must never disappear";
  for (int i = 0; i < kEngines; ++i) {
    EXPECT_NE(registry.FindByName("dummy-" + std::to_string(i)), nullptr);
  }
  // Duplicate names still rejected (under the lock).
  EXPECT_THROW(registry.Register(std::make_unique<DummyEngine>("dummy-0")),
               std::logic_error);
}

}  // namespace
}  // namespace phom
