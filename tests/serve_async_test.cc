#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "src/serve/async.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "src/serve/shard.h"
#include "tests/test_util.h"

/// Tier-1 coverage of the asynchronous serving API (request.h, async.h):
/// submit/collect bit-identity with the serial path, per-request deadlines
/// (expired at submit / in queue / mid-flight), cooperative cancellation
/// (before start / mid-flight / delivered too late), completion callbacks,
/// owned-query lifetimes, and the executor's drain-on-destruction
/// guarantee. Timing-sensitive scenarios are made deterministic with a
/// registry "gate" engine that parks the worker on a latch the test opens.

namespace phom {
namespace {

using serve::BatchExecutor;
using serve::CompletionCallback;
using serve::ExecutorOptions;
using serve::RequestClock;
using serve::RequestStats;
using serve::ShardedServer;
using serve::ShardedServerOptions;
using serve::SolveRequest;
using serve::SolveTicket;
using test_util::MixedServeInstance;
using test_util::MixedServeQueries;

// ---------------------------------------------------------------------------
// The deterministic "slow" engine harness (Gate/GateEngine/GateOpener)
// lives in tests/test_util.h, shared with serve_degrade_test.cc.
// ---------------------------------------------------------------------------

using test_util::GateOpener;
using test_util::TestGate;

void EnsureGateEngineRegistered() {
  test_util::EnsureGateEngineRegistered("async-test-gate");
}

// ---------------------------------------------------------------------------
// Shared corpus + bitwise comparison helper.
// ---------------------------------------------------------------------------

void ExpectResultsBitIdentical(const Result<SolveResult>& serial,
                               const Result<SolveResult>& async,
                               const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(serial.ok(), async.ok());
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().code(), async.status().code());
    EXPECT_EQ(serial.status().message(), async.status().message());
    return;
  }
  EXPECT_EQ(serial->probability, async->probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(serial->probability_double),
            std::bit_cast<uint64_t>(async->probability_double))
      << "double answers must match bit for bit";
  EXPECT_EQ(serial->numeric, async->numeric);
  EXPECT_EQ(serial->stats.engine, async->stats.engine);
  EXPECT_EQ(serial->stats.primary, async->stats.primary);
  EXPECT_EQ(serial->stats.components, async->stats.components);
  EXPECT_EQ(serial->stats.worlds, async->stats.worlds);
  EXPECT_EQ(serial->analysis.cell, async->analysis.cell);
}

// ---------------------------------------------------------------------------
// Submit / Collect: the headline bit-identity guarantee.
// ---------------------------------------------------------------------------

class AsyncDeterminismTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AsyncDeterminismTest, SubmitCollectBitIdenticalToSerial) {
  const size_t threads = GetParam();
  for (NumericBackend backend :
       {NumericBackend::kExact, NumericBackend::kDouble}) {
    Rng rng(20170514);
    ProbGraph instance = MixedServeInstance(&rng);
    std::vector<DiGraph> queries = MixedServeQueries(&rng);
    // Repeat the batch so label-set cache hits occur mid-batch.
    std::vector<DiGraph> batch = queries;
    batch.insert(batch.end(), queries.begin(), queries.end());

    SolveOptions options;
    options.numeric = backend;

    EvalSession serial_session(instance, options);
    std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

    ExecutorOptions exec_options;
    exec_options.threads = threads;
    BatchExecutor executor(exec_options);
    EvalSession async_session(instance, options);
    std::vector<SolveRequest> requests;
    requests.reserve(batch.size());
    for (const DiGraph& q : batch) requests.push_back(SolveRequest(q));
    std::vector<SolveTicket> tickets =
        executor.SubmitBatch(async_session, std::move(requests));
    std::vector<Result<SolveResult>> async = BatchExecutor::Collect(tickets);

    std::string label = std::string("backend=") + ToString(backend) +
                        " threads=" + std::to_string(threads);
    ASSERT_EQ(serial.size(), async.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectResultsBitIdentical(serial[i], async[i],
                                label + " query " + std::to_string(i));
    }
    // Session accounting is deterministic too: preparation happens on the
    // submitting thread in batch order.
    EXPECT_EQ(serial_session.stats().queries, async_session.stats().queries);
    EXPECT_EQ(serial_session.stats().instance_preparations,
              async_session.stats().instance_preparations);
    EXPECT_EQ(serial_session.stats().context_cache_hits,
              async_session.stats().context_cache_hits);
    // Per-request timelines settled and are ordered sanely.
    for (SolveTicket& t : tickets) {
      ASSERT_TRUE(t.done());
      RequestStats stats = t.stats();
      EXPECT_LE(stats.enqueued, stats.started);
      EXPECT_LE(stats.started, stats.finished);
      EXPECT_GE(stats.total_time().count(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, AsyncDeterminismTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Threads" + std::to_string(info.param);
                         });

TEST(AsyncSubmit, OwnedQueriesOutliveCallerScope) {
  // The lifetime fix: requests own their query, so the caller's batch
  // vector may die while requests are still in flight (ASan-verified).
  Rng rng(77);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession serial_session(instance);
  EvalSession async_session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 2});

  std::vector<Result<SolveResult>> serial;
  std::vector<SolveTicket> tickets;
  {
    std::vector<DiGraph> local = MixedServeQueries(&rng);
    serial = serial_session.SolveBatch(local);
    for (DiGraph& q : local) {
      tickets.push_back(executor.Submit(async_session, SolveRequest(std::move(q))));
    }
  }  // the batch vector and its graphs are gone; the requests live on
  std::vector<Result<SolveResult>> async = BatchExecutor::Collect(tickets);
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectResultsBitIdentical(serial[i], async[i],
                              "owned query " + std::to_string(i));
  }
}

TEST(AsyncSubmit, SubmissionReturnsBeforeCompletion) {
  EnsureGateEngineRegistered();
  TestGate()->Reset();
  Rng rng(5);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  GateOpener opener;  // after the executor: failure-proofs the drain

  SolveRequest request(MakeLabeledPath({0}));
  request.WithEngine("async-test-gate");
  SolveTicket ticket = executor.Submit(session, std::move(request));
  TestGate()->AwaitEntered(1);  // the worker is inside the solve
  EXPECT_FALSE(ticket.done()) << "Submit must not wait for the solve";
  EXPECT_FALSE(ticket.WaitFor(std::chrono::milliseconds(1)));

  TestGate()->Open();
  ticket.Wait();
  ASSERT_TRUE(ticket.done());
  Result<SolveResult> result = ticket.Get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.engine, "async-test-gate");
  EXPECT_EQ(result->probability_double, 0.5);
  RequestStats stats = ticket.stats();
  EXPECT_FALSE(stats.expired_before_start);
  EXPECT_FALSE(stats.cancelled_before_start);
  EXPECT_LE(stats.enqueued, stats.started);
  EXPECT_LE(stats.started, stats.finished);
}

TEST(AsyncSubmit, PerRequestOverridesMatchSerialOverriddenSolve) {
  Rng rng(99);
  ProbGraph instance = MixedServeInstance(&rng);
  SolveOptions base;  // exact backend, auto engines
  base.monte_carlo.samples = 200;
  EvalSession serial_session(instance, base);
  EvalSession async_session(instance, base);
  BatchExecutor executor(ExecutorOptions{.threads = 2});

  DiGraph query = MakeLabeledPath({0, 1});
  std::vector<SolveOverrides> overrides(3);
  overrides[1].numeric = NumericBackend::kDouble;
  overrides[2].force_engine = "monte-carlo";
  overrides[2].monte_carlo_seed = 777;

  std::vector<SolveTicket> tickets;
  for (const SolveOverrides& o : overrides) {
    SolveRequest request(query);
    request.overrides = o;
    tickets.push_back(executor.Submit(async_session, std::move(request)));
  }
  std::vector<Result<SolveResult>> async = BatchExecutor::Collect(tickets);
  for (size_t i = 0; i < overrides.size(); ++i) {
    // EvalSession::Solve(query, overrides) is the serial twin of the
    // per-request override path.
    ExpectResultsBitIdentical(serial_session.Solve(query, overrides[i]),
                              async[i], "override " + std::to_string(i));
  }
}

TEST(AsyncSubmit, CompletionCallbacksFireExactlyOnceWithTheResult) {
  Rng rng(11);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> queries = MixedServeQueries(&rng);
  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 2});

  std::mutex mu;
  std::vector<int> calls(queries.size(), 0);
  std::vector<double> seen(queries.size(), -1.0);
  std::vector<bool> seen_ok(queries.size(), false);
  std::vector<SolveTicket> tickets;
  for (size_t i = 0; i < queries.size(); ++i) {
    tickets.push_back(executor.Submit(
        session, SolveRequest(queries[i]),
        [&, i](const Result<SolveResult>& result, const RequestStats&) {
          std::lock_guard<std::mutex> lock(mu);
          ++calls[i];
          seen_ok[i] = result.ok();
          if (result.ok()) seen[i] = result->probability_double;
        }));
  }
  std::vector<Result<SolveResult>> results = BatchExecutor::Collect(tickets);
  std::lock_guard<std::mutex> lock(mu);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(calls[i], 1) << "callback " << i << " must fire exactly once";
    ASSERT_EQ(seen_ok[i], results[i].ok());
    if (results[i].ok()) {
      EXPECT_EQ(std::bit_cast<uint64_t>(seen[i]),
                std::bit_cast<uint64_t>(results[i]->probability_double));
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(AsyncDeadline, AlreadyExpiredAtSubmitFailsFastWithoutPreparing) {
  Rng rng(13);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});

  SolveRequest request(MakeLabeledPath({0}));
  request.WithDeadline(RequestClock::now() - std::chrono::milliseconds(1));
  SolveTicket ticket = executor.Submit(session, std::move(request));
  ASSERT_TRUE(ticket.done()) << "fail-fast completes during Submit";
  EXPECT_EQ(ticket.Get().status().code(), Status::Code::kDeadlineExceeded);
  RequestStats stats = ticket.stats();
  EXPECT_TRUE(stats.expired_before_start);
  EXPECT_FALSE(stats.cancelled_before_start);
  EXPECT_EQ(session.stats().queries, 0u)
      << "nothing was prepared: the session never saw the request";
}

TEST(AsyncDeadline, ExpiryInQueueLaterRequestsStillServed) {
  EnsureGateEngineRegistered();
  TestGate()->Reset();
  Rng rng(17);
  ProbGraph instance = MixedServeInstance(&rng);
  DiGraph query = MakeLabeledPath({0, 1});
  EvalSession serial_session(instance);
  Result<SolveResult> serial = serial_session.Solve(query);

  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  GateOpener opener;

  // Park the lone worker, so the doomed request waits in the queue past its
  // deadline.
  SolveRequest blocker(MakeLabeledPath({0}));
  blocker.WithEngine("async-test-gate");
  SolveTicket blocked = executor.Submit(session, std::move(blocker));
  TestGate()->AwaitEntered(1);

  SolveRequest doomed(query);
  const RequestClock::time_point deadline =
      RequestClock::now() + std::chrono::milliseconds(50);
  doomed.WithDeadline(deadline);
  // split_components fans this query into 3 tasks; gate them all behind the
  // deadline by disabling nothing — the worker is parked either way.
  SolveTicket late = executor.Submit(session, std::move(doomed));
  SolveRequest healthy(query);  // same query, no deadline: must be served
  SolveTicket served = executor.Submit(session, std::move(healthy));

  std::this_thread::sleep_until(deadline + std::chrono::milliseconds(5));
  TestGate()->Open();

  EXPECT_EQ(late.Get().status().code(), Status::Code::kDeadlineExceeded)
      << "expired at dequeue, without solving";
  RequestStats late_stats = late.stats();
  EXPECT_TRUE(late_stats.expired_before_start);
  ExpectResultsBitIdentical(serial, served.Get(),
                            "request behind an expired neighbor");
  ASSERT_TRUE(blocked.Get().ok());
}

TEST(AsyncDeadline, ExpiryMidFlightBetweenComponentTasks) {
  Rng rng(19);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  // One worker, parked by the test_after_fanout hook right after it fanned
  // the componentwise request out and ran the FIRST component — so work
  // provably starts before the deadline passes, and the remaining
  // components expire at dequeue once the worker resumes.
  std::mutex mu;
  std::condition_variable cv;
  bool fanned = false;
  bool resume = false;
  ExecutorOptions exec_options;
  exec_options.threads = 1;
  exec_options.test_after_fanout = [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    fanned = true;
    cv.notify_all();
    cv.wait(lock, [&] { return resume; });
  };
  BatchExecutor executor(exec_options);

  SolveRequest doomed(MakeLabeledPath({0, 1}));  // 3 instance components
  const RequestClock::time_point deadline =
      RequestClock::now() + std::chrono::milliseconds(250);
  doomed.WithDeadline(deadline);
  SolveTicket late = executor.Submit(session, std::move(doomed));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fanned; });
  }
  std::this_thread::sleep_until(deadline + std::chrono::milliseconds(5));
  {
    std::lock_guard<std::mutex> lock(mu);
    resume = true;
  }
  cv.notify_all();

  EXPECT_EQ(late.Get().status().code(), Status::Code::kDeadlineExceeded);
  RequestStats stats = late.stats();
  EXPECT_FALSE(stats.expired_before_start)
      << "the first component ran at fan-out: the expiry was mid-flight";
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(AsyncCancel, BeforeStartCancelsWithoutSolving) {
  EnsureGateEngineRegistered();
  TestGate()->Reset();
  Rng rng(23);
  ProbGraph instance = MixedServeInstance(&rng);
  DiGraph query = MakeLabeledPath({0, 1});
  EvalSession serial_session(instance);
  Result<SolveResult> serial = serial_session.Solve(query);

  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  GateOpener opener;

  SolveRequest blocker(MakeLabeledPath({0}));
  blocker.WithEngine("async-test-gate");
  SolveTicket blocked = executor.Submit(session, std::move(blocker));
  TestGate()->AwaitEntered(1);

  SolveTicket cancelled = executor.Submit(session, SolveRequest(query));
  SolveTicket served = executor.Submit(session, SolveRequest(query));
  EXPECT_TRUE(cancelled.Cancel()) << "delivered before completion";
  TestGate()->Open();

  EXPECT_EQ(cancelled.Get().status().code(), Status::Code::kCancelled);
  EXPECT_TRUE(cancelled.stats().cancelled_before_start);
  EXPECT_FALSE(cancelled.stats().expired_before_start);
  ExpectResultsBitIdentical(serial, served.Get(),
                            "request behind a cancelled neighbor");
  ASSERT_TRUE(blocked.Get().ok());
}

TEST(AsyncCancel, MidFlightBetweenComponentTasks) {
  Rng rng(29);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  // Same parking trick as the deadline twin: the worker fans out, runs the
  // first component (work starts), and parks in the hook — the cancel then
  // lands between component tasks, before the worker reaches the rest.
  std::mutex mu;
  std::condition_variable cv;
  bool fanned = false;
  bool resume = false;
  ExecutorOptions exec_options;
  exec_options.threads = 1;
  exec_options.test_after_fanout = [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    fanned = true;
    cv.notify_all();
    cv.wait(lock, [&] { return resume; });
  };
  BatchExecutor executor(exec_options);

  SolveTicket cancelled =
      executor.Submit(session, SolveRequest(MakeLabeledPath({0, 1})));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return fanned; });
  }
  EXPECT_TRUE(cancelled.Cancel());  // the parked worker has not finished it
  {
    std::lock_guard<std::mutex> lock(mu);
    resume = true;
  }
  cv.notify_all();

  EXPECT_EQ(cancelled.Get().status().code(), Status::Code::kCancelled);
  EXPECT_FALSE(cancelled.stats().cancelled_before_start)
      << "the first component ran at fan-out: the cancel was mid-flight";
}

TEST(AsyncCancel, DeliveredTooLateIsBenign) {
  EnsureGateEngineRegistered();
  TestGate()->Reset();
  Rng rng(31);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  BatchExecutor executor(ExecutorOptions{.threads = 1});
  GateOpener opener;

  SolveRequest request(MakeLabeledPath({0}));
  request.WithEngine("async-test-gate");
  SolveTicket ticket = executor.Submit(session, std::move(request));
  TestGate()->AwaitEntered(1);  // the solve is past every yield point
  EXPECT_TRUE(ticket.Cancel()) << "delivered before completion...";
  TestGate()->Open();
  Result<SolveResult> result = ticket.Get();
  ASSERT_TRUE(result.ok()) << "...but cooperative: the solve completes";
  EXPECT_EQ(result->probability_double, 0.5);
  EXPECT_FALSE(ticket.stats().cancelled_before_start);
}

TEST(AsyncCancel, SerialCancelTokenHookInterruptsComponentwiseSolve) {
  // The core-layer half of the feature: SolveOptions::cancel is honored by
  // the serial componentwise dispatch too (same yield points).
  Rng rng(37);
  ProbGraph instance = MixedServeInstance(&rng);
  DiGraph query = MakeLabeledPath({0, 1});

  CancelToken cancelled;
  cancelled.Cancel();
  SolveOptions with_cancel;
  with_cancel.cancel = &cancelled;
  EXPECT_EQ(Solver(with_cancel).Solve(query, instance).status().code(),
            Status::Code::kCancelled);

  CancelToken expired;
  expired.SetDeadline(CancelToken::Clock::now() - std::chrono::seconds(1));
  SolveOptions with_deadline;
  with_deadline.cancel = &expired;
  EXPECT_EQ(Solver(with_deadline).Solve(query, instance).status().code(),
            Status::Code::kDeadlineExceeded);

  // A token that never fires changes nothing, bit for bit.
  CancelToken idle;
  idle.SetDeadline(CancelToken::Clock::now() + std::chrono::hours(1));
  SolveOptions with_idle;
  with_idle.cancel = &idle;
  Result<SolveResult> gated = Solver(with_idle).Solve(query, instance);
  Result<SolveResult> plain = Solver(SolveOptions{}).Solve(query, instance);
  ExpectResultsBitIdentical(plain, gated, "idle token");
}

// ---------------------------------------------------------------------------
// Drain-on-destruction (was: documented UB).
// ---------------------------------------------------------------------------

TEST(ExecutorDrain, DestructorCompletesOutstandingTickets) {
  Rng rng(20260729);
  ProbGraph instance = MixedServeInstance(&rng);
  std::vector<DiGraph> queries = MixedServeQueries(&rng);
  EvalSession serial_session(instance);
  std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(queries);

  EvalSession session(instance);
  std::vector<SolveTicket> tickets;
  {
    BatchExecutor executor(ExecutorOptions{.threads = 2});
    std::vector<SolveRequest> requests;
    for (const DiGraph& q : queries) requests.push_back(SolveRequest(q));
    tickets = executor.SubmitBatch(session, std::move(requests));
  }  // destroyed with requests in flight: drains instead of UB
  ASSERT_EQ(tickets.size(), serial.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].done())
        << "the destructor must complete ticket " << i;
    ExpectResultsBitIdentical(serial[i], tickets[i].Take(),
                              "drained ticket " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// ShardedServer's async front door.
// ---------------------------------------------------------------------------

TEST(ShardedServerAsync, SubmitRoutesCollectsAndRejectsPerRequest) {
  Rng rng(41);
  ProbGraph instance_a = MixedServeInstance(&rng);
  ProbGraph instance_b = MixedServeInstance(&rng);
  DiGraph query = MakeLabeledPath({0, 1});

  EvalSession serial_a(instance_a);
  EvalSession serial_b(instance_b);
  Result<SolveResult> expected_a = serial_a.Solve(query);
  Result<SolveResult> expected_b = serial_b.Solve(query);

  ShardedServerOptions options;
  options.executor.threads = 2;
  ShardedServer server({instance_a, instance_b}, options);

  std::vector<SolveRequest> requests;
  requests.push_back(SolveRequest(query, 0));
  requests.push_back(SolveRequest(query, 1));
  requests.push_back(SolveRequest(query, 7));  // out of range
  requests.push_back(
      SolveRequest(std::shared_ptr<const DiGraph>(), 0));  // null query
  std::vector<SolveTicket> tickets = server.SubmitBatch(std::move(requests));
  std::vector<Result<SolveResult>> results = server.Collect(tickets);

  ASSERT_EQ(results.size(), 4u);
  ExpectResultsBitIdentical(expected_a, results[0], "shard 0");
  ExpectResultsBitIdentical(expected_b, results[1], "shard 1");
  EXPECT_EQ(results[2].status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(results[3].status().code(), Status::Code::kInvalidArgument);

  // Rejection callbacks fire inline, before Submit returns.
  int rejected_calls = 0;
  SolveTicket rejected = server.Submit(
      SolveRequest(query, 9),
      [&rejected_calls](const Result<SolveResult>& result,
                        const RequestStats&) {
        ++rejected_calls;
        EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
      });
  EXPECT_EQ(rejected_calls, 1);
  ASSERT_TRUE(rejected.done());

  // A blocking cross-shard batch is SubmitBatch + Collect over borrowed
  // queries: the same path.
  std::vector<SolveRequest> sync_requests;
  sync_requests.push_back(SolveRequest::BorrowQuery(query, 0));
  sync_requests.push_back(SolveRequest::BorrowQuery(query, 1));
  std::vector<SolveTicket> sync_tickets =
      server.SubmitBatch(std::move(sync_requests));
  std::vector<Result<SolveResult>> sync = server.Collect(sync_tickets);
  ExpectResultsBitIdentical(expected_a, sync[0], "sync wrapper shard 0");
  ExpectResultsBitIdentical(expected_b, sync[1], "sync wrapper shard 1");
}

TEST(ShardedServerAsync, DeadlinedRequestsDoNotDisturbTheBatch) {
  Rng rng(43);
  ProbGraph instance = MixedServeInstance(&rng);
  DiGraph query = MakeLabeledPath({0, 1});
  EvalSession serial_session(instance);
  Result<SolveResult> expected = serial_session.Solve(query);

  ShardedServerOptions options;
  options.executor.threads = 2;
  ShardedServer server({instance}, options);

  std::vector<SolveRequest> requests;
  requests.push_back(SolveRequest(query, 0));
  SolveRequest doomed(query, 0);
  doomed.WithDeadline(RequestClock::now() - std::chrono::milliseconds(1));
  requests.push_back(std::move(doomed));
  requests.push_back(SolveRequest(query, 0));
  std::vector<SolveTicket> tickets = server.SubmitBatch(std::move(requests));
  std::vector<Result<SolveResult>> results = server.Collect(tickets);

  ExpectResultsBitIdentical(expected, results[0], "before the doomed request");
  EXPECT_EQ(results[1].status().code(), Status::Code::kDeadlineExceeded);
  ExpectResultsBitIdentical(expected, results[2], "after the doomed request");
  EXPECT_TRUE(tickets[1].stats().expired_before_start);
}

}  // namespace
}  // namespace phom
