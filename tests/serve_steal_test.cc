#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/eval_session.h"
#include "src/core/solver.h"
#include "src/graph/builders.h"
#include "src/graph/generators.h"
#include "src/serve/executor.h"
#include "src/serve/request.h"
#include "src/serve/work_steal_deque.h"
#include "tests/test_util.h"

/// Tier-1 coverage of the work-stealing scheduling core (executor.h):
/// WorkStealDeque in isolation (ordering, bounds, conservation under
/// concurrency; the injection queue's MpmcQueue is covered in
/// serve_executor_test.cc), the steal-interleaving bit-identity fuzz
/// (randomized victim seeds x thread counts x backends, all against the
/// serial baseline), a deterministic forced-steal gate (every fanned-out
/// component task must be stolen), and the EDF heap-overflow regression:
/// displacement runs the EARLIEST entry inline, never the incoming one.

namespace phom {
namespace {

using serve::BatchExecutor;
using serve::ExecutorOptions;
using serve::RequestClock;
using serve::SolveRequest;
using serve::SolveTicket;
using serve::WorkStealDeque;
using test_util::GateOpener;
using test_util::MixedServeInstance;
using test_util::MixedServeQueries;
using test_util::TestGate;

void EnsureGateEngineRegistered() {
  test_util::EnsureGateEngineRegistered("steal-test-gate");
}

void ExpectResultsBitIdentical(const Result<SolveResult>& serial,
                               const Result<SolveResult>& parallel,
                               const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(serial.ok(), parallel.ok());
  if (!serial.ok()) {
    EXPECT_EQ(serial.status().code(), parallel.status().code());
    EXPECT_EQ(serial.status().message(), parallel.status().message());
    return;
  }
  EXPECT_EQ(serial->probability, parallel->probability);
  EXPECT_EQ(std::bit_cast<uint64_t>(serial->probability_double),
            std::bit_cast<uint64_t>(parallel->probability_double))
      << "double answers must match bit for bit";
  EXPECT_EQ(serial->numeric, parallel->numeric);
  EXPECT_EQ(serial->stats.engine, parallel->stats.engine);
  EXPECT_EQ(serial->stats.components, parallel->stats.components);
  EXPECT_EQ(serial->analysis.cell, parallel->analysis.cell);
}

// ---------------------------------------------------------------------------
// WorkStealDeque unit coverage.
// ---------------------------------------------------------------------------

TEST(WorkStealDeque, OwnerPopsLifoThievesStealFifo) {
  WorkStealDeque<int> deque(8);
  for (int v = 1; v <= 3; ++v) {
    auto node = std::make_unique<int>(v);
    ASSERT_TRUE(deque.PushBottom(node));
    EXPECT_EQ(node, nullptr) << "push consumes the node";
  }
  std::unique_ptr<int> out;
  ASSERT_TRUE(deque.PopBottom(&out));
  EXPECT_EQ(*out, 3) << "owner pops the most recent push";
  ASSERT_TRUE(deque.TrySteal(&out));
  EXPECT_EQ(*out, 1) << "thieves steal the oldest push";
  ASSERT_TRUE(deque.PopBottom(&out));
  EXPECT_EQ(*out, 2);
  EXPECT_FALSE(deque.PopBottom(&out));
  EXPECT_FALSE(deque.TrySteal(&out));
}

TEST(WorkStealDeque, BoundedPushFailsWhenFullAndKeepsTheNode) {
  WorkStealDeque<int> deque(2);
  EXPECT_EQ(deque.capacity(), 2u);
  auto a = std::make_unique<int>(1);
  auto b = std::make_unique<int>(2);
  auto c = std::make_unique<int>(3);
  ASSERT_TRUE(deque.PushBottom(a));
  ASSERT_TRUE(deque.PushBottom(b));
  EXPECT_FALSE(deque.PushBottom(c));
  ASSERT_NE(c, nullptr) << "a failed push leaves the node with the caller";
  EXPECT_EQ(*c, 3);
  // Draining one slot re-admits the spare node.
  std::unique_ptr<int> out;
  ASSERT_TRUE(deque.TrySteal(&out));
  EXPECT_TRUE(deque.PushBottom(c));
}

TEST(WorkStealDeque, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(WorkStealDeque<int>(0).capacity(), 2u);
  EXPECT_EQ(WorkStealDeque<int>(3).capacity(), 4u);
  EXPECT_EQ(WorkStealDeque<int>(256).capacity(), 256u);
}

TEST(WorkStealDeque, ConservationUnderConcurrentSteals) {
  // Owner pushes 0..N-1 (popping a few itself); thieves steal concurrently.
  // Every value must come out exactly once — no loss, no duplication.
  constexpr int kN = 512;
  constexpr int kThieves = 2;
  WorkStealDeque<int> deque(64);
  std::vector<std::atomic<int>> seen(kN);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::unique_ptr<int> out;
      while (!done.load(std::memory_order_acquire) ||
             consumed.load(std::memory_order_relaxed) < kN) {
        if (deque.TrySteal(&out)) {
          seen[*out].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::unique_ptr<int> out;
  for (int v = 0; v < kN; ++v) {
    auto node = std::make_unique<int>(v);
    while (!deque.PushBottom(node)) {
      // Full: help drain from the owner side.
      if (deque.PopBottom(&out)) {
        seen[*out].fetch_add(1, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (v % 3 == 0 && deque.PopBottom(&out)) {
      seen[*out].fetch_add(1, std::memory_order_relaxed);
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  while (deque.PopBottom(&out)) {
    seen[*out].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();
  for (int v = 0; v < kN; ++v) {
    EXPECT_EQ(seen[v].load(std::memory_order_relaxed), 1)
        << "value " << v << " lost or duplicated";
  }
}

// ---------------------------------------------------------------------------
// Steal-interleaving fuzz: randomized victim order x thread counts x
// backends, always bit-identical to serial.
// ---------------------------------------------------------------------------

class ServeStealFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ServeStealFuzzTest, BitIdenticalAcrossStealSchedules) {
  const size_t threads = GetParam();
  for (NumericBackend backend :
       {NumericBackend::kExact, NumericBackend::kDouble}) {
    Rng rng(424243);
    ProbGraph instance = MixedServeInstance(&rng);
    std::vector<DiGraph> queries = MixedServeQueries(&rng);
    std::vector<DiGraph> batch = queries;
    batch.insert(batch.end(), queries.begin(), queries.end());

    SolveOptions options;
    options.numeric = backend;
    EvalSession serial_session(instance, options);
    std::vector<Result<SolveResult>> serial = serial_session.SolveBatch(batch);

    for (uint64_t seed : {uint64_t{0x9e3779b97f4a7c15ull}, uint64_t{12345},
                          uint64_t{0xfeedfacecafebeefull}}) {
      ExecutorOptions exec_options;
      exec_options.threads = threads;
      exec_options.steal_seed = seed;
      // Small deque and injection queue: force overflow, not just the
      // happy path.
      exec_options.steal_deque_capacity = 4;
      exec_options.queue_capacity = 32;
      BatchExecutor executor(exec_options);
      EvalSession session(instance, options);
      std::vector<SolveRequest> requests;
      requests.reserve(batch.size());
      for (const DiGraph& q : batch) requests.push_back(SolveRequest(q));
      std::vector<SolveTicket> tickets =
          executor.SubmitBatch(session, std::move(requests));
      std::vector<Result<SolveResult>> parallel =
          BatchExecutor::Collect(tickets);

      const std::string label = std::string("backend=") + ToString(backend) +
                                " threads=" + std::to_string(threads) +
                                " seed=" + std::to_string(seed);
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        ExpectResultsBitIdentical(serial[i], parallel[i],
                                  label + " query " + std::to_string(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ServeStealFuzzTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "Threads" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Forced steal: park the fanning worker so every remaining component task
// MUST be stolen, and the result is still bit-identical.
// ---------------------------------------------------------------------------

TEST(ServeStealForced, ParkedFanningWorkerHasItsComponentsStolen) {
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Rng rng(515253);
    ProbGraph instance = MixedServeInstance(&rng);
    DiGraph query = MakeLabeledPath({0, 1});  // 3 instance components
    EvalSession serial_session(instance);
    Result<SolveResult> serial = serial_session.Solve(query);

    // The FIRST worker to fan a request out parks in the hook until the
    // ticket completes; it already ran component 0 inline, so components
    // 1..n-1 sit in its deque and can only finish by being STOLEN (the
    // collector below uses the pure, non-helping wait).
    std::mutex mu;
    std::condition_variable cv;
    bool parked = false;
    bool release = false;
    ExecutorOptions exec_options;
    exec_options.threads = threads;
    exec_options.test_after_fanout = [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      if (parked) return;  // only the first fanning worker parks
      parked = true;
      cv.wait(lock, [&] { return release; });
    };
    BatchExecutor executor(exec_options);
    EvalSession session(instance);
    SolveTicket ticket = executor.Submit(session, SolveRequest(query));
    Result<SolveResult> parallel = ticket.Get();  // pure wait: thieves finish it
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();

    ExpectResultsBitIdentical(serial, parallel, "forced steal");
    EXPECT_GE(executor.stats().tasks_stolen, 1u)
        << "the parked worker's remaining components must have been stolen";
  }
}

// ---------------------------------------------------------------------------
// EDF heap overflow: the EARLIEST entry runs inline, not the incoming one
// (regression for the pre-rebuild bypass of slack ordering).
// ---------------------------------------------------------------------------

TEST(ServeStealEdf, HeapOverflowDisplacesEarliestInline) {
  EnsureGateEngineRegistered();
  TestGate()->Reset();
  Rng rng(616263);
  ProbGraph instance = MixedServeInstance(&rng);
  EvalSession session(instance);
  // One worker, heap capacity 2 (= queue_capacity at one thread). With the
  // worker parked, D1(60s) and D2(50s) fill the heap; submitting D3(55s)
  // overflows it. The fixed policy inserts D3 and runs the EARLIEST entry —
  // D2 — inline on the submitter; the old policy ran D3, the incoming task,
  // bypassing slack order. Completion order must be D2, D3, D1.
  ExecutorOptions exec_options;
  exec_options.threads = 1;
  exec_options.queue_capacity = 2;
  exec_options.split_components = false;  // whole-request tasks: one per D
  BatchExecutor executor(exec_options);
  GateOpener opener;

  SolveRequest blocker(MakeLabeledPath({0}));
  blocker.WithEngine("steal-test-gate");
  SolveTicket blocked = executor.Submit(session, std::move(blocker));
  TestGate()->AwaitEntered(1);

  std::mutex order_mu;
  std::vector<std::string> order;
  auto tracked = [&](const std::string& name) {
    return [&order_mu, &order, name](const Result<SolveResult>&,
                                     const serve::RequestStats&) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
    };
  };
  const RequestClock::time_point now = RequestClock::now();
  SolveRequest d1(MakeLabeledPath({0}));
  d1.WithDeadline(now + std::chrono::seconds(60));
  SolveRequest d2(MakeLabeledPath({1, 0}));
  d2.WithDeadline(now + std::chrono::seconds(50));
  SolveRequest d3(MakeLabeledPath({0, 1, 0}));
  d3.WithDeadline(now + std::chrono::seconds(55));

  SolveTicket t1 = executor.Submit(session, std::move(d1), tracked("D1"));
  SolveTicket t2 = executor.Submit(session, std::move(d2), tracked("D2"));
  EXPECT_EQ(executor.stats().edf_displaced_runs, 0u);
  SolveTicket t3 = executor.Submit(session, std::move(d3), tracked("D3"));
  // The displaced earliest entry (D2) ran inline DURING the submit above.
  EXPECT_EQ(executor.stats().edf_displaced_runs, 1u);
  EXPECT_TRUE(t2.done()) << "D2 (earliest) ran inline at overflow";
  EXPECT_FALSE(t1.done());
  EXPECT_FALSE(t3.done());

  TestGate()->Open();
  ASSERT_TRUE(blocked.Get().ok());
  ASSERT_TRUE(t1.Get().ok());
  ASSERT_TRUE(t2.Get().ok());
  ASSERT_TRUE(t3.Get().ok());
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "D2") << "earliest effective deadline first";
  EXPECT_EQ(order[1], "D3") << "remaining heap entries drain in EDF order";
  EXPECT_EQ(order[2], "D1");
}

}  // namespace
}  // namespace phom
