#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "src/core/solver.h"
#include "src/graph/digraph.h"
#include "src/graph/ucq.h"

/// \file request.h
/// The one request type of the serving API (async.h, executor.h, shard.h):
/// one query addressed to one shard, with per-request overrides of the
/// session's SolveOptions, an optional absolute deadline, and OWNED query
/// storage: a submitted SolveRequest keeps its query alive even after the
/// caller's batch vector dies, so asynchronous submission cannot dangle.
/// Only the blocking wrappers borrow (BorrowQuery), because they outlive
/// the solve by construction.

namespace phom::serve {

/// The serving clock (monotonic; deadlines are absolute points on it).
using RequestClock = CancelToken::Clock;

/// One asynchronous solve request. Construct with an owned query (moved or
/// shared); BorrowQuery exists only for synchronous submit+wait wrappers
/// that outlive the solve by construction.
struct SolveRequest {
  /// Target shard (ShardedServer routing; ignored by direct
  /// BatchExecutor::Submit, which takes the session explicitly).
  size_t shard = 0;
  /// The query graph, owned (shared) by the request and by every task
  /// spawned for it. Null iff `ucq` below is set.
  std::shared_ptr<const DiGraph> query;
  /// A union of conjunctive queries instead of a single CQ: when set, the
  /// request is prepared through the lifted-inference front door
  /// (lifted::PrepareUcq) and fans out over the safe plan's UNITS rather
  /// than over instance components. Exactly one of `query` and `ucq` must
  /// be set. A one-disjunct union answers bit-identically to the same
  /// request submitted as a single CQ.
  std::shared_ptr<const Ucq> ucq;
  /// Absolute deadline. Checked at submit (expired → fail fast, nothing is
  /// prepared — unless the degrade policy is on, see below), at dequeue
  /// (expired before start → DeadlineExceeded without solving), between
  /// component subproblems, and — since the in-component yield points —
  /// every few thousand iterations INSIDE a hard cell's world enumeration
  /// and the Monte Carlo sampling loop (CancelToken, util/status.h).
  ///
  /// With DegradePolicy mode kOnDeadlineRisk (session default or the
  /// per-request override below), a deadline miss anywhere past submit is
  /// converted into a budgeted Monte Carlo ESTIMATE instead of a
  /// DeadlineExceeded error: the request is re-dispatched to the
  /// "monte-carlo" engine with whatever budget remains (at minimum
  /// policy.min_samples samples), and the result carries DegradeInfo
  /// provenance (SolveResult::degrade). An already-expired deadline at
  /// submit then prepares and enqueues normally so a worker can produce the
  /// estimate. Explicit Cancel() is never degraded.
  std::optional<RequestClock::time_point> deadline;
  /// RELATIVE time budget, resolved against the SUBMIT time (not the time
  /// this request object was built): Submit materializes it as
  /// deadline = submit_time + budget, so batch-building time between
  /// WithBudget and Submit no longer silently eats the budget.
  /// When both a budget and an absolute deadline are set, the earlier of
  /// the two effective deadlines wins.
  std::optional<std::chrono::nanoseconds> budget;
  /// Per-request overrides of the session's base SolveOptions: numeric
  /// backend, forced engine, Monte Carlo seed, degrade policy (solver.h).
  SolveOverrides overrides;

  SolveRequest() = default;
  explicit SolveRequest(DiGraph query_graph, size_t shard_index = 0)
      : shard(shard_index),
        query(std::make_shared<const DiGraph>(std::move(query_graph))) {}
  explicit SolveRequest(std::shared_ptr<const DiGraph> query_graph,
                        size_t shard_index = 0)
      : shard(shard_index), query(std::move(query_graph)) {}
  explicit SolveRequest(Ucq ucq_union, size_t shard_index = 0)
      : shard(shard_index),
        ucq(std::make_shared<const Ucq>(std::move(ucq_union))) {}
  explicit SolveRequest(std::shared_ptr<const Ucq> ucq_union,
                        size_t shard_index = 0)
      : shard(shard_index), ucq(std::move(ucq_union)) {}

  /// Fluent helpers (return *this so requests can be built inline).
  SolveRequest& WithDeadline(RequestClock::time_point d) {
    deadline = d;
    return *this;
  }
  /// Deadline = submit time + budget (materialized in Submit, NOT here —
  /// see `budget` above).
  SolveRequest& WithBudget(std::chrono::nanoseconds b) {
    budget = b;
    return *this;
  }
  SolveRequest& WithNumeric(NumericBackend backend) {
    overrides.numeric = backend;
    return *this;
  }
  SolveRequest& WithEngine(std::string engine_name) {
    overrides.force_engine = std::move(engine_name);
    return *this;
  }
  SolveRequest& WithMonteCarloSeed(uint64_t seed) {
    overrides.monte_carlo_seed = seed;
    return *this;
  }
  SolveRequest& WithDegrade(DegradePolicy policy) {
    overrides.degrade = policy;
    return *this;
  }
  /// Degrade on deadline risk with the policy's default budget knobs.
  SolveRequest& WithDegradeOnDeadlineRisk() {
    DegradePolicy policy;
    policy.mode = DegradeMode::kOnDeadlineRisk;
    overrides.degrade = policy;
    return *this;
  }
  /// Ask any degraded estimate for a certified RELATIVE 95% bound: sampling
  /// stops once half_width_95 <= target · (certified lower bound on the
  /// answer). Composes with WithDegrade/WithDegradeOnDeadlineRisk in either
  /// order (field-level override; see SolveOverrides::target_relative_error).
  SolveRequest& WithTargetRelativeError(double target) {
    overrides.target_relative_error = target;
    return *this;
  }
  /// Cap the acceptable certified-enclosure width: an interval answer wider
  /// than `width` (hi − lo) is re-run under the EXACT backend when budget
  /// remains (EscalationPolicy; SolveResult::escalate provenance). Forces
  /// mode kOnWideResult; composes with WithEscalate in either order
  /// (field-level override; see SolveOverrides::max_width).
  SolveRequest& WithMaxWidth(double width) {
    overrides.max_width = width;
    return *this;
  }
  /// Replace the whole width-escalation policy (solver.h).
  SolveRequest& WithEscalate(EscalationPolicy policy) {
    overrides.escalate = policy;
    return *this;
  }

  /// A non-owning view of a caller-kept query. ONLY for synchronous
  /// submit+wait paths: the caller must keep `query_graph` alive until the
  /// request's ticket completes.
  static SolveRequest BorrowQuery(const DiGraph& query_graph,
                                  size_t shard_index = 0) {
    return SolveRequest(
        std::shared_ptr<const DiGraph>(std::shared_ptr<void>(), &query_graph),
        shard_index);
  }
};

/// Per-request serving timeline, for observability: when the request was
/// accepted, when its first task started running, and when its result was
/// published. Snapshot via SolveTicket::stats() (safe at any time; fields
/// settle once the ticket is done).
struct RequestStats {
  RequestClock::time_point enqueued{};
  /// First task dequeue (== finished for requests that never ran a task:
  /// rejected, expired or cancelled before start).
  RequestClock::time_point started{};
  RequestClock::time_point finished{};
  /// The request missed its deadline / was cancelled before any solving
  /// work ran (it spent its whole life in the queue).
  bool expired_before_start = false;
  bool cancelled_before_start = false;
  /// The request's exact solve hit its deadline and was converted into a
  /// budgeted Monte Carlo estimate (DegradePolicy); the result is OK and
  /// carries SolveResult::degrade provenance (degrade.proactive
  /// distinguishes an admission-time skip from a reactive conversion).
  bool degraded = false;
  /// The request's interval solve finished too wide (EscalationPolicy) and
  /// was re-run under the exact backend; the published answer is the exact
  /// one and carries SolveResult::escalate provenance.
  bool escalated = false;
  /// The cost model's expected exact-solve latency, snapshotted at submit
  /// (zero without a cost model). The admission decision — admit or degrade
  /// proactively — was made against this prediction.
  std::chrono::nanoseconds predicted_cost{0};
  /// The error guarantee the published answer carries (GuaranteeOf — exact,
  /// certified interval enclosure, empirical double, or a statistical
  /// absolute/relative 95% bound). Settles with the result; meaningful only
  /// on successful tickets (kExact default otherwise).
  Guarantee guarantee = Guarantee::kExact;

  std::chrono::nanoseconds queue_delay() const { return started - enqueued; }
  std::chrono::nanoseconds solve_time() const { return finished - started; }
  std::chrono::nanoseconds total_time() const { return finished - enqueued; }
};

}  // namespace phom::serve
