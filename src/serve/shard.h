#pragma once

#include <memory>
#include <vector>

#include "src/serve/executor.h"
#include "src/serve/lru.h"

/// \file shard.h
/// Sharded multi-instance serving: a ShardedServer owns one EvalSession per
/// instance shard, a shared BatchExecutor thread pool, and a cross-instance
/// ContextLru so preparations are shared whenever shards (or tenants) carry
/// identical instances and label sets. Requests address shards by index —
/// routing keys to shards is the caller's partitioning policy.
///
/// The front door is the asynchronous request/response API (request.h,
/// async.h): Submit/SubmitBatch return SolveTickets immediately, with
/// per-request deadlines, overrides and cooperative cancellation; Collect
/// waits (helping to drain the pool's queue). The synchronous Solve and
/// SolveBatch (one shard) are thin submit+wait wrappers over the same path;
/// a blocking batch across shards is SubmitBatch + Collect.
///
/// Graceful degradation: set ShardedServerOptions::solve.degrade (server-
/// wide default) or the per-request SolveRequest override to
/// DegradeMode::kOnDeadlineRisk and deadline-threatened requests answer a
/// budgeted Monte Carlo estimate with DegradeInfo provenance instead of
/// DeadlineExceeded — see executor.h for the full semantics.
///
/// Predictive admission & slack ordering: install a CostModel on
/// ShardedServerOptions::executor.cost_model and the shared pool predicts
/// each request's exact-solve cost at submit — degrading doomed requests
/// proactively and dispatching deadline-carrying requests
/// earliest-effective-deadline-first across ALL shards (the pool has one
/// EDF heap, so slack ordering is global).
/// Counters: executor_stats(). Full semantics: executor.h, cost_model.h.
///
/// Thread safety: every public method may be called from many threads at
/// once (sessions, the LRU and the executor are individually thread-safe).
/// Determinism: every request that completes answers bit-identically to
/// solving it serially with EvalSession::Solve, for every thread count (see
/// executor.h for why). Destruction drains: outstanding tickets complete
/// before the sessions die (the executor is destroyed first).

namespace phom::serve {

struct ShardedServerOptions {
  /// Solve options applied by every shard's session (numeric backend,
  /// forced engines, fallback limits, Monte Carlo budget/seed); SolveRequest
  /// overrides are applied per request on top.
  SolveOptions solve;
  /// Capacity of the shared cross-instance context LRU.
  ContextLruOptions context_cache;
  ExecutorOptions executor;
};

class ShardedServer {
 public:
  explicit ShardedServer(std::vector<ProbGraph> shards,
                         ShardedServerOptions options = {});

  size_t num_shards() const { return sessions_.size(); }
  /// PHOM_CHECKs the index: these are operator introspection APIs — an
  /// out-of-range shard here is a caller bug, unlike the request paths
  /// below, which validate untrusted indices and answer Invalid.
  const EvalSession& session(size_t shard) const {
    PHOM_CHECK_MSG(shard < sessions_.size(), "shard index out of range");
    return *sessions_[shard];
  }
  const ShardedServerOptions& options() const { return options_; }

  // -------------------------------------------------------------------------
  // Asynchronous front door.
  // -------------------------------------------------------------------------

  /// Submits one request, routed by request.shard, and returns its ticket
  /// immediately. Rejections (out-of-range shard, null query) come back as
  /// already-completed tickets with Invalid — per request, the batch around
  /// them is undisturbed. Deadline/cancellation semantics: executor.h.
  SolveTicket Submit(SolveRequest request, CompletionCallback callback = nullptr);

  /// Submits a batch in order; tickets align with `requests`.
  std::vector<SolveTicket> SubmitBatch(std::vector<SolveRequest> requests);

  /// Waits for the tickets and moves their results out, in order; the
  /// calling thread helps drain the pool's queue while it waits.
  std::vector<Result<SolveResult>> Collect(std::vector<SolveTicket>& tickets);

  // -------------------------------------------------------------------------
  // Synchronous wrappers (submit + wait over the async path).
  // -------------------------------------------------------------------------

  /// One query against one shard (Invalid when the shard index is out of
  /// range). Equivalent to Submit + Collect on a borrowed query.
  Result<SolveResult> Solve(size_t shard, const DiGraph& query);

  /// A batch against one shard, fanned over the thread pool.
  std::vector<Result<SolveResult>> SolveBatch(
      size_t shard, const std::vector<DiGraph>& queries);

  /// Counters of the shared cross-instance context cache.
  ContextLruStats context_cache_stats() const { return cache_->stats(); }
  SessionStats session_stats(size_t shard) const {
    return session(shard).stats();
  }
  /// Admission/scheduling counters of the shared executor (submitted, exact
  /// solves started, proactive/reactive degradations, steals).
  ExecutorStats executor_stats() const { return executor_.stats(); }

 private:
  ShardedServerOptions options_;
  std::shared_ptr<ContextLru> cache_;
  /// unique_ptr so sessions (which hold a mutex) never move.
  std::vector<std::unique_ptr<EvalSession>> sessions_;
  /// Last member: destroyed first, draining outstanding tickets while the
  /// sessions above are still alive.
  BatchExecutor executor_;
};

}  // namespace phom::serve
