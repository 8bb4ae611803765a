#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/solver.h"

/// \file eval_session.h
/// Amortized evaluation sessions: a server holding one probabilistic
/// instance and answering many queries against it. One-shot Solver::Solve
/// re-derives the instance-side preparation (label marginalization,
/// component split, per-component classification) on every call — work that
/// dominates latency for small queries. EvalSession builds that preparation
/// once per distinct query label set, caches it as an immutable
/// InstanceContext, and shares it across the batch; the answers are
/// bit-identical to one-shot solving because both run the same
/// PrepareProblemWithProvider + SolvePrepared pipeline.
///
/// Thread safety: EvalSession is safe to call from many threads at once.
/// An internal mutex guards the context-cache index and the stats; both the
/// solving AND the context construction (the expensive parts) run outside
/// it — a cold build holds only its own entry's mutex, so it blocks
/// same-label-set queries (which reuse the one build: exactly-once) and
/// nothing else.

namespace phom {

struct SessionStats {
  size_t queries = 0;
  /// Distinct label-set preparations built (the amortized work).
  size_t instance_preparations = 0;
  /// Queries whose label set hit the context cache (the session's own map
  /// or the shared InstanceContextCache).
  size_t context_cache_hits = 0;
};

/// Pluggable cross-session cache of InstanceContexts, so several sessions
/// (e.g. the shards of a serve::ShardedServer) can share preparations for
/// identical (instance, label set) pairs. Implementations must be
/// thread-safe and must build via BuildInstanceContext on a miss.
/// `instance_fingerprint` is the caller's ProbGraph::Fingerprint(), passed
/// in so sessions hash their instance once, not per query. `*hit` reports
/// whether the context was already cached (by any session).
class InstanceContextCache {
 public:
  virtual ~InstanceContextCache() = default;
  virtual std::shared_ptr<const InstanceContext> GetOrBuild(
      const ProbGraph& instance, uint64_t instance_fingerprint,
      const std::vector<LabelId>& labels, bool* hit) = 0;
};

/// Canonical form of a query label set used as a context-cache key: sorted
/// with duplicates removed. Label MULTISETS that denote the same set (e.g.
/// {R, S, S} from a hand-built provider call vs {R, S}) restrict the
/// instance identically, so they must map to the same cache entry — keying
/// on the raw vector would miss the cache and double-build the context.
std::vector<LabelId> NormalizeLabelKey(std::vector<LabelId> labels);

class EvalSession {
 public:
  explicit EvalSession(ProbGraph instance, SolveOptions options = {})
      : EvalSession(std::move(instance), std::move(options), nullptr) {}

  /// A session whose context cache is shared with other sessions (see
  /// InstanceContextCache; pass nullptr for a private per-session cache).
  EvalSession(ProbGraph instance, SolveOptions options,
              std::shared_ptr<InstanceContextCache> shared_cache);

  /// Answers one query; equivalent to Solver(options).Solve(query, instance)
  /// bit for bit. Thread-safe. When the session options carry a CancelToken
  /// AND a DegradePolicy with mode kOnDeadlineRisk, a DeadlineExceeded solve
  /// becomes the budgeted Monte Carlo estimate through DegradeOnDeadlineMiss
  /// (solver.h), the degrade path the serve executor uses too. Every Solve
  /// and SolveUcq overload below does the same.
  Result<SolveResult> Solve(const DiGraph& query);

  /// Answers one query with per-request overrides applied on top of this
  /// session's options (the serial twin of the serve layer's per-request
  /// override path): equivalent to
  /// Solver(ApplyOverrides(options(), overrides)).Solve(query, instance)
  /// bit for bit, while still sharing this session's context cache.
  Result<SolveResult> Solve(const DiGraph& query,
                            const SolveOverrides& overrides);

  /// Answers a UCQ (union of conjunctive queries); equivalent to
  /// Solver(options).SolveUcq(ucq, instance) bit for bit, while sharing the
  /// session's context cache (the union's label-set context is keyed and
  /// reused like any single-CQ context). A one-disjunct union is answered
  /// bit-identically to Solve(disjunct). Thread-safe; degrades to whole-
  /// union Monte Carlo sampling under the same policy as Solve.
  Result<SolveResult> SolveUcq(const Ucq& ucq);

  /// SolveUcq with per-request overrides, mirroring the single-CQ overload.
  Result<SolveResult> SolveUcq(const Ucq& ucq, const SolveOverrides& overrides);

  /// Answers a batch in order (per-query failures stay per-query).
  std::vector<Result<SolveResult>> SolveBatch(
      const std::vector<DiGraph>& queries);

  /// The preparation half of Solve, with this session's context caching:
  /// Solve(q) == SolvePrepared(Prepare(q), options()). Exposed so the serve
  /// layer can prepare once and fan the component subproblems out over a
  /// thread pool (solver.h, serve/executor.h). Thread-safe.
  PreparedProblem Prepare(const DiGraph& query);

  /// The preparation half of SolveUcq, with this session's context caching:
  /// SolveUcq(u) == SolvePrepared(PrepareUcq(u), options()). Thread-safe.
  PreparedProblem PrepareUcq(const Ucq& ucq);

  const ProbGraph& instance() const { return instance_; }
  const SolveOptions& options() const { return options_; }
  /// Snapshot of the counters (copied under the session lock, so it is safe
  /// to call while other threads are solving).
  SessionStats stats() const;

 private:
  /// One context (or the right to build it): `m` serializes same-key
  /// builders/waiters without holding the session-wide lock.
  struct ContextSlot {
    std::mutex m;
    std::shared_ptr<const InstanceContext> context;  ///< guarded by m
  };

  std::shared_ptr<const InstanceContext> LookupContext(
      const std::vector<LabelId>& labels);

  ProbGraph instance_;
  SolveOptions options_;
  std::shared_ptr<InstanceContextCache> shared_cache_;
  uint64_t fingerprint_ = 0;  ///< instance_.Fingerprint(), set iff shared
  mutable std::mutex mu_;
  /// Normalized label key -> context slot (private cache, used only when no
  /// shared cache was given). Guarded by mu_.
  std::map<std::vector<LabelId>, std::shared_ptr<ContextSlot>> contexts_;
  SessionStats stats_;  ///< guarded by mu_
};

}  // namespace phom
