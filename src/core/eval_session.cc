#include "src/core/eval_session.h"

#include <algorithm>

#include "src/lifted/lift.h"

namespace phom {

std::vector<LabelId> NormalizeLabelKey(std::vector<LabelId> labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

EvalSession::EvalSession(ProbGraph instance, SolveOptions options,
                         std::shared_ptr<InstanceContextCache> shared_cache)
    : instance_(std::move(instance)),
      options_(std::move(options)),
      shared_cache_(std::move(shared_cache)) {
  if (shared_cache_ != nullptr) fingerprint_ = instance_.Fingerprint();
}

std::shared_ptr<const InstanceContext> EvalSession::LookupContext(
    const std::vector<LabelId>& labels) {
  if (shared_cache_ != nullptr) {
    // GetOrBuild's contract includes normalization — don't do it twice.
    bool hit = false;
    std::shared_ptr<const InstanceContext> ctx =
        shared_cache_->GetOrBuild(instance_, fingerprint_, labels, &hit);
    std::lock_guard<std::mutex> lock(mu_);
    if (hit) {
      ++stats_.context_cache_hits;
    } else {
      ++stats_.instance_preparations;
    }
    return ctx;
  }
  // Normalize before any cache operation: hits and preparations are
  // accounted against the canonical key, so equivalent label multisets
  // share one entry (and one stats bucket) instead of missing the cache.
  std::vector<LabelId> key = NormalizeLabelKey(labels);
  std::shared_ptr<ContextSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = contexts_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<ContextSlot>();
      ++stats_.instance_preparations;
    } else {
      ++stats_.context_cache_hits;
    }
    slot = it->second;
  }
  // Build (or wait for the builder) outside the session-wide lock: a cold
  // build blocks only same-label-set queries — which reuse its result, so
  // each label set is still prepared exactly once under concurrency.
  std::lock_guard<std::mutex> slot_lock(slot->m);
  if (slot->context == nullptr) {
    slot->context = BuildInstanceContext(instance_, key);
  }
  return slot->context;
}

PreparedProblem EvalSession::Prepare(const DiGraph& query) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
  }
  return PrepareProblemWithProvider(
      query, instance_.num_vertices(),
      [this](const std::vector<LabelId>& labels) {
        return LookupContext(labels);
      });
}

PreparedProblem EvalSession::PrepareUcq(const Ucq& ucq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
  }
  return lifted::PrepareUcqWithProvider(
      ucq, instance_.num_vertices(),
      [this](const std::vector<LabelId>& labels) {
        return LookupContext(labels);
      });
}

namespace {

/// SolvePrepared, then the shared degrade path (solver.h).
Result<SolveResult> SolveOrDegrade(const PreparedProblem& prepared,
                                   const SolveOptions& options) {
  Result<SolveResult> result = SolvePrepared(prepared, options);
  DegradeOnDeadlineMiss(prepared, options, &result);
  return result;
}

}  // namespace

Result<SolveResult> EvalSession::Solve(const DiGraph& query) {
  return SolveOrDegrade(Prepare(query), options_);
}

Result<SolveResult> EvalSession::Solve(const DiGraph& query,
                                       const SolveOverrides& overrides) {
  return SolveOrDegrade(Prepare(query), ApplyOverrides(options_, overrides));
}

Result<SolveResult> EvalSession::SolveUcq(const Ucq& ucq) {
  return SolveOrDegrade(PrepareUcq(ucq), options_);
}

Result<SolveResult> EvalSession::SolveUcq(const Ucq& ucq,
                                          const SolveOverrides& overrides) {
  return SolveOrDegrade(PrepareUcq(ucq), ApplyOverrides(options_, overrides));
}

std::vector<Result<SolveResult>> EvalSession::SolveBatch(
    const std::vector<DiGraph>& queries) {
  std::vector<Result<SolveResult>> out;
  out.reserve(queries.size());
  for (const DiGraph& query : queries) out.push_back(Solve(query));
  return out;
}

SessionStats EvalSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace phom
