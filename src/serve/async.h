#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/eval_session.h"
#include "src/serve/request.h"

/// \file async.h
/// Futures for the serving layer: BatchExecutor::Submit (executor.h) accepts
/// a SolveRequest (request.h) and returns a SolveTicket — a shared handle on
/// the request's eventual Result<SolveResult>, its RequestStats timeline,
/// and its CancelToken. Submission returns immediately; the submitter no
/// longer helps drain (the synchronous Solve*/wrappers still do, via the
/// executor's collect-helping path). Completion can additionally be observed
/// through a CompletionCallback.

namespace phom::serve {

class BatchExecutor;

/// Invoked exactly once when the request completes, on the thread that
/// completed it (a pool worker, or the submitting/collecting thread for
/// inline runs). Constraints: it must not throw (throws are swallowed to
/// protect the pool), should be cheap (it runs on the serving hot path), and
/// must not call blocking methods of the SAME ticket (Wait/Get/Take) — the
/// callback fires before waiters are released. The references are valid only
/// for the duration of the call.
using CompletionCallback =
    std::function<void(const Result<SolveResult>&, const RequestStats&)>;

namespace internal {

/// Shared state behind one submitted request: the ticket, every queued task
/// and the completion path all hold the same heap block (shared_ptr), which
/// is what makes asynchronous submission dangle-free — the state outlives
/// whichever side finishes last. Fields are grouped by writer; see the
/// comments for the synchronization story.
struct RequestState {
  // --- Immutable after submission (published to workers by the task
  // queue's release/acquire handoff). ---
  std::shared_ptr<const DiGraph> query;
  /// The union payload of a UCQ request (request.h); null for single-CQ
  /// requests. Tasks still need only `prepared` — its PreparedUcq handle
  /// owns the normalized union and every unit's preparation.
  std::shared_ptr<const Ucq> ucq;
  /// Session options + request overrides; options.cancel points at `cancel`
  /// below (the state is heap-pinned, so the pointer stays valid). The
  /// session itself is not retained: after Submit's preparation, tasks need
  /// only `prepared` (whose context the session's cache keeps alive).
  SolveOptions options;
  CancelToken cancel;
  PreparedProblem prepared{DiGraph(0), nullptr, std::nullopt, {}};
  /// Engine resolved ONCE at submit (PlanComponentDispatch, solver.h);
  /// component tasks reuse it instead of re-scanning the registry under its
  /// shared_mutex. Empty (components == 0) for whole-request tasks.
  ComponentDispatch dispatch;

  // --- Admission & scheduling (written once at submit, before any task is
  // enqueued; published to workers by the task handoff like the fields
  // above). ---
  /// Admission skipped the exact attempt: the request's single task runs
  /// the budgeted Monte Carlo estimator directly and the result carries
  /// DegradeInfo::proactive provenance (cost_model.h).
  bool proactive = false;
  /// The request dispatches through the slack-ordered lane under
  /// `effective_deadline` = deadline − predicted cost (just the deadline
  /// when no cost model is installed). False for deadline-less requests,
  /// which keep FIFO order among themselves.
  bool has_effective_deadline = false;
  RequestClock::time_point effective_deadline{};

  // --- Component fan-out (same discipline as PR 3's BatchState: each part
  // slot is written by exactly one task; the last finisher's acq_rel
  // fetch_sub orders every part write before the merge). ---
  std::vector<Result<SolveResult>> parts;
  std::atomic<size_t> remaining{0};
  /// Set (relaxed) just before the first real solving work; distinguishes
  /// "expired/cancelled before start" from a mid-flight interruption.
  std::atomic<bool> work_started{false};
  /// Set (relaxed exchange) when the request's first EXACT solving work
  /// begins; feeds ExecutorStats::exact_solves_started. Proactively degraded
  /// and gate-rejected requests never set it — the acceptance criterion for
  /// "the exact solve was skipped".
  std::atomic<bool> exact_started{false};

  // --- Completion (guarded by mu). ---
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool started_recorded = false;
  Result<SolveResult> result;
  RequestStats stats;
  /// Consumed (moved out) by the completion path; invoked outside mu.
  CompletionCallback callback;

  RequestState()
      : result(Status::Invalid("serve: result slot not yet computed")) {}
};

}  // namespace internal

/// A future on one submitted request. Cheap to copy (shared handle); all
/// methods are thread-safe. A default-constructed ticket is empty
/// (valid() == false) and must not be waited on.
class SolveTicket {
 public:
  SolveTicket() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const;

  /// Blocks until the request completes.
  void Wait() const;
  /// Bounded wait; true when the request completed within `timeout`.
  bool WaitFor(std::chrono::nanoseconds timeout) const;

  /// Waits, then returns a copy of the result (repeatable).
  Result<SolveResult> Get() const;
  /// Waits, then moves the result out. Call at most once; afterwards Get()
  /// observes the moved-from remains.
  Result<SolveResult> Take();

  /// Requests cooperative cancellation (CancelToken, util/status.h): the
  /// request aborts with Cancelled at its next yield point — at dequeue,
  /// between component subproblems, or (fine granularity) inside a hard
  /// cell's enumeration / sampling loop. Returns true when the request had
  /// not yet completed (delivery in time is still a race the solve may
  /// win). Cancellation is never converted by a DegradePolicy: a cancelled
  /// request answers Cancelled, not an estimate.
  bool Cancel();

  /// Snapshot of the request's timeline (request.h). Safe to call at any
  /// time; fields settle once done() is true.
  RequestStats stats() const;

  /// A ticket that is already complete — for requests rejected before
  /// submission (e.g. an out-of-range shard). `callback`, when given, is
  /// invoked inline before this returns.
  static SolveTicket Completed(Result<SolveResult> result,
                               const CompletionCallback& callback = nullptr);

 private:
  friend class BatchExecutor;
  explicit SolveTicket(std::shared_ptr<internal::RequestState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::RequestState> state_;
};

}  // namespace phom::serve
