#include "src/serve/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace phom::serve {

namespace {

/// Placeholder status for result slots that have not been written yet; every
/// slot is overwritten exactly once before its request completes, so callers
/// never observe it.
Result<SolveResult> PendingResult() {
  return Status::Invalid("serve: result slot not yet computed");
}

size_t ResolveThreads(const ExecutorOptions& options) {
  size_t n = options.threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return n;
}

}  // namespace

size_t IntervalWidthBucket(double width) {
  if (!(width >= 0.0)) {
    // NaN, or negative from an inverted hi < lo "enclosure": a kernel bug,
    // not a point answer. The old `!(width > 0.0) → bucket 0` filing hid
    // these among the point enclosures; account for them loudly instead.
    assert(!"IntervalWidthBucket: NaN or negative enclosure width");
    return kIntervalWidthInvalid;
  }
  if (width == 0.0) return 0;  // point enclosures
  int exponent = 0;
  std::frexp(width, &exponent);
  // width = m · 2^exponent with m in [0.5, 1): exponent 0 means widths in
  // [0.5, 1), which lands in bucket 64; everything 2^-63 and below clamps
  // into bucket 1, widths >= 1 into bucket 65.
  return static_cast<size_t>(std::clamp(exponent + 64, 1, 65));
}

BatchExecutor::BatchExecutor(ExecutorOptions options)
    : options_(std::move(options)),
      injection_(options_.queue_capacity) {
  const size_t n = ResolveThreads(options_);
  worker_state_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    worker_state_.push_back(std::make_unique<Worker>(
        options_.steal_deque_capacity,
        options_.steal_seed ^ static_cast<uint64_t>(i)));
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

BatchExecutor::~BatchExecutor() {
  // Drain (checked replacement for the old "destruction with calls in
  // flight is UB"): run queued tasks on this thread and wait out workers'
  // in-flight ones, so every outstanding ticket completes — and no task can
  // touch the dying pool — before the workers are stopped. The shared pop
  // takes the EDF heap and sweeps every worker's deque, so a parked worker
  // cannot strand queued tasks.
  Task task;
  while (!AllRequestsFinished()) {
    if (TryPopTaskShared(&task)) {
      RunTask(task);
      task.request.reset();
      continue;
    }
    std::unique_lock<std::mutex> lock(finish_mu_);
    finish_cv_.wait_for(lock, std::chrono::milliseconds(50),
                        [this] { return outstanding_ == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool BatchExecutor::AllRequestsFinished() {
  std::lock_guard<std::mutex> lock(finish_mu_);
  return outstanding_ == 0;
}

void BatchExecutor::NotifyOne() {
  // Acquiring the lock first orders the preceding push before any worker's
  // re-check-then-wait, so the wakeup cannot be missed.
  { std::lock_guard<std::mutex> lock(work_mu_); }
  work_cv_.notify_one();
}

void BatchExecutor::NotifyAll() {
  { std::lock_guard<std::mutex> lock(work_mu_); }
  work_cv_.notify_all();
}

void BatchExecutor::EnqueueTask(Task task) {
  if (task.request->has_effective_deadline) {
    std::optional<Task> displaced;
    {
      std::lock_guard<std::mutex> lock(edf_mu_);
      edf_heap_.push(DeadlineEntry{task.request->effective_deadline,
                                   edf_seq_++, std::move(task)});
      if (edf_heap_.size() > injection_.capacity()) {
        // Overflow: displace and run the EARLIEST entry inline — which may
        // or may not be the incoming task. (Running the INCOMING task
        // inline, as the pre-rebuild code did, silently bypassed slack
        // ordering whenever the newcomer's deadline was not the earliest.)
        displaced =
            std::move(const_cast<DeadlineEntry&>(edf_heap_.top()).task);
        edf_heap_.pop();
      }
      edf_size_.store(edf_heap_.size(), std::memory_order_relaxed);
    }
    NotifyOne();
    if (displaced.has_value()) {
      edf_displaced_.fetch_add(1, std::memory_order_relaxed);
      RunTask(*displaced);
    }
    return;
  }
  if (injection_.TryPush(task)) {
    NotifyOne();
    return;
  }
  // Full queue: run inline. Bounds memory without unbounded blocking, and
  // the result is identical because tasks are location-independent.
  inline_runs_.fetch_add(1, std::memory_order_relaxed);
  RunTask(task);
}

bool BatchExecutor::PopEdf(Task* out) {
  // Lock-free emptiness probe first: with no deadline work queued, idle
  // workers and helpers never touch edf_mu_.
  if (edf_size_.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(edf_mu_);
  if (edf_heap_.empty()) return false;
  // priority_queue::top is const; moving the task out is safe because the
  // entry is popped before the lock is released.
  *out = std::move(const_cast<DeadlineEntry&>(edf_heap_.top()).task);
  edf_heap_.pop();
  edf_size_.store(edf_heap_.size(), std::memory_order_relaxed);
  return true;
}

bool BatchExecutor::TryPopTaskWorker(size_t self, Task* out) {
  Worker& me = *worker_state_[self];
  std::unique_ptr<Task> node;
  // Own deque first: finish the request you fanned out before taking new
  // roots — a later-arriving deadline root must not interleave into an
  // already-running request's component order.
  if (me.deque.PopBottom(&node)) {
    *out = std::move(*node);
    return true;
  }
  if (PopEdf(out)) return true;
  if (injection_.TryPop(out)) return true;
  const size_t n = worker_state_.size();
  if (n <= 1) return false;
  // Steal the top (the victim's OLDEST task) of a randomized victim's deque.
  // The random start decorrelates thieves; the full rotation guarantees any
  // available task is found.
  const size_t start = static_cast<size_t>(me.rng());
  for (size_t k = 0; k < n; ++k) {
    const size_t v = (start + k) % n;
    if (v == self) continue;
    if (worker_state_[v]->deque.TrySteal(&node)) {
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      *out = std::move(*node);
      return true;
    }
  }
  return false;
}

bool BatchExecutor::TryPopTaskShared(Task* out) {
  // Helper order (collect-helping, destructor): deadline work first (the
  // historical helper order: heap, then FIFO), then the shared queue, then
  // a sweep of the worker deques so a parked worker cannot strand tasks.
  // The rotating start spreads concurrent helpers across workers.
  if (PopEdf(out)) return true;
  if (injection_.TryPop(out)) return true;
  const size_t n = worker_state_.size();
  const size_t start = static_cast<size_t>(
      shared_sweep_.fetch_add(1, std::memory_order_relaxed));
  std::unique_ptr<Task> node;
  for (size_t k = 0; k < n; ++k) {
    if (worker_state_[(start + k) % n]->deque.TrySteal(&node)) {
      *out = std::move(*node);
      return true;
    }
  }
  return false;
}

void BatchExecutor::Finish(
    const std::shared_ptr<internal::RequestState>& request,
    Result<SolveResult> result) {
  internal::RequestState& req = *request;
  CompletionCallback callback;
  {
    std::lock_guard<std::mutex> lock(req.mu);
    req.stats.finished = RequestClock::now();
    req.stats.degraded = result.ok() && result->degrade.degraded;
    req.stats.escalated = result.ok() && result->escalate.escalated;
    if (result.ok()) {
      // Provenance settles with the result: which error guarantee this
      // answer carries (exact / certified enclosure / statistical bound).
      req.stats.guarantee = GuaranteeOf(*result);
      guarantee_counts_[static_cast<size_t>(req.stats.guarantee)].fetch_add(
          1, std::memory_order_relaxed);
      if (result->numeric == NumericBackend::kIntervalDouble &&
          result->bound.certified) {
        // Enclosure-width observability: log2-bucket how tight the interval
        // backend's published CERTIFIED answer actually was (ExecutorStats).
        // The certified gate keeps degraded Monte Carlo estimates — a
        // statistical bracket, not an enclosure — out of the histogram;
        // they used to slip in here through the degrade path and break the
        // sum(buckets) == certified-interval-results invariant. Escalated
        // results are exact-backend by the time they reach Finish; their
        // pre-escalation width was recorded in MaybeEscalate.
        interval_width_hist_[IntervalWidthBucket(result->bound.hi -
                                                 result->bound.lo)]
            .fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!req.started_recorded) {
      // The request never ran a task (rejected / expired / cancelled at or
      // before dequeue): it spent its whole life in the queue.
      req.started_recorded = true;
      req.stats.started = req.stats.finished;
    }
    if (!result.ok() && !req.work_started.load(std::memory_order_relaxed)) {
      if (result.status().code() == Status::Code::kDeadlineExceeded) {
        req.stats.expired_before_start = true;
      } else if (result.status().code() == Status::Code::kCancelled) {
        req.stats.cancelled_before_start = true;
      }
    }
    req.result = std::move(result);
    callback = std::move(req.callback);
    req.callback = nullptr;
  }
  if (callback) {
    // Fires before waiters are released (async.h contract), so Take cannot
    // race the callback's view of the result. Must not throw.
    try {
      callback(req.result, req.stats);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  {
    std::lock_guard<std::mutex> lock(req.mu);
    req.done = true;
  }
  req.cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(finish_mu_);
    --outstanding_;
  }
  finish_cv_.notify_all();
}

void BatchExecutor::FinishOrDegrade(
    const std::shared_ptr<internal::RequestState>& request,
    Result<SolveResult> result) {
  internal::RequestState& req = *request;
  if (!result.ok()) {
    // Deadline miss → budgeted Monte Carlo estimate, right here on the
    // thread that detected the miss (submission order and neighbors are
    // unaffected; the sampling floor bounds the overrun). Cancellation is
    // NOT converted. RunTask recorded `started` before any call site here.
    try {
      if (DegradeOnDeadlineMiss(req.prepared, req.options, &result)) {
        degraded_reactive_.fetch_add(1, std::memory_order_relaxed);
        req.work_started.store(true, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      result =
          Status::Invalid(std::string("serve: degrade exception: ") + e.what());
    }
  }
  MaybeEscalate(req, &result);
  Finish(request, std::move(result));
}

void BatchExecutor::MaybeEscalate(internal::RequestState& req,
                                  Result<SolveResult>* result) {
  if (!result->ok()) return;
  const SolveResult& interval = result->ValueOrDie();
  // Only a successful CERTIFIED interval answer can be "too wide": degraded
  // estimates carry a statistical bracket (re-solving them exactly is what
  // the deadline already ruled out), and exact/double answers have no
  // enclosure. NaN widths (an invalid enclosure) escalate too — better an
  // exact re-run than publishing a broken interval (ShouldEscalateWidth).
  if (interval.numeric != NumericBackend::kIntervalDouble ||
      !interval.bound.certified || interval.degrade.degraded) {
    return;
  }
  const double width = interval.bound.hi - interval.bound.lo;
  if (!ShouldEscalateWidth(width, interval.bound.hi, req.options.escalate)) {
    return;
  }
  escalated_attempted_.fetch_add(1, std::memory_order_relaxed);
  // Budget gates, both sides recorded in ExecutorStats: an already-lapsed
  // deadline (or explicit cancel) keeps the certified interval answer — it
  // is still sound, just wide — and so does a cost-model prediction that
  // the exact re-run cannot fit what remains of the deadline.
  if (!req.cancel.Check().ok()) {
    escalated_budget_denied_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SolveOptions opts = req.options;
  opts.numeric = NumericBackend::kExact;
  opts.escalate = EscalationPolicy{};  // the re-run must not re-trigger
  if (options_.cost_model != nullptr && req.cancel.has_deadline()) {
    const std::shared_ptr<const CostModelSnapshot> snapshot =
        options_.cost_model->Snapshot();
    const CostPrediction rerun =
        snapshot->PredictSolveCost(req.prepared, req.dispatch, opts);
    if (RequestClock::now() + rerun.expected > req.cancel.deadline()) {
      escalated_budget_denied_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const RequestClock::time_point t0 = RequestClock::now();
  Result<SolveResult> exact = PendingResult();
  try {
    // Same prepared problem, exact backend, right here on the completing
    // thread (mirrors FinishOrDegrade's conversion: neighbors unaffected).
    // The request's CancelToken still gates the re-run's yield points, so a
    // deadline lapse mid-re-run aborts it and the interval answer stands.
    exact = SolvePrepared(req.prepared, opts);
  } catch (const std::exception& e) {
    exact =
        Status::Invalid(std::string("serve: escalate exception: ") + e.what());
  }
  const std::chrono::nanoseconds spent = RequestClock::now() - t0;
  if (!exact.ok()) return;  // keep the certified interval answer
  if (options_.cost_model != nullptr) {
    // The model learns what exact re-runs cost on these cells, which is
    // exactly what DecideAdmission's escalation pricing charges for.
    options_.cost_model->RecordSolve(req.prepared, exact.ValueOrDie());
  }
  // The escaped interval is still a completed certified interval result:
  // record its width here, since Finish will only see the exact replacement
  // (exactly-once histogram accounting — executor.h).
  interval_width_hist_[IntervalWidthBucket(width)].fetch_add(
      1, std::memory_order_relaxed);
  SolveResult& replacement = exact.ValueOrDie();
  replacement.escalate.escalated = true;
  replacement.escalate.width_before = width;
  replacement.escalate.budget_spent = spent;
  *result = std::move(exact);
  escalated_succeeded_.fetch_add(1, std::memory_order_relaxed);
}

void BatchExecutor::FanOut(const Task& root, size_t self) {
  internal::RequestState& req = *root.request;
  const size_t n = req.dispatch.components;
  if (self != kNoWorker) {
    Worker& me = *worker_state_[self];
    bool queued = false;
    // Push components n-1 .. 1: the owner's LIFO pop then runs them in
    // INDEX order after component 0 (run directly below) — exactly the
    // historical FIFO order at one thread, so cost-model observation order
    // is unchanged. Thieves take the deque top, i.e. the HIGHEST index.
    for (size_t c = n; c-- > 1;) {
      auto node = std::make_unique<Task>(
          Task{root.request, static_cast<int32_t>(c)});
      if (me.deque.PushBottom(node)) {
        queued = true;
        continue;
      }
      Task overflow = std::move(*node);
      if (injection_.TryPush(overflow)) {
        queued = true;
        continue;
      }
      inline_runs_.fetch_add(1, std::memory_order_relaxed);
      RunTask(overflow, self);
    }
    if (queued) NotifyAll();  // idle workers wake to steal
    // Run component 0 immediately: saves a push/pop pair, and the request's
    // work provably starts at fan-out even if every pushed task is stolen.
    RunTask(Task{root.request, 0}, self);
    if (options_.test_after_fanout) options_.test_after_fanout(self);
    return;
  }
  // Helper thread: the shared injection lane, in index order.
  for (size_t c = 0; c < n; ++c) {
    Task task{root.request, static_cast<int32_t>(c)};
    if (injection_.TryPush(task)) {
      NotifyOne();
      continue;
    }
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    RunTask(task, self);
  }
}

void BatchExecutor::RunTask(const Task& task, size_t self) {
  internal::RequestState& req = *task.request;
  {
    std::lock_guard<std::mutex> lock(req.mu);
    if (!req.started_recorded) {
      req.started_recorded = true;
      req.stats.started = RequestClock::now();
    }
  }
  // Proactive degradation: admission already decided the exact attempt
  // cannot fit, so this task runs the budgeted estimator directly. Only an
  // EXPLICIT cancel aborts it — an expired deadline is exactly what the
  // estimate is for (the sampling floor bounds the overrun), so the dequeue
  // gate's DeadlineExceeded must not kill it.
  if (task.component < 0 && req.proactive) {
    if (req.cancel.cancelled()) {
      Finish(task.request, Status::Cancelled("solve cancelled by caller"));
      return;
    }
    req.work_started.store(true, std::memory_order_relaxed);
    Result<SolveResult> result = PendingResult();
    try {
      result = SolveDegradedMonteCarlo(req.prepared, req.options);
      if (result.ok() && result->degrade.degraded) {
        result.ValueOrDie().degrade.proactive = true;
      }
    } catch (const std::exception& e) {
      result =
          Status::Invalid(std::string("serve: degrade exception: ") + e.what());
    }
    Finish(task.request, std::move(result));
    return;
  }
  // Deadline / cancellation gate at dequeue: a request that expired (or was
  // cancelled) while queued fails right here, without solving — later
  // requests behind it in the queue are served normally.
  const Status gate = req.cancel.Check();
  // PHOM_CHECK failures are bugs and throw std::logic_error; on a worker
  // thread that would terminate the process, so surface them as an errored
  // result instead (serial solving would have thrown to the caller).
  if (task.component < 0) {
    if (req.dispatch.components > 0) {
      // Fan-out root of a componentwise request: spawn the component tasks
      // at this thread (deque locality — see FanOut). A root that expired
      // or was cancelled in the queue fails here without spawning anything.
      if (!gate.ok()) {
        FinishOrDegrade(task.request, gate);
        return;
      }
      FanOut(task, self);
      return;
    }
    if (!gate.ok()) {
      FinishOrDegrade(task.request, gate);
      return;
    }
    req.work_started.store(true, std::memory_order_relaxed);
    MarkExactStarted(req);
    Result<SolveResult> result = PendingResult();
    try {
      result = SolvePrepared(req.prepared, req.options);
    } catch (const std::exception& e) {
      result =
          Status::Invalid(std::string("serve: worker exception: ") + e.what());
    }
    if (options_.cost_model != nullptr && result.ok()) {
      options_.cost_model->RecordSolve(req.prepared, *result);
    }
    FinishOrDegrade(task.request, std::move(result));
    return;
  }
  const size_t c = static_cast<size_t>(task.component);
  if (!gate.ok()) {
    // The skipped component reports the interruption; the index-ordered
    // merge below turns the first such slot into the request's status.
    req.parts[c] = gate;
  } else {
    req.work_started.store(true, std::memory_order_relaxed);
    MarkExactStarted(req);
    try {
      req.parts[c] = SolvePreparedComponent(req.prepared, req.dispatch, c,
                                            req.options);
    } catch (const std::exception& e) {
      req.parts[c] =
          Status::Invalid(std::string("serve: worker exception: ") + e.what());
    }
    if (options_.cost_model != nullptr && req.parts[c].ok()) {
      options_.cost_model->RecordComponentSolve(req.prepared, req.dispatch, c,
                                                *req.parts[c]);
    }
  }
  // acq_rel: the last finisher must observe every other task's part write.
  if (req.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Result<SolveResult> merged = PendingResult();
    try {
      merged = CombinePreparedComponents(req.prepared, req.dispatch,
                                         req.options, std::move(req.parts));
    } catch (const std::exception& e) {
      merged =
          Status::Invalid(std::string("serve: merge exception: ") + e.what());
    }
    FinishOrDegrade(task.request, std::move(merged));
  }
}

void BatchExecutor::WorkerLoop(size_t index) {
  for (;;) {
    Task task;
    if (TryPopTaskWorker(index, &task)) {
      RunTask(task, index);
      task.request.reset();
      continue;
    }
    std::unique_lock<std::mutex> lock(work_mu_);
    if (stop_) return;
    // re-check under the lock: no missed wakeup
    if (TryPopTaskWorker(index, &task)) {
      lock.unlock();
      RunTask(task, index);
      task.request.reset();
      continue;
    }
    work_cv_.wait(lock);
  }
}

void BatchExecutor::MarkExactStarted(internal::RequestState& req) {
  if (!req.exact_started.exchange(true, std::memory_order_relaxed)) {
    exact_started_.fetch_add(1, std::memory_order_relaxed);
  }
}

ExecutorStats BatchExecutor::stats() const {
  ExecutorStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.exact_solves_started = exact_started_.load(std::memory_order_relaxed);
  s.degraded_proactive = degraded_proactive_.load(std::memory_order_relaxed);
  s.degraded_reactive = degraded_reactive_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.inline_runs = inline_runs_.load(std::memory_order_relaxed);
  s.edf_displaced_runs = edf_displaced_.load(std::memory_order_relaxed);
  s.escalated_attempted =
      escalated_attempted_.load(std::memory_order_relaxed);
  s.escalated_succeeded =
      escalated_succeeded_.load(std::memory_order_relaxed);
  s.escalated_budget_denied =
      escalated_budget_denied_.load(std::memory_order_relaxed);
  s.results_exact = guarantee_counts_[static_cast<size_t>(
      Guarantee::kExact)].load(std::memory_order_relaxed);
  s.results_interval = guarantee_counts_[static_cast<size_t>(
      Guarantee::kIntervalEnclosure)].load(std::memory_order_relaxed);
  s.results_empirical = guarantee_counts_[static_cast<size_t>(
      Guarantee::kEmpiricalDouble)].load(std::memory_order_relaxed);
  s.results_absolute95 = guarantee_counts_[static_cast<size_t>(
      Guarantee::kAbsolute95)].load(std::memory_order_relaxed);
  s.results_relative95 = guarantee_counts_[static_cast<size_t>(
      Guarantee::kRelative95)].load(std::memory_order_relaxed);
  for (size_t b = 0; b < interval_width_hist_.size(); ++b) {
    s.interval_width_hist[b] =
        interval_width_hist_[b].load(std::memory_order_relaxed);
  }
  return s;
}

SolveTicket BatchExecutor::Submit(EvalSession& session, SolveRequest request,
                                  CompletionCallback callback) {
  auto state = std::make_shared<internal::RequestState>();
  state->stats.enqueued = RequestClock::now();
  state->query = std::move(request.query);
  state->ucq = std::move(request.ucq);
  state->callback = std::move(callback);
  // A relative budget resolves against the SUBMIT time, here — not against
  // the time the request object was built (request.h): batch-building time
  // between WithBudget and Submit no longer eats the budget. An explicit
  // absolute deadline combines by taking the earlier effective deadline.
  if (request.budget.has_value()) {
    const RequestClock::time_point from_budget =
        state->stats.enqueued + *request.budget;
    if (!request.deadline.has_value() || from_budget < *request.deadline) {
      request.deadline = from_budget;
    }
  }
  if (request.deadline.has_value()) {
    state->cancel.SetDeadline(*request.deadline);
  }
  state->options = ApplyOverrides(session.options(), request.overrides);
  state->options.cancel = &state->cancel;  // state is heap-pinned
  {
    std::lock_guard<std::mutex> lock(finish_mu_);
    ++outstanding_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  SolveTicket ticket(state);
  if (state->query == nullptr && state->ucq == nullptr) {
    Finish(state, Status::Invalid("serve: null query in request"));
    return ticket;
  }
  if (state->query != nullptr && state->ucq != nullptr) {
    Finish(state, Status::Invalid(
                      "serve: request carries both a query and a ucq — set "
                      "exactly one"));
    return ticket;
  }
  // Fail fast on an already-lapsed deadline: nothing is prepared and the
  // session is never touched (its stats see no query). Exception: with the
  // degrade policy on, an expired deadline is exactly what the policy
  // converts — prepare and enqueue normally so a worker (whose dequeue gate
  // will fail) produces the budgeted estimate instead of the error.
  const Status gate = state->cancel.Check();
  if (!gate.ok() && !ShouldDegradeStatus(gate, state->options.degrade)) {
    Finish(state, gate);
    return ticket;
  }
  try {
    // Preparation runs on the submitting thread: it is the cheap, cached
    // half of a solve, and doing it here fixes the context-cache population
    // order so session stats match serial execution. Measured (traced
    // perfbench, 4-core x86-64, Release): a context-cache hit prepares in
    // ~2 us p50; a miss adds the one-pass context build, ~42 us p50 on
    // tenants-double's 63-edge tenants. A UCQ request prepares
    // through the lifted front door; its fan-out (below) is over the safe
    // plan's units instead of instance components.
    state->prepared = state->ucq != nullptr ? session.PrepareUcq(*state->ucq)
                                            : session.Prepare(*state->query);
    if (options_.split_components) {
      // One registry scan per query; every component task reuses the plan.
      state->dispatch = PlanComponentDispatch(state->prepared, state->options);
    }
    if (options_.cost_model != nullptr) {
      // Predictive admission against an immutable snapshot taken NOW
      // (snapshot-at-submit: the decision is a pure function of the
      // snapshot, deterministic at every thread count — cost_model.h).
      const std::shared_ptr<const CostModelSnapshot> snapshot =
          options_.cost_model->Snapshot();
      std::optional<std::chrono::nanoseconds> remaining;
      if (request.deadline.has_value()) {
        remaining = *request.deadline - state->stats.enqueued;
      }
      const AdmissionDecision decision =
          DecideAdmission(*snapshot, state->prepared, state->dispatch,
                          state->options, remaining);
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->stats.predicted_cost = decision.predicted.expected;
      }
      if (request.deadline.has_value()) {
        state->has_effective_deadline = true;
        state->effective_deadline =
            *request.deadline - decision.predicted.expected;
      }
      if (decision.action == AdmissionAction::kDegradeProactively) {
        // Skip the doomed exact attempt entirely: one task, which runs the
        // budgeted estimator directly (provenance DegradeInfo::proactive).
        state->proactive = true;
        degraded_proactive_.fetch_add(1, std::memory_order_relaxed);
        EnqueueTask(Task{state, -1});
        return ticket;
      }
    } else if (request.deadline.has_value()) {
      // No model: the effective deadline is the deadline itself (plain EDF).
      state->has_effective_deadline = true;
      state->effective_deadline = *request.deadline;
    }
    // One task regardless of the dispatch shape: a componentwise request
    // enqueues its FAN-OUT ROOT (component = -1 with dispatch.components
    // set), and whichever thread dequeues the root spawns the component
    // tasks right there (FanOut) — a worker onto its own deque. The result
    // slots and the completion count are preassigned HERE so the merge
    // logic never depends on where the fan-out happened.
    const size_t parallelism = state->dispatch.components;
    if (parallelism > 0) {
      state->parts.assign(parallelism, PendingResult());
      state->remaining.store(parallelism, std::memory_order_relaxed);
    }
    EnqueueTask(Task{state, -1});
  } catch (const std::exception& e) {
    // Reachable only before this request's first EnqueueTask (enqueueing
    // never throws — the payload is a shared_ptr — and RunTask catches its
    // own exceptions), so no task exists yet and finishing here cannot
    // double-complete the request.
    Finish(state,
           Status::Invalid(std::string("serve: submit exception: ") + e.what()));
  }
  return ticket;
}

std::vector<SolveTicket> BatchExecutor::SubmitBatch(
    EvalSession& session, std::vector<SolveRequest> requests) {
  std::vector<SolveTicket> tickets;
  tickets.reserve(requests.size());
  for (SolveRequest& request : requests) {
    tickets.push_back(Submit(session, std::move(request)));
  }
  return tickets;
}

std::vector<Result<SolveResult>> BatchExecutor::Collect(
    std::vector<SolveTicket>& tickets) {
  std::vector<Result<SolveResult>> out;
  out.reserve(tickets.size());
  for (SolveTicket& ticket : tickets) {
    out.push_back(ticket.valid()
                      ? ticket.Take()
                      : Result<SolveResult>(
                            Status::Invalid("serve: empty ticket")));
  }
  return out;
}

std::vector<Result<SolveResult>> BatchExecutor::CollectHelping(
    std::vector<SolveTicket>& tickets) {
  // Help drain the pool while waiting (essential when threads are scarce
  // or busy with other batches), then collect in order.
  Task task;
  for (SolveTicket& ticket : tickets) {
    while (ticket.valid() && !ticket.done()) {
      if (TryPopTaskShared(&task)) {
        RunTask(task);
        task.request.reset();
        continue;
      }
      // Bounded wait (not Wait): the ticket's last task may be held by a
      // worker while new helpable tasks arrive behind our empty-queue read.
      ticket.WaitFor(std::chrono::milliseconds(50));
    }
  }
  return Collect(tickets);
}

std::vector<Result<SolveResult>> BatchExecutor::SolveBatch(
    EvalSession& session, const std::vector<DiGraph>& queries) {
  std::vector<SolveTicket> tickets;
  tickets.reserve(queries.size());
  for (const DiGraph& query : queries) {
    // Borrowed, not owned: this wrapper blocks until every ticket is done,
    // so the caller's graphs outlive all tasks.
    tickets.push_back(Submit(session, SolveRequest::BorrowQuery(query)));
  }
  return CollectHelping(tickets);
}

}  // namespace phom::serve
