#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <random>
#include <thread>
#include <vector>

#include "src/core/eval_session.h"
#include "src/serve/async.h"
#include "src/serve/cost_model.h"
#include "src/serve/mpmc_queue.h"
#include "src/serve/request.h"
#include "src/serve/work_steal_deque.h"

/// \file executor.h
/// Parallel batch serving: a fixed-size thread pool that fans requests —
/// and, within a request, the independent parts (instance components or
/// UCQ plan units) of a componentwise dispatch (solver.h) — out over worker
/// threads.
///
/// SCHEDULING CORE (this is the work-stealing rebuild of the original
/// single-global-queue dispatch; see README "Scheduling internals"):
///   * Every worker owns a bounded Chase–Lev deque (work_steal_deque.h).
///     When a worker dequeues a componentwise request it fans components
///     1..n-1 out to its OWN deque, runs component 0 directly (one push/pop
///     pair saved; the request's work starts at fan-out even if every
///     queued task is stolen), and pops the rest LIFO — so at one thread
///     the execution order is exactly the historical 0,1,…,n-1. Idle
///     workers steal the OLDEST task from a randomized victim, so fan-out
///     parallelism costs no shared-queue contention.
///   * Deadline-less requests enter through one shared strict-FIFO
///     injection queue (the Vyukov MpmcQueue, mpmc_queue.h), so their roots
///     dispatch in arrival order. It is also the overflow lane for full
///     worker deques and the fan-out lane of non-worker threads.
///   * Deadline-carrying requests enter ONE executor-wide EDF heap under
///     one mutex (earliest effective deadline first; effective = deadline −
///     predicted cost, see PREDICTIVE ADMISSION below), so every worker and
///     helper pops the globally earliest deadline at every thread count.
///   * Worker pop order: own deque (finish the request you started — this
///     keeps a fanned-out request's completion ahead of later-arriving
///     deadline roots), the EDF heap, injection queue, then steal the top
///     of a randomized victim's deque. Non-worker helpers (the
///     collect-helping path and the draining destructor) pop the EDF heap,
///     then injection, then sweep every worker's deque, so progress never
///     depends on a parked worker.
///   * EDF heap overflow (past the queue_capacity bound) runs the
///     EARLIEST entry inline on the submitter after inserting the incoming
///     task (the pre-rebuild code ran the INCOMING task inline, silently
///     bypassing slack ordering — that bug is fixed;
///     ExecutorStats::edf_displaced_runs counts the event). The injection
///     queue keeps the historical policy: full ⇒ the submitted task itself
///     runs inline.
///
/// The front door is ASYNCHRONOUS: Submit accepts a SolveRequest
/// (request.h) and returns a SolveTicket (async.h) immediately — the
/// submitter does not help drain. Per-request deadlines are enforced at
/// four points: at submit (already expired → fail fast, nothing is
/// prepared), at dequeue (expired before start → DeadlineExceeded without
/// solving), between component subproblems, and INSIDE a single hard
/// component's world-enumeration / sampling loop (the CancelToken yield
/// points in solver.h/engines.cc/fallback.cc/monte_carlo.cc). Cooperative
/// cancellation uses the same token, via SolveTicket::Cancel. An expired or
/// cancelled request fails only itself: its neighbors' tasks and results
/// are untouched.
///
/// GRACEFUL DEGRADATION (DegradePolicy, solver.h): with mode
/// kOnDeadlineRisk — set on the session's base options or per request via
/// SolveRequest overrides — a request whose exact solve would answer
/// DeadlineExceeded is instead re-dispatched, on the thread that detected
/// the miss, to the budgeted Monte Carlo estimator with whatever time
/// budget remains (floor: policy.min_samples samples) — the same
/// DegradeOnDeadlineMiss (solver.h) that EvalSession's solves use. The
/// converted result is OK, carries SolveResult::degrade provenance
/// (estimate, half-width, samples_used, budget_spent) and marks
/// RequestStats::degraded.
/// At submit, an already-expired deadline then no longer fails fast: the
/// request is prepared and enqueued so a worker produces the estimate.
/// Explicit cancellation always answers Cancelled — with the policy on, a
/// ticket therefore resolves to exactly one of {exact result, degraded
/// estimate, Cancelled}.
///
/// PREDICTIVE ADMISSION & SLACK ORDERING (cost_model.h): install a
/// CostModel on ExecutorOptions::cost_model and Submit consults an
/// immutable model snapshot per request (snapshot-at-submit: decisions are
/// deterministic for a fixed snapshot):
///   * a deadline-carrying request whose predicted exact cost cannot fit
///     the remaining budget — even optimistically — is degraded
///     PROACTIVELY when its DegradePolicy allows: the exact attempt is
///     skipped entirely and the estimate carries DegradeInfo::proactive;
///   * deadline-carrying tasks dispatch earliest-effective-deadline-first
///     through the EDF heap described above; with no deadlines set the
///     heap stays empty and dispatch is the deque/injection path
///     (bit-identical results at every thread count).
/// Every completed exact solve is recorded back into the model, so
/// predictions sharpen as the pool serves.
///
/// The one synchronous wrapper, SolveBatch, is Submit + CollectHelping over
/// the same path; while waiting, the calling thread helps drain the pool —
/// which is why `threads = 1` makes progress even when the lone worker is
/// busy with another batch.
///
/// Determinism guarantee: for every thread count and steal schedule, every
/// request that COMPLETES (is neither expired nor cancelled) answers
/// BIT-IDENTICALLY to session.Solve run serially — probabilities (both
/// backends), stats, analyses and error statuses. This holds because
///   * every result is written to its own ticket (no completion-order
///     dependence),
///   * per-request part answers land in PREASSIGNED slots (parts[i]),
///     and whichever task finishes last merges them in part-index order;
///     the part solve (SolvePreparedComponent) and the merge
///     (CombinePreparedComponents) are the very functions the engine's
///     serial Solve runs — so WHERE a task ran (owner pop, steal,
///     injection, inline) can never reach the arithmetic,
///   * the Monte Carlo engine derives a fresh Rng stream from the
///     per-request seed inside each task (EstimateProbabilityMonteCarlo is
///     a pure function of (query, instance, seed)), so no thread shares
///     generator state with another.
/// Scheduling (steal order, victim choice) affects only WHEN tasks run,
/// which is observable in completion ORDER alone — and deadline-less
/// completion order was never part of the contract.
///
/// The pool is shared infrastructure: several threads may Submit / solve
/// concurrently. Destroying the executor DRAINS it: the destructor runs
/// queued tasks itself (the EDF heap, injection and every worker's deque)
/// and waits for workers' in-flight tasks, so every outstanding ticket
/// completes before the pool is torn down. Sessions named by outstanding
/// requests must outlive the destructor call, and no thread may Submit once
/// destruction has begun — join your submitting threads first.

namespace phom::serve {

struct ExecutorOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency() (at least 1).
  size_t threads = 0;
  /// Injection-queue capacity (rounded up to a power of two, minimum 2).
  /// When the queue is full, the submitter runs the task inline instead of
  /// blocking — the queue bounds memory, not correctness (Submit may
  /// therefore block on a saturated pool: natural backpressure). The EDF
  /// heap holds up to the same (rounded) number of entries before the
  /// displace-inline overflow policy fires.
  size_t queue_capacity = 1024;
  /// Fan the independent parts of a componentwise dispatch out as separate
  /// tasks (within-query parallelism). Off = one task per request. Results
  /// are identical either way.
  bool split_components = true;
  /// Learned latency model (cost_model.h) consulted once per Submit via an
  /// immutable snapshot: the expected cost sets the slack-ordering effective
  /// deadline and prices escalation re-runs, and the optimistic edge drives
  /// PROACTIVE degradation; completed exact solves are recorded back. Null
  /// (the default) disables prediction entirely — admission and provenance
  /// are then unchanged from the pre-cost-model executor. The model starts
  /// cold (prior-backed) and learns only from the solves recorded into it.
  std::shared_ptr<CostModel> cost_model = nullptr;
  /// Per-worker deque capacity (rounded up to a power of two, minimum 2).
  /// A full deque overflows into the injection queue, then inline.
  size_t steal_deque_capacity = 256;
  /// Seed for the per-worker victim-selection RNGs (worker i is seeded with
  /// steal_seed ^ i). The steal-interleaving fuzz suite varies this to
  /// drive victim order through many schedules; results never depend on it.
  uint64_t steal_seed = 0x9e3779b97f4a7c15ull;
  /// TEST ONLY. When set, a WORKER thread invokes this with its index right
  /// after fanning a request out: components 1..n-1 are pushed to its deque
  /// (other workers woken) and component 0 has just run inline. The steal
  /// suites park the fanning worker here so every REMAINING component task
  /// must be stolen (a deterministic forced-steal gate), and the mid-flight
  /// expiry/cancel suites use the same parking spot to land a deadline or
  /// cancel between component tasks. Leave unset in production.
  std::function<void(size_t worker_index)> test_after_fanout = nullptr;
};

/// Monotonic counters of admission/scheduling outcomes (updated with
/// relaxed atomics; a stats() snapshot is exact once the pool has drained).
struct ExecutorStats {
  uint64_t submitted = 0;            ///< requests accepted by Submit
  uint64_t exact_solves_started = 0; ///< requests whose exact solve began
  uint64_t degraded_proactive = 0;   ///< exact attempt skipped at admission
  uint64_t degraded_reactive = 0;    ///< converted after a real deadline miss
  uint64_t tasks_stolen = 0;         ///< tasks taken from another worker's
                                     ///< deque
  uint64_t inline_runs = 0;          ///< tasks run on a non-worker thread
                                     ///< because a queue/deque was full
  uint64_t edf_displaced_runs = 0;   ///< EDF overflow: earliest entry run
                                     ///< inline to admit the incoming task
  /// Width-escalation outcomes (EscalationPolicy, solver.h): how many
  /// completed interval solves came back wider than their target and entered
  /// the escalation hook; how many of those were re-run to an exact answer;
  /// and how many were denied because the remaining deadline budget could
  /// not fit the predicted exact re-run (the published answer is then the
  /// wide — but still certified — interval, with the denial on record).
  uint64_t escalated_attempted = 0;
  uint64_t escalated_succeeded = 0;
  uint64_t escalated_budget_denied = 0;
  /// Per-guarantee provenance counters (GuaranteeOf over each successful
  /// result as it is published; errored tickets count in none of them).
  /// Together they answer the operator's question "what fraction of the
  /// answers we served were certified?" without touching any ticket.
  uint64_t results_exact = 0;        ///< Guarantee::kExact
  uint64_t results_interval = 0;     ///< Guarantee::kIntervalEnclosure
  uint64_t results_empirical = 0;    ///< Guarantee::kEmpiricalDouble
  uint64_t results_absolute95 = 0;   ///< Guarantee::kAbsolute95
  uint64_t results_relative95 = 0;   ///< Guarantee::kRelative95
  /// Log2-bucketed histogram of enclosure WIDTHS (bound.hi − bound.lo) over
  /// successful CERTIFIED kIntervalDouble solves — the operator's view of
  /// how tight the certified answers actually were. Recorded EXACTLY ONCE
  /// per such result on every completion path: in Finish for published
  /// interval results, and at escalation time (with the pre-escalation
  /// width) for interval answers the escalation hook replaced with an exact
  /// re-run — so sum(buckets) == certified interval results completed,
  /// whether published, inline, fanned out, or escalated away. Degraded
  /// Monte Carlo estimates carry a STATISTICAL bracket, not a certified
  /// enclosure, and are counted in results_absolute95/relative95 instead
  /// (they previously polluted this histogram through the uncertified bump).
  /// Bucket 0 holds width 0 (point enclosures); bucket b in [1, 65] holds
  /// widths with binary exponent b − 64 (IntervalWidthBucket below), so
  /// ~1e-16-wide enclosures land near bucket 11 and widths of order 1 near
  /// bucket 64, with both tails clamped. Bucket 66 (kIntervalWidthInvalid)
  /// counts INVALID enclosures — NaN width or hi < lo — which a debug build
  /// additionally asserts on: an inverted enclosure is a kernel bug, not a
  /// point answer (the pre-fix bucketing filed NaN under bucket 0).
  std::array<uint64_t, 67> interval_width_hist{};
};

/// Histogram slot for invalid enclosure widths (NaN, or negative from an
/// inverted hi < lo interval): loud accounting instead of the old silent
/// bucket-0 "point enclosure" filing.
inline constexpr size_t kIntervalWidthInvalid = 66;

/// The histogram bucket for one enclosure width: kIntervalWidthInvalid (66)
/// for NaN or negative widths (with a debug assert — those mean an invalid
/// hi < lo enclosure escaped a kernel), 0 for width == 0 (a point
/// enclosure), otherwise clamp(exponent(width) + 64, 1, 65) where
/// width = m · 2^exponent with m in [0.5, 1) — i.e. a pure log2 bucketing
/// with 64 buckets of subnormal-to-unit resolution and a clamped tail each
/// side. Exposed for tests and for dashboards that label the axis.
size_t IntervalWidthBucket(double width);

class BatchExecutor {
 public:
  explicit BatchExecutor(ExecutorOptions options = {});
  /// Drains: blocks until every outstanding ticket has completed (helping
  /// to run queued tasks), then joins the workers.
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  size_t num_threads() const { return workers_.size(); }
  const ExecutorOptions& options() const { return options_; }
  /// Snapshot of the admission/scheduling counters.
  ExecutorStats stats() const;

  // -------------------------------------------------------------------------
  // Asynchronous front door.
  // -------------------------------------------------------------------------

  /// Submits one request against `session` and returns its ticket
  /// immediately. Preparation (the cheap, cached half of a solve) runs on
  /// the calling thread — this fixes the context-cache population order, so
  /// session stats match serial execution — unless the deadline has already
  /// expired, in which case the request fails fast with DeadlineExceeded
  /// and the session is never touched. `request.shard` is ignored here
  /// (shard routing is ShardedServer's job). The session must stay alive
  /// until the ticket completes.
  SolveTicket Submit(EvalSession& session, SolveRequest request,
                     CompletionCallback callback = nullptr);

  /// Submits a batch in order; tickets align with `requests`.
  std::vector<SolveTicket> SubmitBatch(EvalSession& session,
                                       std::vector<SolveRequest> requests);

  /// Waits for every ticket and moves the results out, in order (empty
  /// tickets yield Invalid). Pure wait — works for tickets of any executor.
  static std::vector<Result<SolveResult>> Collect(
      std::vector<SolveTicket>& tickets);

  /// Collect, but the calling thread helps drain THIS executor's queues
  /// while it waits (the synchronous wrappers' behavior).
  std::vector<Result<SolveResult>> CollectHelping(
      std::vector<SolveTicket>& tickets);

  // -------------------------------------------------------------------------
  // Synchronous wrappers (submit + wait-helping over the async path).
  // -------------------------------------------------------------------------

  /// Answers `queries` against `session` in order; result i is bit-identical
  /// to serial session.SolveBatch(queries)[i] for every thread count. A batch
  /// across sessions is Submit per request + CollectHelping.
  std::vector<Result<SolveResult>> SolveBatch(
      EvalSession& session, const std::vector<DiGraph>& queries);

 private:
  /// One schedulable unit: component `component` of the request, the whole
  /// request, or — when component < 0 and the request has a componentwise
  /// dispatch — the FAN-OUT ROOT, which spawns the component tasks at the
  /// thread that dequeues it. Holds shared ownership of the request state,
  /// so a queued task can never dangle.
  struct Task {
    std::shared_ptr<internal::RequestState> request;
    int32_t component = -1;
  };

  /// One entry of the EDF heap: min-heap on (effective deadline, arrival
  /// sequence) — the tiebreak keeps equal-deadline tasks FIFO.
  struct DeadlineEntry {
    RequestClock::time_point effective;
    uint64_t seq = 0;
    Task task;
  };
  struct LaterDeadline {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      if (a.effective != b.effective) return a.effective > b.effective;
      return a.seq > b.seq;
    }
  };

  /// Per-worker scheduling state. Heap-pinned (unique_ptr in the vector):
  /// the deque must not move while threads hold references.
  struct Worker {
    Worker(size_t deque_capacity, uint64_t seed)
        : deque(deque_capacity), rng(seed) {}
    WorkStealDeque<Task> deque;
    /// Victim-selection RNG; touched ONLY by the owning worker thread.
    std::mt19937_64 rng;
  };

  static constexpr size_t kNoWorker = static_cast<size_t>(-1);

  void EnqueueTask(Task task);
  /// Worker pop: own deque → EDF heap → injection → steal a victim's deque.
  bool TryPopTaskWorker(size_t self, Task* out);
  /// Helper pop (collect-helping, destructor): EDF heap → injection →
  /// every worker's deque.
  bool TryPopTaskShared(Task* out);
  bool PopEdf(Task* out);
  void RunTask(const Task& task, size_t self = kNoWorker);
  /// Spawns the component tasks of a fan-out root at the dequeuing thread:
  /// workers push to their own deque (overflow → injection → inline),
  /// everyone else pushes to the injection queue (overflow → inline).
  void FanOut(const Task& root, size_t self);
  void Finish(const std::shared_ptr<internal::RequestState>& request,
              Result<SolveResult> result);
  /// Finish, but a DeadlineExceeded result is first converted into a
  /// budgeted Monte Carlo estimate when the request's DegradePolicy allows
  /// (DegradeOnDeadlineMiss, on the calling thread).
  void FinishOrDegrade(const std::shared_ptr<internal::RequestState>& request,
                       Result<SolveResult> result);
  /// The escalation hook (EscalationPolicy, solver.h), run on every solve
  /// completion path just before Finish: a successful certified interval
  /// result wider than the request's target is re-solved under the exact
  /// backend on the calling thread — when the deadline still stands and the
  /// cost model (if any) predicts the re-run fits the remaining budget —
  /// and replaced by the exact answer with EscalateInfo provenance. A
  /// failed or denied re-run publishes the original interval result with
  /// the attempt/denial counted in ExecutorStats.
  void MaybeEscalate(internal::RequestState& req, Result<SolveResult>* result);
  void WorkerLoop(size_t index);
  bool AllRequestsFinished();
  void NotifyOne();
  void NotifyAll();
  /// Marks the request's first exact solving work (counter bump, once).
  void MarkExactStarted(internal::RequestState& req);

  ExecutorOptions options_;
  /// Deadline-less lane: strict-FIFO Vyukov MPMC (mpmc_queue.h). Also the
  /// overflow target for full worker deques and the fan-out lane of
  /// non-worker threads.
  MpmcQueue<Task> injection_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  bool stop_ = false;  ///< guarded by work_mu_
  std::mutex finish_mu_;
  std::condition_variable finish_cv_;
  size_t outstanding_ = 0;  ///< submitted, not yet finished; guarded by finish_mu_
  /// Deadline lane: one EDF heap for the whole executor, bounded by the
  /// injection queue's capacity (EnqueueTask's displace-inline overflow).
  std::mutex edf_mu_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      LaterDeadline>
      edf_heap_;          ///< guarded by edf_mu_
  uint64_t edf_seq_ = 0;  ///< guarded by edf_mu_
  /// Relaxed mirror of edf_heap_.size(): the pop paths probe it before
  /// taking edf_mu_, so idle workers do not serialize on an empty heap. On
  /// a cache line of its own: every pop reads it, and the completion state
  /// above and counters below are written on every request.
  alignas(kCacheLine) std::atomic<size_t> edf_size_{0};
  alignas(kCacheLine) std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> exact_started_{0};
  std::atomic<uint64_t> degraded_proactive_{0};
  std::atomic<uint64_t> degraded_reactive_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
  std::atomic<uint64_t> inline_runs_{0};
  std::atomic<uint64_t> edf_displaced_{0};
  std::atomic<uint64_t> escalated_attempted_{0};
  std::atomic<uint64_t> escalated_succeeded_{0};
  std::atomic<uint64_t> escalated_budget_denied_{0};
  /// Per-guarantee result counters, indexed by static_cast<size_t>(the
  /// Guarantee enum); bumped in Finish alongside RequestStats::guarantee.
  std::array<std::atomic<uint64_t>, 5> guarantee_counts_{};
  /// Interval-width histogram counters (ExecutorStats::interval_width_hist);
  /// bumped exactly once per successful CERTIFIED interval result — in
  /// Finish for published results, in MaybeEscalate for escalated ones.
  std::array<std::atomic<uint64_t>, 67> interval_width_hist_{};
  /// Rotation cursor for the shared (non-worker) sweep over worker state.
  std::atomic<uint64_t> shared_sweep_{0};
  std::vector<std::unique_ptr<Worker>> worker_state_;
  std::vector<std::thread> workers_;
};

}  // namespace phom::serve
