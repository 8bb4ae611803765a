// The serving benchmark. One process drives the library through its public
// front doors (ParseConjunctiveQuery, then BatchExecutor::Submit or
// ShardedServer::Submit, then the SolveTicket) on one of four workloads.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays the workload's request stream serially with spans around each
// layer call, runs it twice to prove the per-layer counts repeat exactly,
// then times the executor pass from outside (around Submit and from
// RequestStats). The last stdout line is one JSON object; any wrong answer
// or cell-guard failure exits non-zero without printing it. See README.md.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/core/eval_session.h"
#include "src/graph/cq_parser.h"
#include "src/serve/executor.h"
#include "src/serve/lru.h"
#include "src/serve/shard.h"

namespace perfbench {
namespace {

using phom::DiGraph;
using phom::EvalSession;
using phom::Result;
using phom::SolveResult;
using phom::serve::BatchExecutor;
using phom::serve::CompletionCallback;
using phom::serve::ExecutorStats;
using phom::serve::RequestStats;
using phom::serve::ShardedServer;
using phom::serve::SolveRequest;
using phom::serve::SolveTicket;

/// Executor workers; with the client thread this is the container's 4 cores.
constexpr size_t kWorkers = 3;
/// Closed-loop time before the measured window (not recorded).
constexpr double kLeadSeconds = 0.5;
/// The measured window is cut into this many equal parts. Host interference
/// (vCPU steal, noisy neighbours) comes in episodes of a few seconds and only
/// ever slows a part down, so each end-to-end timing is taken from the best
/// part: the lowest latency, the highest throughput. A slower program slows
/// every part, the best one included.
constexpr size_t kParts = 10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 7;
/// Distinct pairs re-solved on the exact backend as a cross-check.
constexpr size_t kExactSample = 8;
constexpr double kDoubleTolerance = 1e-9;
/// Required share of a replayed request's wall time its layer spans cover.
constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (key == "--spans-dir") {
        args->spans_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int64_t Ns(phom::serve::RequestClock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

/// A fixed single-thread integer loop: the host-drift diagnostic. Reported
/// next to each run, never used to normalize anything.
double CalibMs() {
  const int64_t start = NowNs();
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - start) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Pins the calling thread to `cpus`. Threads it creates inherit the set.
void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

phom::SolveOptions Options(const Workload& w) {
  phom::SolveOptions options;
  options.numeric = w.backend;
  return options;
}

DiGraph ParseOrThrow(const std::string& text, phom::Alphabet* alphabet) {
  Result<phom::ParsedQuery> parsed = phom::ParseConjunctiveQuery(text, alphabet);
  if (!parsed.ok()) {
    throw std::runtime_error("parse failed: " + parsed.status().ToString());
  }
  return std::move(parsed.ValueOrDie().graph);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Bit-identity, the executor's determinism contract.
bool SameAnswer(const SolveResult& a, const SolveResult& b) {
  return a.numeric == b.numeric && a.probability == b.probability &&
         SameBits(a.probability_double, b.probability_double) &&
         SameBits(a.bound.lo, b.bound.lo) && SameBits(a.bound.hi, b.bound.hi) &&
         a.bound.certified == b.bound.certified &&
         a.stats.engine == b.stats.engine;
}

/// Context-cache counters of whichever cache the front uses.
struct ContextCounters {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t evictions = 0;
};

/// The system under test: an executor over one session, or a sharded
/// server over one session per instance. Where the host has a CPU per
/// thread, the workers run on CPUs 1..kWorkers and the client on CPU 0, so
/// the client never competes with a worker for a core.
class Server {
 public:
  explicit Server(const Workload& w) {
    const bool pin = std::thread::hardware_concurrency() >= kWorkers + 1;
    if (pin) {
      std::vector<int> workers;
      for (size_t i = 1; i <= kWorkers; ++i) workers.push_back(static_cast<int>(i));
      PinCurrentThread(workers);
    }
    if (w.front == Front::kSharded) {
      phom::serve::ShardedServerOptions options;
      options.solve = Options(w);
      options.executor.threads = kWorkers;
      sharded_ = std::make_unique<ShardedServer>(w.instances, options);
    } else {
      session_ = std::make_unique<EvalSession>(w.instances[0], Options(w));
      phom::serve::ExecutorOptions options;
      options.threads = kWorkers;
      executor_ = std::make_unique<BatchExecutor>(options);
    }
    if (pin) PinCurrentThread({0});
  }

  SolveTicket Submit(const Pair& pair, DiGraph query, CompletionCallback callback) {
    if (sharded_ != nullptr) {
      return sharded_->Submit(SolveRequest(std::move(query), pair.instance),
                              std::move(callback));
    }
    return executor_->Submit(*session_, SolveRequest(std::move(query)),
                             std::move(callback));
  }

  ExecutorStats executor_stats() const {
    return sharded_ != nullptr ? sharded_->executor_stats() : executor_->stats();
  }

  ContextCounters contexts() const {
    if (sharded_ != nullptr) {
      const phom::serve::ContextLruStats s = sharded_->context_cache_stats();
      return {s.hits + s.misses, s.hits, s.evictions};
    }
    const phom::SessionStats s = session_->stats();
    return {s.queries, s.context_cache_hits, 0};
  }

 private:
  std::unique_ptr<ShardedServer> sharded_;
  std::unique_ptr<EvalSession> session_;
  /// Declared after the session: destroyed first, draining its tickets.
  std::unique_ptr<BatchExecutor> executor_;
};

// ---------------------------------------------------------------------------
// Set-up: generation, the server, and warm-up. Deterministic work only.
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Server> server;
  size_t cursor = 0;  ///< next stream position
};

Setup BuildSetup(const std::string& name, uint64_t seed) {
  Setup s;
  s.workload = std::make_unique<Workload>(*MakeWorkload(name, seed));
  Workload& w = *s.workload;
  s.server = std::make_unique<Server>(w);
  std::vector<SolveTicket> tickets;
  for (; s.cursor < w.warmup_requests; ++s.cursor) {
    const Pair& pair = w.pairs[w.stream[s.cursor % w.stream.size()]];
    tickets.push_back(s.server->Submit(
        pair, ParseOrThrow(w.texts[pair.text], &w.alphabet), nullptr));
  }
  for (SolveTicket& t : tickets) {
    if (!t.Take().ok()) throw std::runtime_error("warm-up request failed");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Oracle and cell guard (outside every timed window).
// ---------------------------------------------------------------------------

/// Answers each distinct pair once, serially, with EvalSession::Solve on
/// sessions of the given backend (private caches).
std::vector<SolveResult> SolveSerially(Workload& w, phom::NumericBackend backend,
                                       const std::vector<uint32_t>& pair_ids) {
  phom::SolveOptions options = Options(w);
  options.numeric = backend;
  std::vector<std::unique_ptr<EvalSession>> sessions(w.instances.size());
  std::vector<SolveResult> answers;
  for (const uint32_t id : pair_ids) {
    const Pair& pair = w.pairs[id];
    std::unique_ptr<EvalSession>& session = sessions[pair.instance];
    if (session == nullptr) {
      session = std::make_unique<EvalSession>(w.instances[pair.instance], options);
    }
    Result<SolveResult> r =
        session->Solve(ParseOrThrow(w.texts[pair.text], &w.alphabet));
    if (!r.ok()) {
      throw std::runtime_error("serial solve failed on '" + w.texts[pair.text] +
                               "': " + r.status().ToString());
    }
    answers.push_back(std::move(r.ValueOrDie()));
  }
  return answers;
}

/// Collects guard and oracle failures; any one fails the run.
struct Failures {
  std::vector<std::string> messages;
  void Add(std::string m) {
    if (messages.size() < 20) messages.push_back(std::move(m));
    ++count;
  }
  size_t count = 0;
};

/// The cell guard: over the served stream, the engine mix must stay within
/// the workload's stated shares; every distinct answer must carry the
/// workload's guarantee tag, and no fallback or Monte Carlo may run.
void CheckCell(const Workload& w, const std::vector<SolveResult>& oracle,
               Failures* failures) {
  for (const SolveResult& a : oracle) {
    if (phom::GuaranteeOf(a) != w.guarantee) {
      failures->Add(std::string("guarantee ") + phom::ToString(phom::GuaranteeOf(a)) +
                    " (expected " + phom::ToString(w.guarantee) + ")");
    }
    if (a.stats.fallback_components != 0 || a.stats.worlds != 0 ||
        a.degrade.degraded) {
      failures->Add("fallback or Monte Carlo ran on engine " + a.stats.engine);
    }
  }
  std::map<std::string, size_t> mix;
  for (const uint32_t pair : w.stream) ++mix[oracle[pair].stats.engine];
  std::printf("cell: %zu distinct pairs, guarantee %s, engine mix over the stream:",
              oracle.size(), phom::ToString(w.guarantee));
  for (const auto& [engine, n] : mix) std::printf(" %s=%zu", engine.c_str(), n);
  std::printf("\n");
  for (const auto& [engine, n] : mix) {
    const auto it = std::find_if(w.engines.begin(), w.engines.end(),
                                 [&](const EngineShare& e) { return e.engine == engine; });
    const double share = Ratio(static_cast<double>(n), static_cast<double>(w.stream.size()));
    if (it == w.engines.end()) {
      failures->Add("engine " + engine + " is outside the workload's cell");
    } else if (share < it->min_share || share > it->max_share) {
      failures->Add("engine " + engine + " share " + std::to_string(share) +
                    " outside its stated range");
    }
  }
}

/// Re-solves a seeded sample of pairs on the exact backend: exact answers
/// must be equal, interval answers must enclose, double answers must be
/// within kDoubleTolerance.
void CheckAgainstExact(Workload& w, const std::vector<SolveResult>& oracle,
                       uint64_t seed, Failures* failures) {
  std::vector<uint32_t> sample;
  for (size_t k = 0; k < kExactSample && k < w.pairs.size(); ++k) {
    sample.push_back(static_cast<uint32_t>((seed * 2654435761u + k * 7919u) % w.pairs.size()));
  }
  const std::vector<SolveResult> exact =
      SolveSerially(w, phom::NumericBackend::kExact, sample);
  for (size_t k = 0; k < sample.size(); ++k) {
    const SolveResult& got = oracle[sample[k]];
    const phom::Rational& want = exact[k].probability;
    bool ok = false;
    switch (w.backend) {
      case phom::NumericBackend::kExact:
        ok = got.probability == want;
        break;
      case phom::NumericBackend::kIntervalDouble:
        ok = got.bound.certified &&
             phom::Rational::FromDouble(got.bound.lo) <= want &&
             want <= phom::Rational::FromDouble(got.bound.hi);
        break;
      case phom::NumericBackend::kDouble:
        ok = std::fabs(got.probability_double - want.ToDouble()) <= kDoubleTolerance;
        break;
    }
    if (!ok) failures->Add("exact cross-check failed on '" + w.texts[w.pairs[sample[k]].text] + "'");
  }
}

/// The serial answer of every distinct pair, after the cell guard and the
/// exact cross-check have passed over it.
std::vector<SolveResult> Oracle(Workload& w, uint64_t seed, Failures* failures) {
  std::vector<uint32_t> all(w.pairs.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<SolveResult> oracle = SolveSerially(w, w.backend, all);
  CheckCell(w, oracle, failures);
  CheckAgainstExact(w, oracle, seed, failures);
  return oracle;
}

// ---------------------------------------------------------------------------
// The closed loop: one client thread keeps `window` requests in flight and
// refills a slot as soon as its request completes (any order: no
// head-of-line blocking in the client).
// ---------------------------------------------------------------------------

struct Slot {
  SolveTicket ticket;
  uint32_t pair = 0;
  bool measured = false;
  int64_t sent_ns = 0;
  int64_t parse_end_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t done_ns = 0;  ///< written by the completion callback
  RequestStats stats;   ///< copied by the completion callback (traced only)
};

/// Completed slot ids, pushed by completion callbacks on worker threads.
class Completions {
 public:
  void Push(uint32_t slot) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ready_.push_back(slot);
    }
    cv_.notify_one();
  }
  void WaitAll(std::vector<uint32_t>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !ready_.empty(); });
    out->swap(ready_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint32_t> ready_;  ///< guarded by mu_
};

struct LoopShared {
  Completions completions;
  std::vector<Slot> slots;
  bool traced = false;
};

struct LoopStats {
  double measure_s = 0;
  size_t attempted = 0;  ///< requests sent in the measured window
  size_t ok = 0;
  size_t correct = 0;
  size_t total = 0;      ///< every request of the pass, lead-in included
  /// Per part of the measured window: OK completions inside the part, and
  /// the latencies of the requests sent in it.
  std::vector<size_t> ok_in_part = std::vector<size_t>(kParts, 0);
  std::vector<std::vector<double>> latency_ms = std::vector<std::vector<double>>(kParts);
  // Traced passes only.
  std::vector<double> submit_us, queue_ms, solve_ms, publish_us;
  ExecutorStats exec_before, exec_after;
  ContextCounters ctx_before, ctx_after;

  /// The best part (see kParts).
  double throughput() const {
    const size_t best = *std::max_element(ok_in_part.begin(), ok_in_part.end());
    return static_cast<double>(best) * kParts / measure_s;
  }
  double latency_ms_at(double q) const {
    std::vector<double> per_part;
    for (const std::vector<double>& part : latency_ms) per_part.push_back(Quantile(part, q));
    return *std::min_element(per_part.begin(), per_part.end());
  }
};

LoopStats RunClosedLoop(Setup& setup, const std::vector<SolveResult>& oracle,
                        double measure_s, Tracer* tracer, uint32_t request_base,
                        Failures* failures) {
  Workload& w = *setup.workload;
  Server& server = *setup.server;
  LoopStats out;
  out.measure_s = measure_s;
  auto shared = std::make_unique<LoopShared>();
  LoopShared* ls = shared.get();
  ls->slots.resize(w.window);
  ls->traced = tracer != nullptr;
  out.exec_before = server.executor_stats();
  out.ctx_before = server.contexts();

  const int64_t start = NowNs();
  const int64_t measure_start = start + static_cast<int64_t>(kLeadSeconds * 1e9);
  const int64_t measure_end = measure_start + static_cast<int64_t>(measure_s * 1e9);
  const auto part_of = [&](int64_t t) {
    return static_cast<size_t>((t - measure_start) * static_cast<int64_t>(kParts) /
                               (measure_end - measure_start));
  };

  auto send = [&](uint32_t s) {
    Slot& slot = ls->slots[s];
    slot.pair = w.stream[setup.cursor++ % w.stream.size()];
    const Pair& pair = w.pairs[slot.pair];
    slot.sent_ns = NowNs();
    slot.measured = slot.sent_ns >= measure_start && slot.sent_ns < measure_end;
    DiGraph query = ParseOrThrow(w.texts[pair.text], &w.alphabet);
    slot.parse_end_ns = NowNs();
    slot.ticket = server.Submit(
        pair, std::move(query),
        [ls, s](const Result<SolveResult>&, const RequestStats& stats) {
          Slot& done = ls->slots[s];
          done.done_ns = NowNs();
          if (ls->traced) done.stats = stats;
          ls->completions.Push(s);
        });
    slot.submit_end_ns = NowNs();
  };

  auto harvest = [&](uint32_t s) {
    Slot& slot = ls->slots[s];
    Result<SolveResult> r = slot.ticket.Take();
    ++out.total;
    if (r.ok() && slot.done_ns >= measure_start && slot.done_ns < measure_end) {
      ++out.ok_in_part[part_of(slot.done_ns)];
    }
    if (!slot.measured) return;
    ++out.attempted;
    out.latency_ms[part_of(slot.sent_ns)].push_back(
        static_cast<double>(slot.done_ns - slot.sent_ns) / 1e6);
    if (r.ok()) {
      ++out.ok;
      if (SameAnswer(*r, oracle[slot.pair])) {
        ++out.correct;
      } else {
        failures->Add("served answer differs from the serial oracle on '" +
                      w.texts[w.pairs[slot.pair].text] + "'");
      }
    } else {
      failures->Add("request failed: " + r.status().ToString());
    }
    if (tracer == nullptr) return;
    const uint32_t rid = request_base + static_cast<uint32_t>(out.attempted);
    const int64_t enqueued = Ns(slot.stats.enqueued);
    const int64_t started = Ns(slot.stats.started);
    const int64_t finished = Ns(slot.stats.finished);
    const uint32_t root = tracer->Add(SpanName::kRequest, rid, kNoParent,
                                      slot.sent_ns, slot.done_ns);
    tracer->Add(SpanName::kParse, rid, root, slot.sent_ns, slot.parse_end_ns);
    tracer->Add(SpanName::kSubmit, rid, root, slot.parse_end_ns, slot.submit_end_ns);
    tracer->Add(SpanName::kQueue, rid, root, enqueued, started);
    tracer->Add(SpanName::kSolve, rid, root, started, finished);
    tracer->Add(SpanName::kPublish, rid, root, finished, slot.done_ns);
    out.submit_us.push_back(static_cast<double>(slot.submit_end_ns - slot.parse_end_ns) / 1e3);
    out.queue_ms.push_back(static_cast<double>(started - enqueued) / 1e6);
    out.solve_ms.push_back(static_cast<double>(finished - started) / 1e6);
    out.publish_us.push_back(static_cast<double>(slot.done_ns - finished) / 1e3);
  };

  for (uint32_t s = 0; s < w.window; ++s) send(s);
  size_t in_flight = w.window;
  std::vector<uint32_t> ready;
  while (in_flight > 0) {
    ls->completions.WaitAll(&ready);
    for (const uint32_t s : ready) {
      harvest(s);
      if (NowNs() < measure_end) {
        send(s);
      } else {
        --in_flight;
      }
    }
  }
  out.exec_after = server.executor_stats();
  out.ctx_after = server.contexts();
  return out;
}

// ---------------------------------------------------------------------------
// The traced serial replay: parse -> Prepare -> PlanComponentDispatch ->
// per-component solve -> combine, with a span around each call.
// ---------------------------------------------------------------------------

/// A context cache that times each lookup from outside the library: the
/// span of a miss is the context build. Delegates to a ContextLru sized like
/// the serving front's cache.
class TimedCache final : public phom::InstanceContextCache {
 public:
  TimedCache(phom::serve::ContextLruOptions options, Tracer* tracer)
      : lru_(options), tracer_(tracer) {}

  std::shared_ptr<const phom::InstanceContext> GetOrBuild(
      const phom::ProbGraph& instance, uint64_t fingerprint,
      const std::vector<phom::LabelId>& labels, bool* hit) override {
    const uint32_t span = tracer_->Open(SpanName::kContext, request_);
    auto context = lru_.GetOrBuild(instance, fingerprint, labels, hit);
    tracer_->Close(span, !*hit);
    ++lookups_;
    if (!*hit) ++misses_;
    return context;
  }

  void set_request(uint32_t request) { request_ = request; }
  uint64_t lookups() const { return lookups_; }
  uint64_t misses() const { return misses_; }

 private:
  phom::serve::ContextLru lru_;
  Tracer* tracer_;
  uint32_t request_ = 0;
  uint64_t lookups_ = 0;
  uint64_t misses_ = 0;
};

/// Per-layer counts of one replay; two replays of one seed must be equal.
struct ReplayCounts {
  uint64_t hom_tests = 0;
  uint64_t clauses = 0;
  uint64_t match_ends = 0;
  uint64_t gates = 0;
  uint64_t components = 0;
  uint64_t fanned_out = 0;
  uint64_t context_lookups = 0;
  uint64_t context_misses = 0;
  bool operator==(const ReplayCounts&) const = default;
};

ReplayCounts Replay(Workload& w, const std::vector<SolveResult>& oracle,
                    Tracer* tracer, uint32_t request_base, Failures* failures) {
  phom::serve::ContextLruOptions cache_options;  // ShardedServer's default
  if (w.front == Front::kExecutor) cache_options.capacity = size_t{1} << 20;
  auto cache = std::make_shared<TimedCache>(cache_options, tracer);
  std::vector<std::unique_ptr<EvalSession>> sessions;
  for (const phom::ProbGraph& instance : w.instances) {
    sessions.push_back(std::make_unique<EvalSession>(instance, Options(w), cache));
  }
  ReplayCounts counts;
  for (uint32_t k = 0; k < w.replay_requests; ++k) {
    const uint32_t pair_id = w.stream[k % w.stream.size()];
    const Pair& pair = w.pairs[pair_id];
    EvalSession& session = *sessions[pair.instance];
    const phom::SolveOptions& options = session.options();
    const uint32_t rid = request_base + k;
    cache->set_request(rid);
    // Harness allocations stay outside the request's spans.
    Result<SolveResult> result = phom::Status::Invalid("not solved");
    std::vector<Result<SolveResult>> parts;
    parts.reserve(64);

    const uint32_t root = tracer->Open(SpanName::kRequest, rid);
    uint32_t span = tracer->Open(SpanName::kParse, rid);
    const DiGraph query = ParseOrThrow(w.texts[pair.text], &w.alphabet);
    tracer->Close(span);
    span = tracer->Open(SpanName::kPrepare, rid);
    const phom::PreparedProblem prepared = session.Prepare(query);
    tracer->Close(span);
    span = tracer->Open(SpanName::kPlan, rid);
    const phom::ComponentDispatch dispatch =
        phom::PlanComponentDispatch(prepared, options);
    tracer->Close(span);
    if (dispatch.components > 0) {
      for (size_t c = 0; c < dispatch.components; ++c) {
        span = tracer->Open(SpanName::kKernel, rid);
        parts.push_back(phom::SolvePreparedComponent(prepared, dispatch, c, options));
        tracer->Close(span);
      }
      span = tracer->Open(SpanName::kCombine, rid);
      result = phom::CombinePreparedComponents(prepared, dispatch, options,
                                               std::move(parts));
      tracer->Close(span);
      ++counts.fanned_out;
    } else {
      span = tracer->Open(SpanName::kKernel, rid);
      result = phom::SolvePrepared(prepared, options);
      tracer->Close(span);
    }
    tracer->Close(root);

    if (!result.ok()) {
      failures->Add("replayed request failed: " + result.status().ToString());
      continue;
    }
    if (!SameAnswer(*result, oracle[pair_id])) {
      failures->Add("replayed answer differs from the serial oracle on '" +
                    w.texts[pair.text] + "'");
    }
    const phom::SolveStats& stats = result->stats;
    counts.hom_tests += stats.hom_tests;
    counts.clauses += stats.lineage_clauses;
    counts.match_ends += stats.match_ends;
    counts.gates += stats.circuit_gates;
    counts.components += stats.components;
  }
  counts.context_lookups = cache->lookups();
  counts.context_misses = cache->misses();
  return counts;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(size_t attempted, size_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Ends the run on any failure: report to stderr, print no result.
bool Fail(const Failures& failures) {
  if (failures.count == 0) return false;
  std::fprintf(stderr, "perfbench: %zu failure(s):\n", failures.count);
  for (const std::string& m : failures.messages) {
    std::fprintf(stderr, "  %s\n", m.c_str());
  }
  return true;
}

/// Durations of the replay's spans named `name`; self times when `self`.
std::vector<double> Durations(const Tracer& t, SpanName name, bool self = false,
                              bool only_flagged = false) {
  const std::vector<double> self_us = self ? t.SelfUs() : std::vector<double>();
  std::vector<double> out;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    if (s.name != name || (only_flagged && !s.flag)) continue;
    out.push_back(self ? self_us[i] : s.us());
  }
  return out;
}

/// Per replayed request: the share of its wall time covered by its direct
/// child spans.
std::vector<double> Coverage(const Tracer& t) {
  std::vector<double> covered(t.spans().size(), 0.0);
  for (const Span& s : t.spans()) {
    if (s.parent != kNoParent) covered[s.parent] += s.us();
  }
  std::vector<double> out;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    if (s.name == SpanName::kRequest) out.push_back(Ratio(covered[i], s.us()));
  }
  return out;
}

void WriteSpans(const Args& args, const char* part, const Tracer& t) {
  if (args.spans_dir.empty()) return;
  const std::string path = args.spans_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-" + part + ".tsv";
  if (!t.Write(path)) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

int RunUntraced(const Args& args) {
  const double calib_before = CalibMs();
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = Setup{};
    const int64_t t0 = NowNs();
    setup = BuildSetup(args.workload, args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Workload& w = *setup.workload;
  Failures failures;
  const std::vector<SolveResult> oracle = Oracle(w, args.seed, &failures);
  if (Fail(failures)) return 1;

  const LoopStats loop = RunClosedLoop(setup, oracle, args.seconds, nullptr, 0, &failures);
  const double miss_ratio =
      1.0 - Ratio(static_cast<double>(loop.ctx_after.hits - loop.ctx_before.hits),
                  static_cast<double>(loop.ctx_after.lookups - loop.ctx_before.lookups));
  if (miss_ratio < w.min_context_miss_ratio) {
    failures.Add("context miss ratio " + std::to_string(miss_ratio) +
                 " is below the workload's floor");
  }
  const double calib_after = CalibMs();
  std::printf("host.calib_ms before=%.3f after=%.3f\n", calib_before, calib_after);
  size_t fewest = loop.attempted;
  for (const std::vector<double>& part : loop.latency_ms) fewest = std::min(fewest, part.size());
  std::printf("served: requests=%zu (fewest in one of %zu parts: %zu) ok=%zu correct=%zu "
              "window=%zu workers=%zu measured_s=%.3f context_miss_ratio=%.4f\n",
              loop.attempted, kParts, fewest, loop.ok, loop.correct, w.window, kWorkers,
              args.seconds, miss_ratio);
  std::printf("parts (rps / p50 ms / p99 ms):");
  for (size_t p = 0; p < kParts; ++p) {
    std::printf(" %.0f/%.3f/%.3f", static_cast<double>(loop.ok_in_part[p]) * kParts / args.seconds,
                Quantile(loop.latency_ms[p], 0.5), Quantile(loop.latency_ms[p], 0.99));
  }
  std::printf("\n");
  if (loop.attempted == 0) failures.Add("no request was measured");
  if (Fail(failures)) return 1;

  const double attempted = static_cast<double>(loop.attempted);
  PrintResult(loop.attempted, loop.attempted - loop.ok,
              {{"throughput_rps", loop.throughput(), "1/s"},
               {"latency_p50_ms", loop.latency_ms_at(0.50), "ms"},
               {"latency_p99_ms", loop.latency_ms_at(0.99), "ms"},
               {"ok_ratio", static_cast<double>(loop.ok) / attempted, "ratio"},
               {"correct_ratio", static_cast<double>(loop.correct) / attempted, "ratio"},
               {"setup_s", Quantile(setup_s, 0.5), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

int RunTraced(const Args& args) {
  const double calib_before = CalibMs();
  Setup setup = BuildSetup(args.workload, args.seed);
  Workload& w = *setup.workload;
  Failures failures;
  const std::vector<SolveResult> oracle = Oracle(w, args.seed, &failures);
  if (Fail(failures)) return 1;

  // Two serial replays of the same stream: counts must repeat exactly.
  Tracer replay;
  const ReplayCounts first = Replay(w, oracle, &replay, 0, &failures);
  const ReplayCounts second = Replay(w, oracle, &replay,
                                     static_cast<uint32_t>(w.replay_requests), &failures);
  if (!(first == second)) failures.Add("per-layer counts differ between two replays");
  if (Ratio(static_cast<double>(first.context_misses),
            static_cast<double>(first.context_lookups)) < w.min_context_miss_ratio) {
    failures.Add("replayed context miss ratio is below the workload's floor");
  }
  const std::vector<double> coverage = Coverage(replay);
  const double covered = Sum(Durations(replay, SpanName::kParse)) +
                         Sum(Durations(replay, SpanName::kPrepare)) +
                         Sum(Durations(replay, SpanName::kPlan)) +
                         Sum(Durations(replay, SpanName::kKernel)) +
                         Sum(Durations(replay, SpanName::kCombine));
  const double coverage_all = Ratio(covered, Sum(Durations(replay, SpanName::kRequest)));
  if (coverage_all < kMinCoverage) {
    failures.Add("layer spans cover only " + std::to_string(coverage_all) +
                 " of replayed wall time");
  }
  if (Fail(failures)) return 1;

  // Executor passes: half the time untraced, half traced.
  const double half = args.seconds / 2;
  const LoopStats plain = RunClosedLoop(setup, oracle, half, nullptr, 0, &failures);
  Tracer served;
  const LoopStats traced = RunClosedLoop(setup, oracle, half, &served, 0, &failures);
  if (Fail(failures)) return 1;
  const double calib_after = CalibMs();
  WriteSpans(args, "replay", replay);
  WriteSpans(args, "served", served);

  const double requests = static_cast<double>(w.replay_requests);
  const ReplayCounts& c = first;
  const double total = static_cast<double>(traced.total);
  const ExecutorStats& e0 = traced.exec_before;
  const ExecutorStats& e1 = traced.exec_after;
  const ContextCounters& x0 = traced.ctx_before;
  const ContextCounters& x1 = traced.ctx_after;
  std::printf("host.calib_ms before=%.3f after=%.3f\n", calib_before, calib_after);
  std::printf("replay: requests=%zu x2 fanned_out=%llu coverage_min=%.4f "
              "coverage_all=%.4f\n",
              w.replay_requests, static_cast<unsigned long long>(c.fanned_out),
              Quantile(coverage, 0.0), coverage_all);
  std::printf("served: untraced=%zu traced=%zu requests\n", plain.attempted,
              traced.attempted);

  const size_t attempted = 2 * w.replay_requests + plain.attempted + traced.attempted;
  const size_t failed = (plain.attempted - plain.ok) + (traced.attempted - traced.ok);
  PrintResult(
      attempted, failed,
      {{"graph.parse_us_p50", Quantile(Durations(replay, SpanName::kParse), 0.5), "us"},
       {"core.prepare_us_p50",
        Quantile(Durations(replay, SpanName::kPrepare, /*self=*/true), 0.5), "us"},
       {"core.context_build_us_p50",
        Quantile(Durations(replay, SpanName::kContext, false, /*only_flagged=*/true), 0.5),
        "us"},
       {"core.context_miss_ratio",
        Ratio(static_cast<double>(c.context_misses), static_cast<double>(c.context_lookups)),
        "ratio"},
       {"core.plan_us_p50", Quantile(Durations(replay, SpanName::kPlan), 0.5), "us"},
       {"core.kernel_ms_per_req",
        Sum(Durations(replay, SpanName::kKernel)) / 1e3 / (2 * requests), "ms"},
       {"core.combine_us_p50", Quantile(Durations(replay, SpanName::kCombine), 0.5), "us"},
       {"hom.hom_tests_per_req", static_cast<double>(c.hom_tests) / requests, "count"},
       {"lineage.clauses_per_req", static_cast<double>(c.clauses) / requests, "count"},
       {"core.match_ends_per_req", static_cast<double>(c.match_ends) / requests, "count"},
       {"circuits.gates_per_req", static_cast<double>(c.gates) / requests, "count"},
       {"core.components_per_req", static_cast<double>(c.components) / requests, "count"},
       {"serve.submit_us_p50", Quantile(traced.submit_us, 0.5), "us"},
       {"serve.client_busy_ratio", Sum(traced.submit_us) / 1e6 / half, "ratio"},
       {"serve.queue_wait_ms_p50", Quantile(traced.queue_ms, 0.5), "ms"},
       {"serve.queue_wait_ms_p99", Quantile(traced.queue_ms, 0.99), "ms"},
       {"serve.solve_ms_p50", Quantile(traced.solve_ms, 0.5), "ms"},
       {"serve.publish_us_p50", Quantile(traced.publish_us, 0.5), "us"},
       {"serve.steal_ratio",
        Ratio(static_cast<double>(e1.tasks_stolen - e0.tasks_stolen), total), "ratio"},
       {"serve.lru_hit_ratio",
        Ratio(static_cast<double>(x1.hits - x0.hits), static_cast<double>(x1.lookups - x0.lookups)),
        "ratio"},
       {"serve.lru_evictions_per_req",
        Ratio(static_cast<double>(x1.evictions - x0.evictions), total), "count"},
       {"trace.overhead_ratio", Ratio(plain.throughput(), traced.throughput()), "ratio"},
       {"trace.span_coverage_p01", Quantile(coverage, 0.01), "ratio"},
       {"host.calib_ms", (calib_before + calib_after) / 2, "ms"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-dir <dir>]\n");
    return 2;
  }
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  try {
    return args.trace ? perfbench::RunTraced(args) : perfbench::RunUntraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
