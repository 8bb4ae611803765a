#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/solver.h"
#include "src/graph/alphabet.h"
#include "src/graph/prob_graph.h"

/// \file workloads.h
/// The benchmark's four workloads, generated from a seed by the benchmark's
/// own generator: the library receives only the finished instances and the
/// query texts. Each workload stays in one latency mode (one engine family,
/// one numeric backend, query sizes in a narrow band, no deadlines), and
/// carries the cell guard that pins it there.

namespace perfbench {

/// How requests reach the library.
enum class Front {
  kExecutor,  ///< BatchExecutor::Submit against one EvalSession
  kSharded,   ///< ShardedServer::Submit, one shard per instance
};

/// One distinct (instance, query text) pair; the oracle answers each once.
struct Pair {
  uint32_t instance = 0;
  uint32_t text = 0;
};

/// An engine the workload may route to, with the share of distinct pairs it
/// must take (the cell guard's engine mix).
struct EngineShare {
  std::string engine;
  double min_share = 0.0;
  double max_share = 1.0;
};

struct Workload {
  std::string name;
  Front front = Front::kExecutor;
  phom::NumericBackend backend = phom::NumericBackend::kDouble;
  phom::Alphabet alphabet;
  std::vector<phom::ProbGraph> instances;
  std::vector<std::string> texts;  ///< distinct query texts
  std::vector<Pair> pairs;         ///< distinct (instance, text) pairs
  /// The request stream, as indices into `pairs`; request k is
  /// stream[k % stream.size()].
  std::vector<uint32_t> stream;
  /// Requests the closed-loop client keeps in flight.
  size_t window = 8;
  /// Requests served to warm caches during set-up, all submitted at once
  /// (fewer than the executor's queue capacity, so none runs inline).
  size_t warmup_requests = 64;
  /// Requests in one serial traced replay.
  size_t replay_requests = 1024;

  // Cell guard.
  std::vector<EngineShare> engines;
  phom::Guarantee guarantee = phom::Guarantee::kExact;
  /// Lower bound on the context-cache miss ratio of the served stream
  /// (0 = none): keeps tenants-double a cold-context workload.
  double min_context_miss_ratio = 0.0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Generates workload `name` from `seed`; nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
