#pragma once

#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/automata/binary_encoding.h"
#include "src/core/downward_forest.h"
#include "src/graph/prob_graph.h"
#include "src/util/numeric.h"
#include "src/util/result.h"

/// \file compiled.h
/// The kernel inputs that depend on an instance component alone: the
/// Appendix C encoding read by the Prop. 5.4 automaton run, the downward
/// forest read by the Prop. 4.10 DP, and the edge probabilities in each
/// backend's number type. The paper keeps the same split: the instance is
/// compiled once, and the query only fixes m.
///
/// An InstanceContext (case.h) owns one CompiledComponent per component and
/// one for its whole instance(), so every solve after the first reads them
/// instead of re-deriving them. The kernels' ProbGraph entry points compile
/// a temporary one and run the same body.

namespace phom {

/// A value built by the first Get, exactly once, under std::call_once: any
/// number of threads may call Get concurrently.
template <class T>
class Lazy {
 public:
  template <class Build>
  const T& Get(Build&& build) const {
    std::call_once(once_, [&] { value_.emplace(build()); });
    return *value_;
  }

 private:
  mutable std::once_flag once_;
  mutable std::optional<T> value_;
};

/// One graph's compiled kernel inputs, each built on its first use behind
/// its own once-flag, so a component served only by one kernel and one
/// backend compiles only what those read. Errors are compiled too: a
/// non-polytree component keeps EncodePolytree's Status and returns it at
/// the same point on every solve. Not copyable; the graph must outlive it.
class CompiledComponent {
 public:
  explicit CompiledComponent(const ProbGraph& graph) : graph_(&graph) {}

  const ProbGraph& graph() const { return *graph_; }

  /// EncodePolytree(graph()).
  const Result<EncodedPolytree>& polytree() const {
    return polytree_.Get([this] { return EncodePolytree(*graph_); });
  }

  /// BuildDownwardForest(graph().graph()).
  const Result<DownwardForest>& forest() const {
    return forest_.Get([this] { return BuildDownwardForest(graph_->graph()); });
  }

  /// graph().probs() in the backend type `Num`. The exact backend
  /// references them; double and interval convert on first use.
  template <class Num>
  const std::vector<Num>& probs() const {
    if constexpr (std::is_same_v<Num, Rational>) {
      return graph_->probs();
    } else if constexpr (std::is_same_v<Num, double>) {
      return double_probs_.Get(
          [this] { return ConvertProbs<double>(graph_->probs()); });
    } else {
      static_assert(std::is_same_v<Num, IntervalDouble>);
      return interval_probs_.Get(
          [this] { return ConvertProbs<IntervalDouble>(graph_->probs()); });
    }
  }

 private:
  const ProbGraph* graph_;
  Lazy<Result<EncodedPolytree>> polytree_;
  Lazy<Result<DownwardForest>> forest_;
  Lazy<std::vector<double>> double_probs_;
  Lazy<std::vector<IntervalDouble>> interval_probs_;
};

}  // namespace phom
