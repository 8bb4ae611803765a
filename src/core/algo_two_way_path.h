#pragma once

#include "src/core/compiled.h"
#include "src/graph/classify.h"
#include "src/graph/prob_graph.h"
#include "src/lineage/dnf.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file algo_two_way_path.h
/// Prop. 4.11: PHom(Connected, 2WP) in PTIME, labeled or not.
///
/// Pipeline (the three-step scheme of §4.2):
///  1. enumerate candidate matches = connected subpaths of the instance path;
///     by monotonicity only the inclusion-minimal homomorphic subpaths
///     matter: for each left end, the least right end (non-decreasing in
///     the left end);
///  2. all of them come from ONE arc-consistency fixpoint, valid because
///     every subpath has the X-property w.r.t. the path order
///     (Theorem 4.13): the least right end is the largest domain minimum,
///     and advancing the left end only propagates its deletion
///     (XPropertyMinimalWindowEnds);
///  3. the lineage is an interval DNF — β-acyclic by eliminating edges from
///     the path's end inward — evaluated by the O(L²) run-length DP.

namespace phom {

struct TwoWayPathStats {
  /// Arc-consistency fixpoints established: one per component sweep.
  size_t hom_tests = 0;
  size_t minimal_intervals = 0;
};

/// Pr(query ⇝ component) on a single 2WP component, read from its compiled
/// path order, path edges and probabilities (compiled.h), in the numeric
/// backend of `Num`. The query must be connected with >= 1 edge; the engines
/// know that from the prepared analysis, so this body does not re-check it.
/// `lineage_out`, if non-null, receives the interval DNF over the
/// component's edge ids (for β-acyclicity checks and ablations).
template <class Num>
Result<Num> SolveConnectedOn2wpComponentT(const DiGraph& query,
                                          const CompiledComponent& component,
                                          TwoWayPathStats* stats,
                                          MonotoneDnf* lineage_out);

/// Same, compiling `component` for this one call, with the query's
/// precondition checked after the component's.
template <class Num>
Result<Num> SolveConnectedOn2wpComponentT(const DiGraph& query,
                                          const ProbGraph& component,
                                          TwoWayPathStats* stats,
                                          MonotoneDnf* lineage_out) {
  const CompiledComponent compiled(component);
  PHOM_RETURN_NOT_OK(compiled.two_way_path().status());
  if (!IsConnected(query) || query.num_edges() == 0) {
    return Status::Invalid("query must be connected with at least one edge");
  }
  return SolveConnectedOn2wpComponentT<Num>(query, compiled, stats,
                                            lineage_out);
}

/// Exact-backend convenience (the historical entry point).
inline Result<Rational> SolveConnectedOn2wpComponent(
    const DiGraph& query, const ProbGraph& component,
    TwoWayPathStats* stats = nullptr, MonotoneDnf* lineage_out = nullptr) {
  return SolveConnectedOn2wpComponentT<Rational>(query, component, stats,
                                                 lineage_out);
}

}  // namespace phom
