#pragma once

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

/// Pr(query ⇝ component) for a connected query with >= 1 edge on a single
/// 2WP component, in the numeric backend of `Num`. `lineage_out`, if
/// non-null, receives the interval DNF over the component's edge ids (for
/// β-acyclicity checks and ablations).
template <class Num>
Result<Num> SolveConnectedOn2wpComponentT(const DiGraph& query,
                                          const ProbGraph& component,
                                          TwoWayPathStats* stats,
                                          MonotoneDnf* lineage_out);

extern template Result<Rational> SolveConnectedOn2wpComponentT<Rational>(
    const DiGraph&, const ProbGraph&, TwoWayPathStats*, MonotoneDnf*);
extern template Result<double> SolveConnectedOn2wpComponentT<double>(
    const DiGraph&, const ProbGraph&, TwoWayPathStats*, MonotoneDnf*);
extern template Result<IntervalDouble>
SolveConnectedOn2wpComponentT<IntervalDouble>(const DiGraph&, const ProbGraph&,
                                              TwoWayPathStats*, MonotoneDnf*);

/// Exact-backend convenience (the historical entry point).
inline Result<Rational> SolveConnectedOn2wpComponent(
    const DiGraph& query, const ProbGraph& component,
    TwoWayPathStats* stats = nullptr, MonotoneDnf* lineage_out = nullptr) {
  return SolveConnectedOn2wpComponentT<Rational>(query, component, stats,
                                                 lineage_out);
}

}  // namespace phom
