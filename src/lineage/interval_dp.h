#pragma once

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "src/util/numeric.h"
#include "src/util/rational.h"

/// \file interval_dp.h
/// Specialized O(L²) evaluation of interval DNFs: variables are the edges
/// e_0, ..., e_{L-1} of a path in order, each clause is a contiguous interval
/// [lo, hi] of edge indices (all those edges conjoined). These are exactly
/// the lineages produced by connected queries on 2WP instances (Prop. 4.11);
/// their clause hypergraphs are β-acyclic (eliminate variables from one path
/// endpoint inward), and this DP is the direct dynamic-programming form of
/// that elimination: it tracks the distribution of the current run-start
/// position (the leftmost index s such that edges s..k are all present).

namespace phom {

/// Inclusive edge-index interval.
using EdgeInterval = std::pair<uint32_t, uint32_t>;

/// Pr(at least one interval fully present) with independent edge
/// probabilities, in the numeric backend of `Num` (Rational or double):
/// edge k of the path is `probs[path[k]]`, so a caller reads a graph's
/// probability array through its path's edge ids. Intervals may overlap
/// arbitrarily; dominated (superset) intervals are removed internally.
template <class Num>
Num IntervalDnfProbabilityT(const std::vector<Num>& probs,
                            const std::vector<uint32_t>& path,
                            std::vector<EdgeInterval> intervals);

extern template Rational IntervalDnfProbabilityT<Rational>(
    const std::vector<Rational>&, const std::vector<uint32_t>&,
    std::vector<EdgeInterval>);
extern template double IntervalDnfProbabilityT<double>(
    const std::vector<double>&, const std::vector<uint32_t>&,
    std::vector<EdgeInterval>);
extern template IntervalDouble IntervalDnfProbabilityT<IntervalDouble>(
    const std::vector<IntervalDouble>&, const std::vector<uint32_t>&,
    std::vector<EdgeInterval>);

/// Exact-backend convenience (the historical entry point): edge k has
/// probability edge_probs[k].
inline Rational IntervalDnfProbability(const std::vector<Rational>& edge_probs,
                                       std::vector<EdgeInterval> intervals) {
  std::vector<uint32_t> path(edge_probs.size());
  std::iota(path.begin(), path.end(), 0u);
  return IntervalDnfProbabilityT<Rational>(edge_probs, path,
                                           std::move(intervals));
}

}  // namespace phom
