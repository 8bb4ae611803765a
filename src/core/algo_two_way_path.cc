#include "src/core/algo_two_way_path.h"

#include "src/hom/arc_consistency.h"
#include "src/lineage/interval_dp.h"

namespace phom {

template <class Num>
Result<Num> SolveConnectedOn2wpComponentT(const DiGraph& query,
                                          const CompiledComponent& component,
                                          TwoWayPathStats* stats,
                                          MonotoneDnf* lineage_out) {
  using Ops = NumericOps<Num>;
  const Result<TwoWayPath>& compiled_path = component.two_way_path();
  if (!compiled_path.ok()) return compiled_path.status();
  const TwoWayPath& path = *compiled_path;
  const DiGraph& g = component.graph().graph();
  if (lineage_out != nullptr) {
    *lineage_out = MonotoneDnf(static_cast<uint32_t>(g.num_edges()));
  }
  if (path.edges.empty()) return Ops::Zero();

  // Minimal homomorphic vertex windows [a .. r(a)] (r(a) > a, since the
  // query has an edge and a 2WP no self-loop), read off one incremental
  // arc-consistency fixpoint (hom/arc_consistency.h); the window over
  // vertices a..r(a) is the edge interval [a, r(a) - 1].
  if (stats != nullptr) ++stats->hom_tests;
  std::vector<uint32_t> ends =
      XPropertyMinimalWindowEnds(query, g, path.order);
  std::vector<EdgeInterval> intervals;
  intervals.reserve(ends.size());
  for (uint32_t a = 0; a < ends.size(); ++a) {
    PHOM_CHECK(ends[a] > a);
    intervals.emplace_back(a, ends[a] - 1);
  }
  if (stats != nullptr) stats->minimal_intervals = intervals.size();
  if (lineage_out != nullptr) {
    for (const EdgeInterval& iv : intervals) {
      std::vector<uint32_t> clause;
      for (uint32_t k = iv.first; k <= iv.second; ++k) {
        clause.push_back(path.edges[k]);
      }
      lineage_out->AddClause(std::move(clause));
    }
  }
  if (intervals.empty()) return Ops::Zero();
  return IntervalDnfProbabilityT<Num>(component.probs<Num>(), path.edges,
                                      std::move(intervals));
}

template Result<Rational> SolveConnectedOn2wpComponentT<Rational>(
    const DiGraph&, const CompiledComponent&, TwoWayPathStats*, MonotoneDnf*);
template Result<double> SolveConnectedOn2wpComponentT<double>(
    const DiGraph&, const CompiledComponent&, TwoWayPathStats*, MonotoneDnf*);
template Result<IntervalDouble>
SolveConnectedOn2wpComponentT<IntervalDouble>(const DiGraph&,
                                              const CompiledComponent&,
                                              TwoWayPathStats*, MonotoneDnf*);

}  // namespace phom
