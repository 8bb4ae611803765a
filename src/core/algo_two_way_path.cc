#include "src/core/algo_two_way_path.h"

#include "src/graph/classify.h"
#include "src/hom/arc_consistency.h"
#include "src/lineage/interval_dp.h"

namespace phom {

template <class Num>
Result<Num> SolveConnectedOn2wpComponentT(const DiGraph& query,
                                          const ProbGraph& component,
                                          TwoWayPathStats* stats,
                                          MonotoneDnf* lineage_out) {
  using Ops = NumericOps<Num>;
  const DiGraph& g = component.graph();
  if (!IsTwoWayPath(g)) {
    return Status::Invalid("SolveConnectedOn2wpComponent requires a 2WP");
  }
  if (!IsConnected(query) || query.num_edges() == 0) {
    return Status::Invalid("query must be connected with at least one edge");
  }
  if (lineage_out != nullptr) {
    *lineage_out = MonotoneDnf(static_cast<uint32_t>(g.num_edges()));
  }
  std::vector<VertexId> order = TwoWayPathOrder(g);
  size_t length = g.num_edges();
  if (length == 0) return Ops::Zero();

  // Path edges in order: edge k joins order[k] and order[k+1].
  std::vector<EdgeId> path_edges(length);
  std::vector<Num> edge_probs(length, Ops::Zero());
  for (size_t k = 0; k < length; ++k) {
    std::optional<EdgeId> e = g.FindEdge(order[k], order[k + 1]);
    if (!e.has_value()) e = g.FindEdge(order[k + 1], order[k]);
    PHOM_CHECK(e.has_value());
    path_edges[k] = *e;
    edge_probs[k] = Ops::From(component.prob(*e));
  }

  // Minimal homomorphic vertex windows [a .. r(a)] (r(a) > a, since the
  // query has an edge and a 2WP no self-loop), read off one incremental
  // arc-consistency fixpoint (hom/arc_consistency.h); the window over
  // vertices a..r(a) is the edge interval [a, r(a) - 1].
  if (stats != nullptr) ++stats->hom_tests;
  std::vector<uint32_t> ends = XPropertyMinimalWindowEnds(query, g, order);
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
        clause.push_back(path_edges[k]);
      }
      lineage_out->AddClause(std::move(clause));
    }
  }
  if (intervals.empty()) return Ops::Zero();
  return IntervalDnfProbabilityT<Num>(edge_probs, std::move(intervals));
}

template Result<Rational> SolveConnectedOn2wpComponentT<Rational>(
    const DiGraph&, const ProbGraph&, TwoWayPathStats*, MonotoneDnf*);
template Result<double> SolveConnectedOn2wpComponentT<double>(
    const DiGraph&, const ProbGraph&, TwoWayPathStats*, MonotoneDnf*);
template Result<IntervalDouble>
SolveConnectedOn2wpComponentT<IntervalDouble>(const DiGraph&, const ProbGraph&,
                                              TwoWayPathStats*, MonotoneDnf*);

}  // namespace phom
