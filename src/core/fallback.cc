#include "src/core/fallback.h"

#include <algorithm>
#include <set>

#include "src/graph/classify.h"
#include "src/lineage/dnf.h"
#include "src/lineage/dnf_prob.h"

namespace phom {

template <class Num>
Result<Num> SolveByWorldEnumerationT(const DiGraph& query,
                                     const ProbGraph& instance,
                                     const FallbackOptions& options,
                                     FallbackStats* stats) {
  using Ops = NumericOps<Num>;
  const DiGraph& g = instance.graph();
  if (query.num_vertices() == 0) return Ops::One();
  if (g.num_vertices() == 0) return Ops::Zero();

  std::vector<EdgeId> uncertain;
  std::vector<EdgeId> certain;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Rational& p = instance.prob(e);
    if (p.is_one()) {
      certain.push_back(e);
    } else if (!p.is_zero()) {
      uncertain.push_back(e);
    }
  }
  // Worlds are uint64_t edge masks, so 63 uncertain edges is a hard ceiling
  // whatever the caller allows (1 << 64 is undefined behaviour).
  const size_t limit = std::min<size_t>(options.max_uncertain_edges, 63);
  if (uncertain.size() > limit) {
    return Status::ResourceExhausted(
        "world enumeration over " + std::to_string(uncertain.size()) +
        " uncertain edges exceeds the limit of " + std::to_string(limit));
  }

  // Short-circuits: hom with only certain edges -> 1; no hom even with all
  // uncertain edges -> 0.
  auto build_world = [&](uint64_t mask) {
    DiGraph world(g.num_vertices());
    for (EdgeId e : certain) {
      const Edge& edge = g.edge(e);
      AddEdgeOrDie(&world, edge.src, edge.dst, edge.label);
    }
    for (size_t i = 0; i < uncertain.size(); ++i) {
      if ((mask >> i) & 1) {
        const Edge& edge = g.edge(uncertain[i]);
        AddEdgeOrDie(&world, edge.src, edge.dst, edge.label);
      }
    }
    return world;
  };
  {
    PHOM_ASSIGN_OR_RETURN(
        bool certain_hom,
        HasHomomorphism(query, build_world(0), options.backtrack));
    if (certain_hom) return Ops::One();
    const uint64_t full = (uint64_t{1} << uncertain.size()) - 1;
    PHOM_ASSIGN_OR_RETURN(
        bool any_hom,
        HasHomomorphism(query, build_world(full), options.backtrack));
    if (!any_hom) return Ops::Zero();
  }

  std::vector<Num> uncertain_probs;
  uncertain_probs.reserve(uncertain.size());
  for (EdgeId e : uncertain) {
    uncertain_probs.push_back(Ops::From(instance.prob(e)));
  }
  Num total = Ops::Zero();
  uint64_t num_worlds = uint64_t{1} << uncertain.size();
  const uint64_t check_step =
      options.cancel_check_interval == 0 ? 1 : options.cancel_check_interval;
  for (uint64_t mask = 0; mask < num_worlds; ++mask) {
    // The in-component yield point: a single hard cell may enumerate 2^26
    // worlds, far too long to only notice deadlines between components.
    if (options.cancel != nullptr && mask % check_step == 0) {
      PHOM_RETURN_NOT_OK(options.cancel->Check());
    }
    if (stats != nullptr) ++stats->worlds;
    DiGraph world = build_world(mask);
    PHOM_ASSIGN_OR_RETURN(bool hom,
                          HasHomomorphism(query, world, options.backtrack));
    if (!hom) continue;
    Num w = Ops::One();
    for (size_t i = 0; i < uncertain.size(); ++i) {
      const Num& p = uncertain_probs[i];
      w *= ((mask >> i) & 1) ? p : Ops::Complement(p);
    }
    total += w;
  }
  return total;
}

template <class Num>
Result<Num> SolveByMatchLineageT(const DiGraph& query,
                                 const ProbGraph& instance,
                                 const FallbackOptions& options,
                                 FallbackStats* stats) {
  if (!IsConnected(query) || query.num_edges() == 0) {
    return Status::Invalid(
        "match-lineage fallback requires a connected query with edges");
  }
  const DiGraph& g = instance.graph();
  // Remove probability-0 edges from consideration.
  std::set<std::vector<uint32_t>> images;
  uint64_t matches = 0;
  bool exhausted = false;
  const uint64_t check_step =
      options.cancel_check_interval == 0 ? 1 : options.cancel_check_interval;
  Status interrupted = Status::OK();
  uint64_t visited = 0;  // every enumerated assignment, unlike `matches`,
                         // which skips impossible (zero-probability) images
  auto collect = [&](const std::vector<VertexId>& assignment) {
    // Same in-component yield point as world enumeration: match
    // enumeration is exponential in the worst case too.
    if (options.cancel != nullptr && visited++ % check_step == 0) {
      interrupted = options.cancel->Check();
      if (!interrupted.ok()) return false;
    }
    std::vector<uint32_t> image;
    image.reserve(query.num_edges());
    for (const Edge& qe : query.edges()) {
      std::optional<EdgeId> e =
          g.FindEdge(assignment[qe.src], assignment[qe.dst]);
      PHOM_CHECK(e.has_value());
      if (instance.prob(*e).is_zero()) return true;  // impossible image
      image.push_back(*e);
    }
    std::sort(image.begin(), image.end());
    image.erase(std::unique(image.begin(), image.end()), image.end());
    images.insert(std::move(image));
    if (++matches > options.max_matches) {
      exhausted = true;
      return false;
    }
    return true;
  };
  PHOM_ASSIGN_OR_RETURN(
      uint64_t total,
      ForEachHomomorphism(query, g, collect, options.backtrack));
  (void)total;
  if (!interrupted.ok()) return interrupted;
  if (exhausted) {
    return Status::ResourceExhausted("match-lineage exceeded max_matches");
  }
  if (stats != nullptr) stats->matches = matches;

  MonotoneDnf lineage(static_cast<uint32_t>(g.num_edges()));
  for (const auto& image : images) {
    lineage.AddClause(image);
  }
  lineage.RemoveSubsumed();
  BackendProbs<Num> probs(instance.probs());
  return DnfProbabilityShannonT<Num>(lineage, *probs, {}, nullptr);
}

template Result<Rational> SolveByWorldEnumerationT<Rational>(
    const DiGraph&, const ProbGraph&, const FallbackOptions&, FallbackStats*);
template Result<double> SolveByWorldEnumerationT<double>(
    const DiGraph&, const ProbGraph&, const FallbackOptions&, FallbackStats*);
template Result<IntervalDouble> SolveByWorldEnumerationT<IntervalDouble>(
    const DiGraph&, const ProbGraph&, const FallbackOptions&, FallbackStats*);
template Result<Rational> SolveByMatchLineageT<Rational>(
    const DiGraph&, const ProbGraph&, const FallbackOptions&, FallbackStats*);
template Result<double> SolveByMatchLineageT<double>(
    const DiGraph&, const ProbGraph&, const FallbackOptions&, FallbackStats*);
template Result<IntervalDouble> SolveByMatchLineageT<IntervalDouble>(
    const DiGraph&, const ProbGraph&, const FallbackOptions&, FallbackStats*);

}  // namespace phom
