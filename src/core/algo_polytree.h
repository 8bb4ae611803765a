#pragma once

#include <vector>

#include "src/graph/prob_graph.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file algo_polytree.h
/// Props. 5.4/5.5: PHom̸L(⊔DWT, PT) in PTIME via tree automata.
///
/// Per polytree component: encode as a full binary probabilistic tree
/// (Appendix C), run the deterministic ⟨↑, ↓, Max⟩ automaton symbolically by
/// building its provenance circuit — a d-DNNF because the automaton is
/// deterministic — and evaluate the circuit's probability bottom-up.
/// ⊔DWT queries first collapse to →^height (Prop. 5.5); components combine
/// by Lemma 3.7. Circuit construction is numeric-independent; only the
/// bottom-up evaluation pass runs in the selected backend.

namespace phom {

struct PolytreeStats {
  size_t encoded_nodes = 0;
  size_t circuit_gates = 0;
  size_t state_pairs = 0;
  size_t max_states_per_node = 0;
};

/// Pr(the world contains a directed path of m >= 1 edges) for a single
/// polytree component, in the numeric backend of `Num`.
template <class Num>
Result<Num> SolvePathProbabilityOnPolytreeT(uint32_t m,
                                            const ProbGraph& component,
                                            PolytreeStats* stats);

/// Full Props. 5.4/5.5 solver: unlabeled ⊔DWT query on a ⊔PT instance given
/// by its components (SplitComponents, or InstanceContext::components).
template <class Num>
Result<Num> SolveDwtQueryOnPolytreeForestT(
    const DiGraph& query, const std::vector<ComponentView>& components,
    PolytreeStats* stats);

/// Same, on the whole instance: splits it once and delegates.
template <class Num>
Result<Num> SolveDwtQueryOnPolytreeForestT(const DiGraph& query,
                                           const ProbGraph& instance,
                                           PolytreeStats* stats) {
  return SolveDwtQueryOnPolytreeForestT<Num>(query, SplitComponents(instance),
                                             stats);
}

extern template Result<Rational> SolvePathProbabilityOnPolytreeT<Rational>(
    uint32_t, const ProbGraph&, PolytreeStats*);
extern template Result<double> SolvePathProbabilityOnPolytreeT<double>(
    uint32_t, const ProbGraph&, PolytreeStats*);
extern template Result<IntervalDouble>
SolvePathProbabilityOnPolytreeT<IntervalDouble>(uint32_t, const ProbGraph&,
                                                PolytreeStats*);
extern template Result<Rational> SolveDwtQueryOnPolytreeForestT<Rational>(
    const DiGraph&, const std::vector<ComponentView>&, PolytreeStats*);
extern template Result<double> SolveDwtQueryOnPolytreeForestT<double>(
    const DiGraph&, const std::vector<ComponentView>&, PolytreeStats*);
extern template Result<IntervalDouble>
SolveDwtQueryOnPolytreeForestT<IntervalDouble>(
    const DiGraph&, const std::vector<ComponentView>&, PolytreeStats*);

/// Exact-backend conveniences (the historical entry points).
inline Result<Rational> SolvePathProbabilityOnPolytree(
    uint32_t m, const ProbGraph& component, PolytreeStats* stats = nullptr) {
  return SolvePathProbabilityOnPolytreeT<Rational>(m, component, stats);
}
inline Result<Rational> SolveDwtQueryOnPolytreeForest(
    const DiGraph& query, const ProbGraph& instance,
    PolytreeStats* stats = nullptr) {
  return SolveDwtQueryOnPolytreeForestT<Rational>(query, instance, stats);
}

}  // namespace phom
