#pragma once

#include <vector>

#include "src/core/compiled.h"
#include "src/graph/prob_graph.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file algo_polytree.h
/// Props. 5.4/5.5: PHom̸L(⊔DWT, PT) in PTIME via tree automata.
///
/// Per polytree component: encode as a full binary probabilistic tree
/// (Appendix C) and run the deterministic ⟨↑, ↓, Max⟩ automaton of Prop. 5.4
/// on it symbolically, bottom-up: each node keeps Pr(the run reaches q) for
/// every reachable state q, a sum over the (left state, right state,
/// presence) triples that δ maps to q of p_t or 1 − p_t times the two child
/// probabilities. Determinism makes those terms disjoint events and the
/// children's variables are disjoint, so this is exactly the bottom-up
/// evaluation of the automaton's provenance d-DNNF (automata/provenance.h),
/// fused into the run: no circuit is built on the solve path. The DP adds
/// and multiplies in the order DnnfProbabilityT evaluates that circuit's
/// gates, so its answers are bit-identical to BuildProvenanceCircuit +
/// DnnfProbabilityT on every backend, and PolytreeStats counts the gates the
/// circuit would have; the circuit remains as the paper's construction and
/// the differential oracle (tests/core_polytree_fused_diff_test.cc).
/// ⊔DWT queries first collapse to →^height (Prop. 5.5); components combine
/// by Lemma 3.7.

namespace phom {

/// Sizes of the implicit provenance circuit (equal to BuildProvenanceCircuit's
/// num_gates(), state_pairs and max_states_per_node), summed over components
/// (max for max_states_per_node).
struct PolytreeStats {
  size_t encoded_nodes = 0;
  size_t circuit_gates = 0;
  size_t state_pairs = 0;
  size_t max_states_per_node = 0;
};

/// Pr(the world contains a directed path of m >= 1 edges) for a single
/// polytree component, in the numeric backend of `Num`, read from the
/// component's compiled encoding and probabilities (compiled.h).
/// Status::Invalid if the component is not a polytree (EncodePolytree's
/// check), or if it has edges and m > 1624, past which the automaton's
/// (m + 1)^3 state ids no longer fit in 32 bits.
template <class Num>
Result<Num> SolvePathProbabilityOnPolytreeT(uint32_t m,
                                            const CompiledComponent& component,
                                            PolytreeStats* stats);

/// Same, compiling `component` for this one call.
template <class Num>
Result<Num> SolvePathProbabilityOnPolytreeT(uint32_t m,
                                            const ProbGraph& component,
                                            PolytreeStats* stats) {
  return SolvePathProbabilityOnPolytreeT<Num>(m, CompiledComponent(component),
                                              stats);
}

/// Full Props. 5.4/5.5 solver: unlabeled ⊔DWT query on a ⊔PT instance,
/// split into components here (the unlabeled-polytree engine runs the same
/// per-component kernel on its context's compiled components).
template <class Num>
Result<Num> SolveDwtQueryOnPolytreeForestT(const DiGraph& query,
                                           const ProbGraph& instance,
                                           PolytreeStats* stats);

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
