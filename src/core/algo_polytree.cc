#include "src/core/algo_polytree.h"

#include <algorithm>

#include "src/automata/binary_encoding.h"
#include "src/automata/provenance.h"
#include "src/automata/tree_automaton.h"
#include "src/circuits/dnnf.h"
#include "src/graph/classify.h"
#include "src/graph/graded.h"

namespace phom {

template <class Num>
Result<Num> SolvePathProbabilityOnPolytreeT(uint32_t m,
                                            const ProbGraph& component,
                                            PolytreeStats* stats) {
  using Ops = NumericOps<Num>;
  if (m == 0) return Ops::One();
  if (component.num_edges() == 0) return Ops::Zero();
  PHOM_ASSIGN_OR_RETURN(EncodedPolytree tree, EncodePolytree(component));
  LongestRunAutomaton automaton(m);
  ProvenanceCircuit provenance = BuildProvenanceCircuit(automaton, tree);
  if (stats != nullptr) {
    stats->encoded_nodes += tree.nodes.size();
    stats->circuit_gates += provenance.circuit.num_gates();
    stats->state_pairs += provenance.state_pairs;
    stats->max_states_per_node =
        std::max(stats->max_states_per_node, provenance.max_states_per_node);
  }
  BackendProbs<Num> var_probs(provenance.var_probs);
  return DnnfProbabilityT<Num>(provenance.circuit, provenance.root_gate,
                               *var_probs);
}

template <class Num>
Result<Num> SolveDwtQueryOnPolytreeForestT(
    const DiGraph& query, const std::vector<ComponentView>& components,
    PolytreeStats* stats) {
  using Ops = NumericOps<Num>;
  Classification qc = Classify(query);
  if (!qc.all_dwt) {
    return Status::Invalid(
        "SolveDwtQueryOnPolytreeForest requires a ⊔DWT query");
  }
  if (query.num_edges() == 0) return Ops::One();
  // Prop. 5.5: the query is equivalent to →^m, m = max component height
  // = difference of levels.
  GradedAnalysis graded = AnalyzeGraded(query);
  PHOM_CHECK(graded.is_graded);
  uint32_t m = static_cast<uint32_t>(graded.difference_of_levels);

  // Lemma 3.7 across components.
  Num none = Ops::One();
  for (const ComponentView& comp : components) {
    if (!IsPolytree(comp.graph.graph())) {
      return Status::Invalid("instance component is not a polytree");
    }
    PHOM_ASSIGN_OR_RETURN(
        Num p, SolvePathProbabilityOnPolytreeT<Num>(m, comp.graph, stats));
    none *= Ops::Complement(p);
  }
  return Ops::Complement(none);
}

template Result<Rational> SolvePathProbabilityOnPolytreeT<Rational>(
    uint32_t, const ProbGraph&, PolytreeStats*);
template Result<double> SolvePathProbabilityOnPolytreeT<double>(
    uint32_t, const ProbGraph&, PolytreeStats*);
template Result<IntervalDouble>
SolvePathProbabilityOnPolytreeT<IntervalDouble>(uint32_t, const ProbGraph&,
                                                PolytreeStats*);
template Result<Rational> SolveDwtQueryOnPolytreeForestT<Rational>(
    const DiGraph&, const std::vector<ComponentView>&, PolytreeStats*);
template Result<double> SolveDwtQueryOnPolytreeForestT<double>(
    const DiGraph&, const std::vector<ComponentView>&, PolytreeStats*);
template Result<IntervalDouble> SolveDwtQueryOnPolytreeForestT<IntervalDouble>(
    const DiGraph&, const std::vector<ComponentView>&, PolytreeStats*);

}  // namespace phom
