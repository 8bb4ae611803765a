#pragma once

#include <cstdint>

#include "src/automata/binary_encoding.h"
#include "src/automata/tree_automaton.h"
#include "src/circuits/circuit.h"
#include "src/util/numeric.h"
#include "src/util/result.h"

/// \file provenance.h
/// Provenance circuit of a deterministic bottom-up tree automaton on a
/// probabilistic tree ([Amarilli, Bourhis, Senellart; Prop. 3.1 of the
/// extended "Provenance circuits for trees and treelike instances"],
/// invoked by Prop. 5.4): for every tree node t and every state q reachable
/// at t, a gate computes "the run on the annotated world reaches state q at
/// t". The circuit is a d-DNNF by construction:
///   * AND gates combine the present/absent literal of t's own variable with
///     one gate from each child — disjoint variable sets (decomposability);
///   * OR gates range over distinct (left state, right state, presence)
///     triples — mutually exclusive because the automaton run on any fixed
///     world is unique (determinism).
/// Probability of acceptance = DnnfProbability of the root OR gate, with one
/// Boolean variable per tree node (ε-nodes are certain).
///
/// This is the paper's construction, kept as the reference. The solver does
/// not build it: SolvePathProbabilityOnPolytreeT (core/algo_polytree.h)
/// evaluates the same sums and products directly on the run, node by node,
/// in this circuit's gate order. The circuit and DnnfProbabilityT are its
/// differential oracle (tests/core_polytree_fused_diff_test.cc), bit for bit
/// and gate count for gate count.

namespace phom {

struct ProvenanceCircuit {
  Circuit circuit;
  uint32_t root_gate = 0;
  /// Variable probabilities aligned with circuit variables (= tree nodes);
  /// wrap in BackendProbs<Num> (util/numeric.h) to evaluate the circuit in
  /// a non-exact backend.
  std::vector<Rational> var_probs;
  /// Σ over internal nodes of |reachable left states| × |reachable right
  /// states| — the work/size driver, reported by benchmarks.
  size_t state_pairs = 0;
  /// Max number of reachable states at any single node.
  size_t max_states_per_node = 0;
};

/// Builds the provenance circuit of `automaton` on `tree`. Branches with
/// probability-0/1 nodes are pruned (sound: those assignments have
/// probability 0).
ProvenanceCircuit BuildProvenanceCircuit(const BottomUpAutomaton& automaton,
                                         const EncodedPolytree& tree);

}  // namespace phom
