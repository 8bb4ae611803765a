#include "src/core/algo_polytree.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "src/automata/binary_encoding.h"
#include "src/automata/tree_automaton.h"
#include "src/graph/classify.h"
#include "src/graph/graded.h"

namespace phom {

namespace {

/// Dense slot index up to this many automaton states ((m + 1)^3 <= 4096, so
/// m <= 15); a hash map beyond, since the table grows as (m + 1)^3 (4 GB of
/// uint32_t at m = 1000). 4096 states is a 16 KiB table, which stays in L1;
/// the bound is not tuned further. On perfbench `trees-interval` (20 s runs,
/// 10 alternated pairs, 4-core x86-64) the dense table served 18033 rps
/// against 14482 with the hash map alone (10/10 pairs, hash-only IQR 1786).
constexpr uint64_t kMaxDenseStates = 4096;

/// The longest path the automaton can test: LongestRunAutomaton numbers its
/// (m + 1)^3 states with uint32_t ids, which wrap from m = 1625 on.
constexpr uint32_t kMaxPathLength = 1624;
static_assert(uint64_t{kMaxPathLength + 1} * (kMaxPathLength + 1) *
                  (kMaxPathLength + 1) <=
              UINT32_MAX);

/// state -> 1 + its slot among the states reached at the current node
/// (0: not reached yet).
class SlotIndex {
 public:
  explicit SlotIndex(uint64_t num_states) {
    if (num_states <= kMaxDenseStates) dense_.assign(num_states, 0);
  }
  uint32_t& operator[](uint32_t state) {
    return dense_.empty() ? sparse_[state] : dense_[state];
  }
  void Clear(uint32_t state) {
    if (dense_.empty()) {
      sparse_.erase(state);
    } else {
      dense_[state] = 0;
    }
  }

 private:
  std::vector<uint32_t> dense_;
  std::unordered_map<uint32_t, uint32_t> sparse_;
};

/// One state reached at the current node, with its terms in circuit order.
/// A single term is the circuit's lone literal/AND gate and is taken as is;
/// two or more are its deterministic OR gate, summed by the accumulator.
template <class Num>
struct StateSlot {
  uint32_t terms = 0;
  Num first;
  DisjointSumAccumulator<Num> sum;
};

/// Pr(the run of the automaton accepts), computed on the run itself: per
/// node, Pr(the run reaches q) for every reachable state q. This is the
/// bottom-up evaluation of BuildProvenanceCircuit's d-DNNF (provenance.h)
/// without materializing it: every sum and product happens in the order
/// DnnfProbabilityT evaluates the gates, so the answers are bit-identical on
/// every backend, and `stats` counts the gates the circuit would have.
///
/// `edge_probs` are the polytree's edge probabilities in `Num`; an edge's
/// node reads its source edge's, and ε-nodes are One(), which is what
/// From(1) gives on every backend.
template <class Num>
Num RunProbability(uint32_t m, const EncodedPolytree& tree,
                   const std::vector<Num>& edge_probs, PolytreeStats* stats) {
  using Ops = NumericOps<Num>;
  const Num one = Ops::One();
  const LongestRunAutomaton automaton(m);
  const uint64_t states_bound = uint64_t{m + 1} * (m + 1) * (m + 1);
  SlotIndex index(states_bound);
  std::vector<StateSlot<Num>> slots;
  std::vector<uint32_t> reached;
  // Node t's reachable states, ascending, are states[begin[t]..begin[t + 1])
  // with probabilities probs[...]; children precede parents.
  std::vector<uint32_t> begin{0};
  std::vector<uint32_t> states;
  std::vector<Num> probs;
  begin.reserve(tree.nodes.size() + 1);
  size_t gates = 0;
  size_t state_pairs = 0;
  size_t max_states = 0;

  auto add = [&](uint32_t q, Num term) {
    uint32_t& at = index[q];
    if (at == 0) {
      slots.emplace_back();
      at = static_cast<uint32_t>(slots.size());
      reached.push_back(q);
    }
    StateSlot<Num>& slot = slots[at - 1];
    if (++slot.terms == 1) {
      slot.first = std::move(term);
      return;
    }
    if (slot.terms == 2) slot.sum.Add(slot.first);
    slot.sum.Add(term);
  };

  for (const EncodedNode& node : tree.nodes) {
    // Pruned exactly as BuildProvenanceCircuit prunes: the exact probability
    // decides, whatever the backend.
    const bool can_be_present = !node.prob.is_zero();
    const bool can_be_absent = !node.prob.is_one();
    const Num& present = node.source_edge == EncodedNode::kNoSourceEdge
                             ? one
                             : edge_probs[node.source_edge];
    const Num absent = can_be_absent ? Ops::Complement(present) : Ops::Zero();
    if (node.IsLeaf()) {
      if (can_be_present) add(automaton.LeafState(node.label, true), present);
      if (can_be_absent) add(automaton.LeafState(node.label, false), absent);
      gates += can_be_present + can_be_absent;
    } else {
      const uint32_t lb = begin[node.left], le = begin[node.left + 1];
      const uint32_t rb = begin[node.right], re = begin[node.right + 1];
      state_pairs += size_t{le - lb} * (re - rb);
      gates += 2 * size_t{le - lb} * (re - rb) *
               (can_be_present + can_be_absent);
      for (uint32_t l = lb; l < le; ++l) {
        // The circuit's AND is (literal * left) * right, left to right.
        Num with_present, with_absent;
        if (can_be_present) with_present = present * probs[l];
        if (can_be_absent) with_absent = absent * probs[l];
        for (uint32_t r = rb; r < re; ++r) {
          if (can_be_present) {
            add(automaton.Transition(node.label, true, states[l], states[r]),
                with_present * probs[r]);
          }
          if (can_be_absent) {
            add(automaton.Transition(node.label, false, states[l], states[r]),
                with_absent * probs[r]);
          }
        }
      }
    }

    std::sort(reached.begin(), reached.end());
    for (uint32_t q : reached) {
      StateSlot<Num>& slot = slots[index[q] - 1];
      states.push_back(q);
      if (slot.terms == 1) {
        probs.push_back(std::move(slot.first));
      } else {
        probs.push_back(slot.sum.Total());
        ++gates;
      }
      index.Clear(q);
    }
    max_states = std::max(max_states, reached.size());
    reached.clear();
    slots.clear();
    begin.push_back(static_cast<uint32_t>(states.size()));
  }

  DisjointSumAccumulator<Num> accept;
  size_t accepting = 0;
  Num only;
  for (uint32_t s = begin[tree.root]; s < begin[tree.root + 1]; ++s) {
    if (!automaton.IsAccepting(states[s])) continue;
    ++accepting;
    accept.Add(probs[s]);
    only = probs[s];
  }
  if (accepting != 1) ++gates;
  if (stats != nullptr) {
    stats->encoded_nodes += tree.nodes.size();
    stats->circuit_gates += gates;
    stats->state_pairs += state_pairs;
    stats->max_states_per_node =
        std::max(stats->max_states_per_node, max_states);
  }
  return accepting == 1 ? only : accept.Total();
}

}  // namespace

template <class Num>
Result<Num> SolvePathProbabilityOnPolytreeT(uint32_t m,
                                            const CompiledComponent& component,
                                            PolytreeStats* stats) {
  using Ops = NumericOps<Num>;
  if (m == 0) return Ops::One();
  if (component.graph().num_edges() == 0) return Ops::Zero();
  if (m > kMaxPathLength) {
    return Status::Invalid(
        "polytree solver: path length " + std::to_string(m) +
        " exceeds the automaton's 32-bit state ids (m <= " +
        std::to_string(kMaxPathLength) + ")");
  }
  const Result<EncodedPolytree>& tree = component.polytree();
  if (!tree.ok()) return tree.status();
  return RunProbability<Num>(m, *tree, component.probs<Num>(), stats);
}

template <class Num>
Result<Num> SolveDwtQueryOnPolytreeForestT(const DiGraph& query,
                                           const ProbGraph& instance,
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

  // Lemma 3.7 across components; EncodePolytree rejects a non-polytree one.
  IndependentUnionAccumulator<Num> any;
  for (const ComponentView& comp : SplitComponents(instance)) {
    PHOM_ASSIGN_OR_RETURN(
        Num p, SolvePathProbabilityOnPolytreeT<Num>(m, comp.graph, stats));
    any.Add(p);
  }
  return any.Total();
}

template Result<Rational> SolvePathProbabilityOnPolytreeT<Rational>(
    uint32_t, const CompiledComponent&, PolytreeStats*);
template Result<double> SolvePathProbabilityOnPolytreeT<double>(
    uint32_t, const CompiledComponent&, PolytreeStats*);
template Result<IntervalDouble>
SolvePathProbabilityOnPolytreeT<IntervalDouble>(uint32_t,
                                                const CompiledComponent&,
                                                PolytreeStats*);
template Result<Rational> SolveDwtQueryOnPolytreeForestT<Rational>(
    const DiGraph&, const ProbGraph&, PolytreeStats*);
template Result<double> SolveDwtQueryOnPolytreeForestT<double>(
    const DiGraph&, const ProbGraph&, PolytreeStats*);
template Result<IntervalDouble>
SolveDwtQueryOnPolytreeForestT<IntervalDouble>(const DiGraph&,
                                               const ProbGraph&,
                                               PolytreeStats*);

}  // namespace phom
