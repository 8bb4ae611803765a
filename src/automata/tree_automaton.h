#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/automata/binary_encoding.h"
#include "src/util/status.h"

/// \file tree_automaton.h
/// Bottom-up deterministic tree automata (Definition 5.2) over the encoded
/// binary trees of binary_encoding.h, whose node alphabet is
/// {ε, ↑, ↓} × {present, absent}.
///
/// LongestRunAutomaton is the automaton of Prop. 5.4: its states are triples
/// ⟨↑: i, ↓: j, Max: k⟩ with 0 ≤ i, j, k ≤ m meaning, for the sub-instance
/// represented by the subtree below a node rooted at instance vertex r:
///   i = length of the longest directed path ending at r,
///   j = length of the longest directed path starting at r,
///   k = length of the longest directed path anywhere (all capped at m).
/// Accepting states have k == m, i.e. the world contains a directed path of
/// length m — equivalently the 1WP query →^m has a homomorphism.

namespace phom {

class BottomUpAutomaton {
 public:
  virtual ~BottomUpAutomaton() = default;

  virtual uint32_t num_states() const = 0;
  virtual uint32_t LeafState(StepLabel label, bool present) const = 0;
  virtual uint32_t Transition(StepLabel label, bool present, uint32_t left,
                              uint32_t right) const = 0;
  virtual bool IsAccepting(uint32_t state) const = 0;
};

class LongestRunAutomaton final : public BottomUpAutomaton {
 public:
  /// Tests for a directed path with `m` >= 1 edges.
  explicit LongestRunAutomaton(uint32_t m);

  uint32_t num_states() const override { return (m_ + 1) * (m_ + 1) * (m_ + 1); }
  uint32_t LeafState(StepLabel label, bool present) const override;
  /// Inline, like Encode/Decode: the fused polytree DP
  /// (core/algo_polytree.cc) calls it once per (state pair, presence).
  uint32_t Transition(StepLabel label, bool present, uint32_t left,
                      uint32_t right) const override;
  bool IsAccepting(uint32_t state) const override;

  uint32_t m() const { return m_; }

  /// State encoding helpers (exposed for tests).
  uint32_t Encode(uint32_t i, uint32_t j, uint32_t k) const {
    PHOM_CHECK(i <= m_ && j <= m_ && k <= m_);
    return (i * (m_ + 1) + j) * (m_ + 1) + k;
  }
  void Decode(uint32_t state, uint32_t* i, uint32_t* j, uint32_t* k) const {
    *k = state % (m_ + 1);
    state /= m_ + 1;
    *j = state % (m_ + 1);
    *i = state / (m_ + 1);
  }

 private:
  uint32_t m_;
};

inline uint32_t LongestRunAutomaton::Transition(StepLabel label, bool present,
                                                uint32_t left,
                                                uint32_t right) const {
  uint32_t i, j, k, i2, j2, k2;
  Decode(left, &i, &j, &k);
  Decode(right, &i2, &j2, &k2);
  auto cap = [this](uint32_t x) { return std::min(x, m_); };
  // Longest paths crossing the shared root vertex of the two halves.
  uint32_t cross = std::max(i + j2, i2 + j);
  uint32_t best = std::max({k, k2, cross});
  if (!present || label == StepLabel::kEps) {
    if (!present) {
      // The connecting edge is absent: nothing ends at / leaves the parent
      // vertex through this subtree, but paths inside it survive.
      return Encode(0, 0, cap(best));
    }
    // ε: both halves share their root vertex with the parent context.
    return Encode(std::max(i, i2), std::max(j, j2), cap(best));
  }
  if (label == StepLabel::kUp) {
    uint32_t up = cap(std::max(i, i2) + 1);
    return Encode(up, 0, cap(std::max(best, up)));
  }
  // kDown.
  uint32_t down = cap(std::max(j, j2) + 1);
  return Encode(0, down, cap(std::max(best, down)));
}

/// Deterministic run on a fixed world: returns the root state. `present`
/// aligns with tree.nodes (see EncodedPolytree::WorldToNodePresence).
uint32_t RunOnWorld(const BottomUpAutomaton& automaton,
                    const EncodedPolytree& tree,
                    const std::vector<bool>& present);

/// Longest directed path (number of edges) in a plain directed forest/DAG —
/// reference implementation used to validate the automaton in tests.
uint32_t LongestDirectedPath(const DiGraph& g);

}  // namespace phom
