#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/prob_graph.h"
#include "src/util/result.h"

/// \file binary_encoding.h
/// Encoding of a probabilistic polytree as a full binary probabilistic tree
/// (Appendix C of the paper, a left-child-right-sibling variant with ε-nodes).
///
/// The polytree is rooted at an arbitrary vertex. Every tree node represents
/// one edge of the polytree (label ↑ when the edge points from child to
/// parent, ↓ otherwise) or is a structural ε-node (always present,
/// probability 1). The node for edge (p → c or c → p) has as descendants the
/// binarized list of c's child edges; an ε "spine" chains sibling edges so
/// every node has exactly 0 or 2 children. Both children of any internal node
/// root sub-instances hanging off the same polytree vertex, which is the
/// invariant the automaton transitions of Prop. 5.4 rely on.
///
/// A possible world of the polytree corresponds to the annotated tree where
/// each node is "present" iff its source edge is kept (ε-nodes always).

namespace phom {

enum class StepLabel : uint8_t {
  kEps = 0,  ///< structural node: both halves root at the same vertex
  kUp = 1,   ///< source edge directed child → parent
  kDown = 2, ///< source edge directed parent → child
};

struct EncodedNode {
  int32_t left = -1;   ///< -1 for leaves (left == -1 iff right == -1)
  int32_t right = -1;
  StepLabel label = StepLabel::kEps;
  Rational prob = Rational::One();
  /// Source polytree edge, or kNoSourceEdge for ε-nodes.
  EdgeId source_edge = kNoSourceEdge;

  static constexpr EdgeId kNoSourceEdge = UINT32_MAX;

  bool IsLeaf() const { return left < 0; }
};

struct EncodedPolytree {
  std::vector<EncodedNode> nodes;  ///< children precede parents (topological)
  int32_t root = -1;

  /// Present-bits for the encoded nodes corresponding to a possible world of
  /// the source polytree (ε-nodes and certain edges present). Test helper.
  std::vector<bool> WorldToNodePresence(
      const std::vector<bool>& edge_kept) const;
};

/// Requires the instance to be a polytree (single connected component whose
/// underlying graph is a tree), else Status::Invalid; rooted at vertex 0.
Result<EncodedPolytree> EncodePolytree(const ProbGraph& instance);

}  // namespace phom
