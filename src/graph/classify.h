#pragma once

#include <string>
#include <vector>

#include "src/graph/digraph.h"

/// \file classify.h
/// Recognizers for the paper's graph classes (§2, Figure 2):
///
///   1WP ⊆ 2WP ⊆ PT,  1WP ⊆ DWT ⊆ PT ⊆ Connected ⊆ All,
///   ⊔C = graphs all of whose connected components are in C.
///
/// Conventions (following the paper's definitions):
///  * a single vertex with no edge is a 1WP (m = 1);
///  * paths have pairwise-distinct vertices, so self-loops and anti-parallel
///    edge pairs disqualify a graph from every tree-like class;
///  * polytree = the underlying undirected graph is a tree.
///
/// Why one pass decides every class. In a connected graph, |E| = |V| − 1
/// makes the underlying undirected multigraph a tree, and a tree has no
/// self-loop and no anti-parallel pair (each would close a cycle). So on a
/// connected component, with `in`, `out` and `deg` its maximum in-, out- and
/// undirected degree:
///
///   PT  ⇔ |E| = |V| − 1        DWT ⇔ PT ∧ in ≤ 1
///   2WP ⇔ PT ∧ deg ≤ 2         1WP ⇔ PT ∧ in ≤ 1 ∧ out ≤ 1
///
/// Classify therefore labels the components once and reads every flag off
/// per-component counts (|E| = Σ out-degree); the Is* recognizers are reads
/// of the same facts. No subgraph is built.

namespace phom {

enum class GraphClass {
  kOneWayPath = 0,
  kTwoWayPath,
  kDownwardTree,
  kPolytree,
  kConnected,
  kGeneral,
};

const char* ToString(GraphClass c);

/// Connectivity of the underlying undirected graph. The empty graph and
/// single vertices are connected.
bool IsConnected(const DiGraph& g);

/// Vertex sets of the connected components (underlying undirected graph),
/// each sorted ascending; components ordered by smallest vertex.
std::vector<std::vector<VertexId>> ConnectedComponents(const DiGraph& g);

bool IsOneWayPath(const DiGraph& g);
bool IsTwoWayPath(const DiGraph& g);
bool IsDownwardTree(const DiGraph& g);
bool IsPolytree(const DiGraph& g);

/// Class membership summary used by the dichotomy dispatcher. The `is_*`
/// flags describe the whole graph (so they imply connectivity); the `all_*`
/// flags describe the ⊔-classes (every component in the class).
struct Classification {
  bool connected = false;
  size_t num_components = 0;

  bool is_1wp = false;
  bool is_2wp = false;
  bool is_dwt = false;
  bool is_pt = false;

  bool all_1wp = false;  ///< g ∈ ⊔1WP
  bool all_2wp = false;  ///< g ∈ ⊔2WP
  bool all_dwt = false;  ///< g ∈ ⊔DWT
  bool all_pt = false;   ///< g ∈ ⊔PT

  /// Finest class of the whole graph in the order of Figure 2 (1WP before
  /// 2WP before DWT before PT before Connected before General). For
  /// disconnected graphs this is kGeneral.
  GraphClass finest = GraphClass::kGeneral;

  std::string ToString() const;
  bool operator==(const Classification&) const = default;
};

/// One connectivity pass plus one degree scan (see the file comment).
Classification Classify(const DiGraph& g);

/// The classification of the disjoint union, in this order, of connected
/// non-empty graphs whose own class flags are parts[i].is_* (only those are
/// read). Classify(g) is ClassifyUnion over g's components; so is the
/// classification of an instance assembled from its component split.
Classification ClassifyUnion(const std::vector<Classification>& parts);

/// For a 2WP, the vertex order a_1 − a_2 − ... − a_m along the path
/// (an arbitrary one of the two orientations). PHOM_CHECKs IsTwoWayPath.
std::vector<VertexId> TwoWayPathOrder(const DiGraph& g);

/// For a DWT, the root (the unique vertex of in-degree 0; the single vertex
/// for edgeless graphs). PHOM_CHECKs IsDownwardTree.
VertexId DownwardTreeRoot(const DiGraph& g);

/// For a 1WP, the edge labels in path order. PHOM_CHECKs IsOneWayPath.
std::vector<LabelId> OneWayPathLabels(const DiGraph& g);

}  // namespace phom
