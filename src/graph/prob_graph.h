#pragma once

#include <vector>

#include "src/graph/digraph.h"
#include "src/util/rational.h"

/// \file prob_graph.h
/// Probabilistic graphs (paper §2): a directed labeled graph H together with
/// a probability function π : E → [0, 1]. Possible worlds are the subgraphs
/// of H on the SAME vertex set; each edge is kept independently with its
/// probability.

namespace phom {

class ProbGraph {
 public:
  /// A graph where every edge must still be given a probability via AddEdge.
  explicit ProbGraph(size_t num_vertices = 0) : graph_(num_vertices) {}

  /// Wraps an existing graph; `probs` must align with g.edges().
  ProbGraph(DiGraph g, std::vector<Rational> probs);

  /// All edges certain (probability 1).
  static ProbGraph Certain(DiGraph g);

  const DiGraph& graph() const { return graph_; }
  size_t num_vertices() const { return graph_.num_vertices(); }
  size_t num_edges() const { return graph_.num_edges(); }

  VertexId AddVertex() { return graph_.AddVertex(); }
  Result<EdgeId> AddEdge(VertexId src, VertexId dst, LabelId label,
                         Rational prob);

  const Rational& prob(EdgeId e) const { return probs_[e]; }
  const std::vector<Rational>& probs() const { return probs_; }

  /// Number of edges with probability strictly between 0 and 1.
  size_t NumUncertainEdges() const;

  /// Probability of the possible world keeping exactly the edges with
  /// keep[e] == true: Π_kept π(e) · Π_dropped (1 − π(e)).
  Rational WorldProbability(const std::vector<bool>& keep) const;

  /// Marginalizes out edges whose label is not in `labels` (sorted). Sound
  /// for PHom when `labels` ⊇ labels used by the query: such edges can never
  /// be the image of a query edge, and the independence assumption lets us
  /// sum them out. Keeps all vertices.
  ProbGraph RestrictToLabels(const std::vector<LabelId>& labels) const;

  /// Structural 64-bit hash over the vertex count, the edge list
  /// (src, dst, label, in insertion order) and the exact probabilities.
  /// Equal graphs hash equal; used (with the label set) as the key of the
  /// cross-instance context cache (serve/lru.h). Not cryptographic —
  /// collisions are possible in principle, so cache keys that must be
  /// collision-free should pair it with an owner-assigned id.
  uint64_t Fingerprint() const;

 private:
  DiGraph graph_;
  std::vector<Rational> probs_;
};

EdgeId AddEdgeOrDie(ProbGraph* g, VertexId src, VertexId dst, LabelId label,
                    const Rational& prob);

/// One connected component of a probabilistic graph, with maps back to the
/// original vertex/edge ids (needed to relate lineages across components).
struct ComponentView {
  ProbGraph graph;
  std::vector<VertexId> vertex_map;  ///< component vertex -> original vertex
  std::vector<EdgeId> edge_map;      ///< component edge -> original edge
};

/// Splits into connected components of the underlying undirected graph.
/// Isolated vertices form singleton components.
std::vector<ComponentView> SplitComponents(const ProbGraph& g);

/// Equal, view for view, to SplitComponents(g.RestrictToLabels(labels))
/// (`labels` sorted) — edge_map indexes the restricted graph's edges — but
/// splits `g` directly under the label filter, without building the
/// restricted graph.
std::vector<ComponentView> SplitComponents(const ProbGraph& g,
                                           const std::vector<LabelId>& labels);

/// The inverse of SplitComponents: reassembles the graph the views were
/// split from (vertex_map and edge_map must partition its vertices and
/// edges), edge for edge.
ProbGraph MergeComponents(const std::vector<ComponentView>& views);

}  // namespace phom
