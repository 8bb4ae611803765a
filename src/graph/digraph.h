#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

/// \file digraph.h
/// Directed graphs with edge labels from a finite alphabet (paper §2:
/// H = (V, E, λ) with E ⊆ V² and λ : E → σ). Multi-edges are disallowed —
/// an ordered pair (u, v) carries at most one edge and hence one label —
/// matching the paper's definition. Labels are interned integers; mapping
/// label ids to human-readable names is the caller's business (see
/// alphabet.h).

namespace phom {

using VertexId = uint32_t;
using EdgeId = uint32_t;
using LabelId = uint32_t;

/// The single label used by convention in the unlabeled setting (|σ| = 1).
inline constexpr LabelId kUnlabeled = 0;

struct Edge {
  VertexId src;
  VertexId dst;
  LabelId label;

  bool operator==(const Edge& other) const = default;
};

class DiGraph {
 public:
  explicit DiGraph(size_t num_vertices = 0) : out_(num_vertices),
                                              in_(num_vertices) {}

  size_t num_vertices() const { return out_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Adds a fresh isolated vertex and returns its id.
  VertexId AddVertex();

  /// Adds the edge src --label--> dst. Fails on out-of-range endpoints or if
  /// the ordered pair (src, dst) already carries an edge (no multi-edges).
  Result<EdgeId> AddEdge(VertexId src, VertexId dst, LabelId label);

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge ids leaving / entering a vertex.
  const std::vector<EdgeId>& OutEdges(VertexId v) const { return out_[v]; }
  const std::vector<EdgeId>& InEdges(VertexId v) const { return in_[v]; }

  size_t OutDegree(VertexId v) const { return out_[v].size(); }
  size_t InDegree(VertexId v) const { return in_[v].size(); }
  /// Degree in the underlying undirected multigraph.
  size_t UndirectedDegree(VertexId v) const {
    return out_[v].size() + in_[v].size();
  }

  /// The edge on the ordered pair (src, dst), if any: a scan of the shorter
  /// of OutEdges(src) and InEdges(dst), so no per-edge index is kept.
  std::optional<EdgeId> FindEdge(VertexId src, VertexId dst) const;
  bool HasEdge(VertexId src, VertexId dst, LabelId label) const;

  /// Distinct labels used by the edges, sorted ascending.
  std::vector<LabelId> UsedLabels() const;
  /// True iff at most one distinct label occurs (the paper's |σ| = 1 case).
  bool UsesSingleLabel() const { return UsedLabels().size() <= 1; }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

/// Convenience for internal construction where arguments are known valid.
EdgeId AddEdgeOrDie(DiGraph* g, VertexId src, VertexId dst,
                    LabelId label = kUnlabeled);

}  // namespace phom
