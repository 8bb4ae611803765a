#include "src/graph/digraph.h"

#include <algorithm>

namespace phom {

VertexId DiGraph::AddVertex() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<VertexId>(out_.size() - 1);
}

Result<EdgeId> DiGraph::AddEdge(VertexId src, VertexId dst, LabelId label) {
  if (src >= num_vertices() || dst >= num_vertices()) {
    return Status::Invalid("edge endpoint out of range");
  }
  if (FindEdge(src, dst).has_value()) {
    return Status::Invalid("multi-edge on ordered pair (" +
                           std::to_string(src) + ", " + std::to_string(dst) +
                           ")");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, label});
  out_[src].push_back(id);
  in_[dst].push_back(id);
  return id;
}

std::optional<EdgeId> DiGraph::FindEdge(VertexId src, VertexId dst) const {
  if (src >= num_vertices() || dst >= num_vertices()) return std::nullopt;
  if (out_[src].size() <= in_[dst].size()) {
    for (EdgeId e : out_[src]) {
      if (edges_[e].dst == dst) return e;
    }
  } else {
    for (EdgeId e : in_[dst]) {
      if (edges_[e].src == src) return e;
    }
  }
  return std::nullopt;
}

bool DiGraph::HasEdge(VertexId src, VertexId dst, LabelId label) const {
  std::optional<EdgeId> e = FindEdge(src, dst);
  return e.has_value() && edges_[*e].label == label;
}

std::vector<LabelId> DiGraph::UsedLabels() const {
  std::vector<LabelId> labels;
  labels.reserve(edges_.size());
  for (const Edge& e : edges_) labels.push_back(e.label);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  return labels;
}

EdgeId AddEdgeOrDie(DiGraph* g, VertexId src, VertexId dst, LabelId label) {
  Result<EdgeId> result = g->AddEdge(src, dst, label);
  PHOM_CHECK_MSG(result.ok(), result.status().ToString());
  return result.ValueOrDie();
}

}  // namespace phom
