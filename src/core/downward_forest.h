#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/digraph.h"
#include "src/util/result.h"

/// \file downward_forest.h
/// Internal to the ⊔DWT kernels (algo_dwt.cc, path_pattern.cc): the
/// downward-forest check and BFS layout both run before their DPs. The
/// Prop. 4.10 DP reads it compiled once per component (compiled.h).

namespace phom {

/// BFS order (parents before children) and parent links of a ⊔DWT.
struct DownwardForest {
  std::vector<VertexId> bfs_order;
  std::vector<int64_t> parent;      ///< -1 for roots
  std::vector<EdgeId> parent_edge;  ///< valid when parent >= 0
};

/// Status::Invalid unless every vertex has in-degree <= 1 and `g` is
/// acyclic.
Result<DownwardForest> BuildDownwardForest(const DiGraph& g);

}  // namespace phom
