#include "src/core/algo_dwt.h"

#include <algorithm>
#include <queue>

#include "src/core/downward_forest.h"
#include "src/graph/classify.h"
#include "src/graph/graded.h"
#include "src/lineage/dnf_prob.h"

namespace phom {

Result<DownwardForest> BuildDownwardForest(const DiGraph& g) {
  DownwardForest f;
  size_t n = g.num_vertices();
  f.parent.assign(n, -1);
  f.parent_edge.assign(n, 0);
  f.bfs_order.reserve(n);
  std::vector<bool> seen(n, false);
  std::queue<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (g.InDegree(v) == 0) {
      queue.push(v);
      seen[v] = true;
    }
  }
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop();
    f.bfs_order.push_back(v);
    for (EdgeId e : g.OutEdges(v)) {
      VertexId w = g.edge(e).dst;
      if (seen[w] || g.InDegree(w) != 1) {
        return Status::Invalid("instance is not a downward forest");
      }
      seen[w] = true;
      f.parent[w] = v;
      f.parent_edge[w] = e;
      queue.push(w);
    }
  }
  if (f.bfs_order.size() != n) {
    return Status::Invalid("instance is not a downward forest (cycle)");
  }
  return f;
}

namespace {

/// KMP failure function of the query label word.
std::vector<uint32_t> KmpFailure(const std::vector<LabelId>& pattern) {
  std::vector<uint32_t> fail(pattern.size(), 0);
  for (size_t i = 1; i < pattern.size(); ++i) {
    uint32_t s = fail[i - 1];
    while (s > 0 && pattern[s] != pattern[i]) s = fail[s - 1];
    if (pattern[s] == pattern[i]) ++s;
    fail[i] = s;
  }
  return fail;
}

/// match[v] = true iff the m rootward edges ending at v carry exactly the
/// query labels (KMP streamed down the forest).
std::vector<bool> MatchEnds(const std::vector<LabelId>& pattern,
                            const DiGraph& g, const DownwardForest& forest,
                            size_t* match_count) {
  uint32_t m = static_cast<uint32_t>(pattern.size());
  std::vector<uint32_t> fail = KmpFailure(pattern);
  std::vector<uint32_t> state(g.num_vertices(), 0);
  std::vector<bool> match(g.num_vertices(), false);
  for (VertexId v : forest.bfs_order) {
    if (forest.parent[v] < 0) {
      state[v] = 0;
      continue;
    }
    LabelId label = g.edge(forest.parent_edge[v]).label;
    uint32_t s = state[static_cast<VertexId>(forest.parent[v])];
    if (s == m) s = fail[m - 1];  // continue matching past a full match
    while (s > 0 && pattern[s] != label) s = fail[s - 1];
    if (pattern[s] == label) ++s;
    state[v] = s;
    if (s == m) {
      match[v] = true;
      if (match_count != nullptr) ++*match_count;
    }
  }
  return match;
}

/// Cell arithmetic of the Prop. 4.10 DP, over the edge probabilities in
/// `Num`. Each spine edge e enters once, as a (present, absent) weight
/// pair. Approximate backends weigh with (p, 1-p) and keep f itself.
template <class Num>
class DwtCells {
 public:
  using Cell = Num;
  explicit DwtCells(const std::vector<Num>& probs) : probs_(probs) {}
  const Cell& Present(EdgeId e) const { return probs_[e]; }
  /// Called once per spine edge.
  Cell Absent(EdgeId e) { return NumericOps<Num>::Complement(probs_[e]); }
  /// Pr(match) from the product of the roots' f[r][0].
  Num Finish(const Cell& no_match) const {
    return NumericOps<Num>::Complement(no_match);
  }

 private:
  const std::vector<Num>& probs_;
};

/// Exact backend, fraction-free: with p_e = a_e/b_e in canonical form the
/// cells are the integers F[v][s] = W_v·f[v][s], W_v the product of b_e over
/// the spine edges below v, and the weights are (a_e, b_e - a_e). W is the
/// product over every spine edge, so one gcd, in Finish, reduces the answer.
template <>
class DwtCells<Rational> {
 public:
  using Cell = BigInt;
  explicit DwtCells(const std::vector<Rational>& probs) : probs_(probs) {}
  const Cell& Present(EdgeId e) const { return probs_[e].num(); }
  /// Called once per spine edge: also multiplies b_e into W.
  Cell Absent(EdgeId e) {
    const Rational& p = probs_[e];
    scale_ *= p.den();
    return p.den() - p.num();
  }
  Rational Finish(const Cell& no_match) const {
    return Rational(scale_ - no_match, scale_);
  }

 private:
  const std::vector<Rational>& probs_;
  BigInt scale_{1};  // W
};

}  // namespace

template <class Num>
Result<Num> SolvePathOnDwtForestT(const std::vector<LabelId>& query_labels,
                                  const CompiledComponent& instance,
                                  DwtStats* stats) {
  if (query_labels.empty()) {
    return Status::Invalid("query must have at least one edge");
  }
  const Result<DownwardForest>& compiled_forest = instance.forest();
  if (!compiled_forest.ok()) return compiled_forest.status();
  const DownwardForest& forest = *compiled_forest;
  const DiGraph& g = instance.graph().graph();
  uint32_t m = static_cast<uint32_t>(query_labels.size());
  size_t match_count = 0;
  std::vector<bool> match = MatchEnds(query_labels, g, forest, &match_count);
  if (stats != nullptr) stats->match_ends = match_count;

  // f[v][s] = Pr(no match fires in v's subtree | capped run of present
  // edges ending at v is s), kept as a DwtCells cell. Children processed
  // before parents. Subtrees without any match end contribute factor 1 for
  // every s, so tables are only materialized on the "match spine" — the
  // ancestors of match ends — which is what keeps the DP cheap when matches
  // are sparse.
  size_t n = g.num_vertices();
  std::vector<bool> match_below(n, false);
  for (size_t idx = forest.bfs_order.size(); idx-- > 0;) {
    VertexId v = forest.bfs_order[idx];
    bool below = match[v];
    for (EdgeId e : g.OutEdges(v)) {
      below = below || match_below[g.edge(e).dst];
    }
    match_below[v] = below;
  }

  using Cell = typename DwtCells<Num>::Cell;
  DwtCells<Num> cells(instance.probs<Num>());
  std::vector<std::vector<Cell>> f(n);
  std::vector<Cell> absent;  // per spine child: absent weight · f[c][0]
  for (size_t idx = forest.bfs_order.size(); idx-- > 0;) {
    VertexId v = forest.bfs_order[idx];
    if (!match_below[v]) continue;  // f[v][s] == 1 for all s
    absent.clear();
    for (EdgeId e : g.OutEdges(v)) {
      VertexId c = g.edge(e).dst;
      if (!match_below[c]) continue;  // contributes p·1 + (1-p)·1 = 1
      absent.push_back(cells.Absent(e) * f[c][0]);
    }
    f[v].assign(m + 1, Cell(1));
    for (uint32_t s = 0; s <= m; ++s) {
      if (match[v] && s == m) {
        f[v][s] = Cell(0);
        continue;
      }
      Cell value = Cell(1);
      size_t child = 0;
      for (EdgeId e : g.OutEdges(v)) {
        VertexId c = g.edge(e).dst;
        if (!match_below[c]) continue;
        uint32_t s_present = std::min(m, s + 1);
        value *= cells.Present(e) * f[c][s_present] + absent[child++];
      }
      f[v][s] = std::move(value);
    }
    // Free children tables: no longer needed once v is computed.
    for (EdgeId e : g.OutEdges(v)) {
      f[g.edge(e).dst].clear();
      f[g.edge(e).dst].shrink_to_fit();
    }
  }

  Cell no_match = Cell(1);
  for (VertexId v = 0; v < n; ++v) {
    if (forest.parent[v] < 0 && match_below[v]) no_match *= f[v][0];
  }
  return cells.Finish(no_match);
}

template <class Num>
Result<Num> SolvePathOnDwtForestViaLineageT(
    const std::vector<LabelId>& query_labels, const CompiledComponent& instance,
    MonotoneDnf* lineage_out, DwtStats* stats) {
  if (query_labels.empty()) {
    return Status::Invalid("query must have at least one edge");
  }
  const Result<DownwardForest>& compiled_forest = instance.forest();
  if (!compiled_forest.ok()) return compiled_forest.status();
  const DownwardForest& forest = *compiled_forest;
  const DiGraph& g = instance.graph().graph();
  uint32_t m = static_cast<uint32_t>(query_labels.size());
  size_t match_count = 0;
  std::vector<bool> match = MatchEnds(query_labels, g, forest, &match_count);
  if (stats != nullptr) stats->match_ends = match_count;

  MonotoneDnf lineage(static_cast<uint32_t>(g.num_edges()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!match[v]) continue;
    std::vector<uint32_t> clause;
    clause.reserve(m);
    VertexId w = v;
    for (uint32_t step = 0; step < m; ++step) {
      PHOM_CHECK(forest.parent[w] >= 0);
      clause.push_back(forest.parent_edge[w]);
      w = static_cast<VertexId>(forest.parent[w]);
    }
    lineage.AddClause(std::move(clause));
  }

  // Condition edges top-down (by depth of the child endpoint): together with
  // component caching this keeps the number of residuals polynomial.
  std::vector<uint32_t> order;
  order.reserve(g.num_edges());
  for (VertexId v : forest.bfs_order) {
    if (forest.parent[v] >= 0) order.push_back(forest.parent_edge[v]);
  }
  ShannonOptions options;
  options.variable_order = std::move(order);
  Result<Num> result = DnfProbabilityShannonT<Num>(
      lineage, instance.probs<Num>(), options, nullptr);
  if (lineage_out != nullptr) *lineage_out = std::move(lineage);
  return result;
}

template <class Num>
Result<Num> SolveUnlabeledOnDwtForestT(const DiGraph& query,
                                       const ProbGraph& instance,
                                       DwtStats* stats) {
  if (query.num_edges() == 0) {
    return Status::Invalid("query must have at least one edge");
  }
  std::vector<LabelId> labels = query.UsedLabels();
  if (labels.size() != 1) {
    return Status::Invalid("SolveUnlabeledOnDwtForest requires one label");
  }
  GradedAnalysis graded = AnalyzeGraded(query);
  if (!graded.is_graded) return NumericOps<Num>::Zero();  // Prop. 3.6
  PHOM_CHECK(graded.difference_of_levels >= 1);
  std::vector<LabelId> pattern(
      static_cast<size_t>(graded.difference_of_levels), labels[0]);
  return SolvePathOnDwtForestT<Num>(pattern, instance, stats);
}

template Result<Rational> SolvePathOnDwtForestT<Rational>(
    const std::vector<LabelId>&, const CompiledComponent&, DwtStats*);
template Result<double> SolvePathOnDwtForestT<double>(
    const std::vector<LabelId>&, const CompiledComponent&, DwtStats*);
template Result<IntervalDouble> SolvePathOnDwtForestT<IntervalDouble>(
    const std::vector<LabelId>&, const CompiledComponent&, DwtStats*);
template Result<Rational> SolvePathOnDwtForestViaLineageT<Rational>(
    const std::vector<LabelId>&, const CompiledComponent&, MonotoneDnf*,
    DwtStats*);
template Result<double> SolvePathOnDwtForestViaLineageT<double>(
    const std::vector<LabelId>&, const CompiledComponent&, MonotoneDnf*,
    DwtStats*);
template Result<IntervalDouble>
SolvePathOnDwtForestViaLineageT<IntervalDouble>(const std::vector<LabelId>&,
                                                const CompiledComponent&,
                                                MonotoneDnf*, DwtStats*);
template Result<Rational> SolveUnlabeledOnDwtForestT<Rational>(
    const DiGraph&, const ProbGraph&, DwtStats*);
template Result<double> SolveUnlabeledOnDwtForestT<double>(
    const DiGraph&, const ProbGraph&, DwtStats*);
template Result<IntervalDouble>
SolveUnlabeledOnDwtForestT<IntervalDouble>(const DiGraph&, const ProbGraph&,
                                           DwtStats*);

}  // namespace phom
