#pragma once

#include <vector>

#include "src/core/compiled.h"
#include "src/graph/prob_graph.h"
#include "src/lineage/dnf.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file algo_dwt.h
/// Prop. 4.10: PHomL(1WP, DWT) in PTIME — and, through the level-mapping
/// collapse of Prop. 3.6, PHom̸L(All, ⊔DWT).
///
/// Matches of a 1WP query in a downward forest are downward paths; every
/// vertex is the bottom end of at most one candidate match, found by
/// streaming the query's label word along root-to-leaf paths (KMP on the
/// forest). Two probability engines:
///  * a direct O(n·m) dynamic program over (vertex, capped run length of
///    consecutively present edges ending there) — the operational form of
///    the β-acyclic lineage evaluation;
///  * the literal paper pipeline: materialize the DNF lineage (one clause of
///    m edges per matching vertex), which is β-acyclic by bottom-up
///    elimination, and evaluate it with the memoized Shannon engine.
/// Both are exposed; tests check they agree. All entry points are templated
/// on the numeric backend (exact Rational or double, util/numeric.h).
///
/// The direct DP runs fraction-free on the exact backend. Each spine edge
/// (one with a match end below it) contributes exactly one factor, p_e or
/// 1 - p_e, to every term of f[v][s]: the recurrence is multilinear in the
/// edge probabilities. So with p_e = a_e/b_e in canonical form, the scaled
/// cell F[v][s] = W_v·f[v][s], W_v the product of b_e over the spine edges
/// below v, is an integer. It obeys
///   F[v][s] = Π_children (a_e·F[c][min(m, s+1)] + (b_e - a_e)·F[c][0]),
///   F[v][m] = 0 at a match end,
/// so the cells are BigInts built with multiply and add only. The answer
/// is 1 - N/W, with N the product of the roots' F[r][0] and W that of every
/// spine edge's b_e, reduced by a single gcd (a shift on dyadic inputs).
/// The double and interval backends run the same loop with (p, 1 - p)
/// weights.

namespace phom {

struct DwtStats {
  size_t match_ends = 0;  ///< vertices whose rootward m-path matches the query
};

/// Pr(1WP query with labels `query_labels` ⇝ instance), instance ∈ ⊔DWT
/// (a forest where every vertex has in-degree <= 1), read from the
/// instance's compiled downward forest and probabilities (compiled.h).
/// Requires >= 1 label.
template <class Num>
Result<Num> SolvePathOnDwtForestT(const std::vector<LabelId>& query_labels,
                                  const CompiledComponent& instance,
                                  DwtStats* stats);

/// Same, compiling `instance` for this one call.
template <class Num>
Result<Num> SolvePathOnDwtForestT(const std::vector<LabelId>& query_labels,
                                  const ProbGraph& instance, DwtStats* stats) {
  return SolvePathOnDwtForestT<Num>(query_labels, CompiledComponent(instance),
                                    stats);
}

/// Same value via the explicit β-acyclic DNF lineage + Shannon engine, read
/// from the same compiled forest and probabilities. `lineage_out`, if
/// non-null, receives the DNF over instance edge ids.
template <class Num>
Result<Num> SolvePathOnDwtForestViaLineageT(
    const std::vector<LabelId>& query_labels, const CompiledComponent& instance,
    MonotoneDnf* lineage_out, DwtStats* stats);

/// Same, compiling `instance` for this one call.
template <class Num>
Result<Num> SolvePathOnDwtForestViaLineageT(
    const std::vector<LabelId>& query_labels, const ProbGraph& instance,
    MonotoneDnf* lineage_out, DwtStats* stats) {
  return SolvePathOnDwtForestViaLineageT<Num>(
      query_labels, CompiledComponent(instance), lineage_out, stats);
}

/// Prop. 3.6: arbitrary unlabeled query on a ⊔DWT instance. Grades the
/// query (probability 0 if not graded), collapses it to →^m, and delegates.
template <class Num>
Result<Num> SolveUnlabeledOnDwtForestT(const DiGraph& query,
                                       const ProbGraph& instance,
                                       DwtStats* stats);

extern template Result<Rational> SolvePathOnDwtForestT<Rational>(
    const std::vector<LabelId>&, const CompiledComponent&, DwtStats*);
extern template Result<double> SolvePathOnDwtForestT<double>(
    const std::vector<LabelId>&, const CompiledComponent&, DwtStats*);
extern template Result<IntervalDouble> SolvePathOnDwtForestT<IntervalDouble>(
    const std::vector<LabelId>&, const CompiledComponent&, DwtStats*);
extern template Result<Rational> SolvePathOnDwtForestViaLineageT<Rational>(
    const std::vector<LabelId>&, const CompiledComponent&, MonotoneDnf*,
    DwtStats*);
extern template Result<double> SolvePathOnDwtForestViaLineageT<double>(
    const std::vector<LabelId>&, const CompiledComponent&, MonotoneDnf*,
    DwtStats*);
extern template Result<IntervalDouble>
SolvePathOnDwtForestViaLineageT<IntervalDouble>(const std::vector<LabelId>&,
                                                const CompiledComponent&,
                                                MonotoneDnf*, DwtStats*);
extern template Result<Rational> SolveUnlabeledOnDwtForestT<Rational>(
    const DiGraph&, const ProbGraph&, DwtStats*);
extern template Result<double> SolveUnlabeledOnDwtForestT<double>(
    const DiGraph&, const ProbGraph&, DwtStats*);
extern template Result<IntervalDouble>
SolveUnlabeledOnDwtForestT<IntervalDouble>(const DiGraph&, const ProbGraph&,
                                           DwtStats*);

/// Exact-backend conveniences (the historical entry points).
inline Result<Rational> SolvePathOnDwtForest(
    const std::vector<LabelId>& query_labels, const ProbGraph& instance,
    DwtStats* stats = nullptr) {
  return SolvePathOnDwtForestT<Rational>(query_labels, instance, stats);
}
inline Result<Rational> SolvePathOnDwtForestViaLineage(
    const std::vector<LabelId>& query_labels, const ProbGraph& instance,
    MonotoneDnf* lineage_out = nullptr, DwtStats* stats = nullptr) {
  return SolvePathOnDwtForestViaLineageT<Rational>(query_labels, instance,
                                                   lineage_out, stats);
}
inline Result<Rational> SolveUnlabeledOnDwtForest(const DiGraph& query,
                                                  const ProbGraph& instance,
                                                  DwtStats* stats = nullptr) {
  return SolveUnlabeledOnDwtForestT<Rational>(query, instance, stats);
}

}  // namespace phom
