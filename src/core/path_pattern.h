#pragma once

#include <string>
#include <vector>

#include "src/graph/prob_graph.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file path_pattern.h
/// An implemented slice of the paper's future work (§6): "allow a descendant
/// axis in the spirit of XML query languages". A PathPattern is a downward
/// path query whose steps use either the child axis (the next edge must
/// carry the label) or the descendant axis (any number of intermediate
/// edges, then the label) — e.g. catalog//price. On ⊔DWT instances the
/// probability remains computable by the Prop. 4.10 run-length DP with the
/// KMP state generalized to a lazily-determinized automaton over suffixes of
/// the current present-run:
///
///   a match is a downward path of PRESENT edges whose label word lies in
///   p_1 Σ*? p_2 Σ*? ... (Σ* exactly at descendant steps),
///
/// so the per-vertex state is the subset of pattern positions reachable by
/// some suffix of the run ending there. Data complexity stays polynomial;
/// the state count can grow exponentially in the PATTERN in the worst case
/// (this is why the paper lists the extension as future work — combined
/// tractability is open), so the solver reports ResourceExhausted past a
/// configurable state budget.

namespace phom {

struct PatternStep {
  LabelId label;
  /// false: child axis (edge directly below); true: descendant axis (any
  /// downward present path, then the labeled edge).
  bool descendant = false;
};

struct PathPattern {
  std::vector<PatternStep> steps;

  /// "R/S//T" given label names resolved by the caller — helper for tests
  /// and examples: child steps from `labels`, descendant flags aligned.
  static PathPattern Of(std::vector<PatternStep> steps) {
    return PathPattern{std::move(steps)};
  }

  std::string ToString() const;
};

struct PathPatternStats {
  size_t dfa_states = 0;   ///< lazily materialized subset states
  size_t table_cells = 0;  ///< (vertex, state) pairs evaluated
};

struct PathPatternOptions {
  /// Abort when the lazy determinization exceeds this many subset states.
  size_t max_dfa_states = 100'000;
};

/// Pr(some possible world contains a match of `pattern`) on a ⊔DWT
/// instance. With all-child-axis patterns this coincides with
/// SolvePathOnDwtForest.
Result<Rational> SolvePathPatternOnDwtForest(
    const PathPattern& pattern, const ProbGraph& instance,
    const PathPatternOptions& options = {},
    PathPatternStats* stats = nullptr);

/// Oracle for tests: does the FIXED world (kept edges) contain a downward
/// path of kept edges whose label word matches the pattern? Patterns of more
/// than 63 steps are Status::Invalid, as in SolvePathPatternOnDwtForest.
Result<bool> WorldHasPatternMatch(const PathPattern& pattern,
                                  const DiGraph& forest,
                                  const std::vector<bool>& kept);

}  // namespace phom
