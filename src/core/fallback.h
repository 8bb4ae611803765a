#pragma once

#include "src/core/compiled.h"
#include "src/graph/prob_graph.h"
#include "src/hom/backtrack.h"
#include "src/util/numeric.h"
#include "src/util/rational.h"
#include "src/util/result.h"

/// \file fallback.h
/// Exact exponential solvers for the #P-hard cells (and the ground-truth
/// oracle for every tractable algorithm's tests):
///  * world enumeration — conditions on the uncertain edges (probability
///    strictly between 0 and 1) and tests query ⇝ world by backtracking;
///  * match lineage — enumerates homomorphism images of a connected query,
///    builds the (generally non-β-acyclic) monotone DNF, and evaluates it
///    with the memoized Shannon engine. Often far faster than 2^edges when
///    there are few matches; exponential in the worst case.
/// Both are templated on the numeric backend; "exact" refers to the
/// enumeration being exhaustive — with the double backend the world weights
/// are still combined in floating point.

namespace phom {

struct FallbackOptions {
  /// World enumeration refuses instances with more uncertain edges (and,
  /// whatever this is set to, instances with more than 63).
  size_t max_uncertain_edges = 26;
  /// Per-world homomorphism search budget.
  BacktrackOptions backtrack;
  /// Cap on enumerated homomorphisms for the match-lineage solver.
  uint64_t max_matches = 200'000;
  /// Cooperative interruption INSIDE a single hard component (non-owning;
  /// null = never interrupted). The world-enumeration and match-enumeration
  /// loops consult the token every cancel_check_interval iterations and
  /// abort with its Check() status — so a 2^m enumeration no longer runs to
  /// completion after its request's deadline has lapsed. Dispatch threads
  /// SolveOptions::cancel in here automatically (engines.cc).
  const CancelToken* cancel = nullptr;
  /// Worlds/matches between token checks (0 behaves as 1). The default
  /// keeps the check overhead well under 1% of a world's hom test while
  /// bounding the post-deadline overrun to ~a millisecond of work.
  uint64_t cancel_check_interval = 1024;
};

struct FallbackStats {
  uint64_t worlds = 0;
  uint64_t matches = 0;
};

/// Both read the instance's compiled probabilities (compiled.h).
template <class Num>
Result<Num> SolveByWorldEnumerationT(const DiGraph& query,
                                     const CompiledComponent& instance,
                                     const FallbackOptions& options,
                                     FallbackStats* stats);

/// Requires a connected query with >= 1 edge.
template <class Num>
Result<Num> SolveByMatchLineageT(const DiGraph& query,
                                 const CompiledComponent& instance,
                                 const FallbackOptions& options,
                                 FallbackStats* stats);

extern template Result<Rational> SolveByWorldEnumerationT<Rational>(
    const DiGraph&, const CompiledComponent&, const FallbackOptions&,
    FallbackStats*);
extern template Result<double> SolveByWorldEnumerationT<double>(
    const DiGraph&, const CompiledComponent&, const FallbackOptions&,
    FallbackStats*);
extern template Result<IntervalDouble>
SolveByWorldEnumerationT<IntervalDouble>(const DiGraph&,
                                         const CompiledComponent&,
                                         const FallbackOptions&,
                                         FallbackStats*);
extern template Result<Rational> SolveByMatchLineageT<Rational>(
    const DiGraph&, const CompiledComponent&, const FallbackOptions&,
    FallbackStats*);
extern template Result<double> SolveByMatchLineageT<double>(
    const DiGraph&, const CompiledComponent&, const FallbackOptions&,
    FallbackStats*);
extern template Result<IntervalDouble> SolveByMatchLineageT<IntervalDouble>(
    const DiGraph&, const CompiledComponent&, const FallbackOptions&,
    FallbackStats*);

/// Exact-backend conveniences (the historical entry points), compiling
/// `instance` for the one call.
inline Result<Rational> SolveByWorldEnumeration(
    const DiGraph& query, const ProbGraph& instance,
    const FallbackOptions& options = {}, FallbackStats* stats = nullptr) {
  return SolveByWorldEnumerationT<Rational>(query, CompiledComponent(instance),
                                            options, stats);
}
inline Result<Rational> SolveByMatchLineage(const DiGraph& query,
                                            const ProbGraph& instance,
                                            const FallbackOptions& options = {},
                                            FallbackStats* stats = nullptr) {
  return SolveByMatchLineageT<Rational>(query, CompiledComponent(instance),
                                        options, stats);
}

}  // namespace phom
